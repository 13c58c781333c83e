"""Independent verification of a stored cycle sequence.

verify_hc_extract checks the five limit conditions on a trace
(trace.SequenceTrace): vertex persistence, finite cuts, nested M sets
along each tracked end, edge persistence and cut agreement.  It reads
the trace and the graph's neighbour and escape oracles, and nothing
else: this module imports graphcore, errors, trace and the descriptor
reader of families, and none of the construction (infinite, structure,
extension, conditions), so a verdict shares no code with the run that
built the trace.  stable_limit reads off a trace the edges that have
stabilized inside a window.
"""

from __future__ import annotations

from bisect import bisect
from itertools import filterfalse
from operator import sub

from .errors import InputError, InvariantViolation
from .families import descriptor_to_lazy
from .graphcore import (
    BALL_RADIUS_MAX,
    Edge,
    LazyGraph,
    Record,
    canonical_edge,
    neighborhood_k,
)
from .trace import CutWitness, SequenceTrace


def _splices(P: tuple, Q: tuple, on_P) -> tuple[list, list] | None:
    """When the cycle order Q is P with runs of vertices off P (``on_P``
    is P's vertex set) inserted between neighbours, and starts where P
    does: Q's pairs that touch an inserted vertex, in Q's order, and for
    each run the pair (a, b) of P it was inserted between.  Otherwise
    None.

    Stretches that P and Q share alternate with runs, a run being Q's
    vertices before P's next vertex b (``tuple.index``), or Q's rest
    once P is used up.  On a splice, Q[j + t] == P[i + t] holds from a
    stretch's start up to the next run and fails after it, so bisection
    on single entries finds the stretch's end, and one slice comparison
    checks the stretch.  As Q repeats no vertex, checked stretches and
    runs that avoid P make a splice.  The loops turn about log2 |P|
    times a run; the rest is C work.
    """
    if Q[0] != P[0]:
        return None
    new, old = [], []
    m, n = len(P), len(Q)
    i = j = 0
    while n - j > m - i:
        # P[i] == Q[j]; every probe at or past hi found a difference
        lo, hi = 1, m - i
        while lo < hi:
            mid = (lo + hi) // 2
            if P[i + mid] == Q[j + mid]:
                lo = mid + 1
            else:
                hi = mid
        if P[i : i + lo] != Q[j : j + lo]:
            return None
        i += lo
        j += lo
        if i == m:
            a, b, end = P[-1], P[0], n
        else:
            a, b = P[i - 1], P[i]
            try:
                end = Q.index(b, j)
            except ValueError:
                return None
        run = Q[j:end]
        if not on_P.isdisjoint(run):
            return None
        new += zip((a, *run), (*run, b))
        old.append((a, b))
        j = end
    if P[i:] != Q[j:]:
        return None
    return new, old


def _diffed_pairs(P: tuple, Q: tuple) -> tuple[list, list, bool]:
    """Q's pairs that P does not walk, in Q's order; P's pairs that Q
    does not walk; and whether Q lacks a vertex of P, from one
    successor map per cycle order.

    The pairs (u, v) that Q walks and P does not are found by looking
    each pair up in P's map at C speed.  P's pairs that Q does not walk
    are (u, succ_P(u)) for the first vertices u of those new pairs,
    plus the pairs of the vertices Q dropped.
    """
    prev = dict(zip(P, P[1:] + P[:1]))
    succ = dict(zip(Q, Q[1:] + Q[:1]))
    new = list(filterfalse(prev.items().__contains__, succ.items()))
    old = [(u, prev[u]) for u, _ in new if u in prev]
    drops = not prev.keys() <= succ.keys()
    if drops:
        old += [(u, w) for u, w in prev.items() if u not in succ]
    return new, old, drops


def _cycle_lifetimes(
    cycles, G: LazyGraph | None = None
) -> tuple[dict[Edge, list[int]], int | None]:
    """Each cycle edge's lifetime, the sorted cycle indices at which it
    joins the cycles (even positions) and leaves them (odd ones), so it
    is on C_k when an odd number of them are at most k; and the first
    step i whose C_{i+1} lacks a vertex of C_i (None if no step drops
    one).

    Each step is read from C_i's pairs that C_{i+1} does not walk and
    C_{i+1}'s pairs that C_i does not walk.  A cycle walks each of its
    edges in one direction, so an edge among the new pairs and not the
    old ones joins at i + 1, and the reverse leaves; an edge among both
    stays.

    A step that splices runs into C_i is read as splices
    (:func:`_splices`): C_{i+1} starts where C_i does, keeps C_i's
    order, and adds runs of vertices off C_i.  Then two vertices of C_i
    next to each other on C_{i+1} are next to each other on C_i, in the
    same direction, as no vertex of C_i lies between them; so C_{i+1}'s
    new pairs are exactly those that touch an inserted vertex.  Every
    pair of C_i survives but the pair (a, b) each run was inserted
    between, and no vertex drops.  Any other step (a reversal, a
    rotation, a dropped or moved vertex) is read from the two cycles'
    successor maps (:func:`_diffed_pairs`), the general rule, which
    gives the same pairs on a splice.  The orders decide which reader
    runs.

    With ``G``, each new pair is checked for adjacency in cycle order,
    so the first failing pair is the one a whole-cycle scan names: a
    pair C_i walks in the same direction passed on C_i, and its first
    vertex's neighbours are cached, so the oracle is asked what a scan
    would ask it, in the same order.  Cycle 0's pairs are all new.
    """
    life: dict[Edge, list[int]] = {}
    dropped = None
    prev = None
    for idx, C in enumerate(cycles):
        order = C.order
        step = None if prev is None else _splices(prev.order, order, prev.vertex_set)
        if step is None:
            new, old, drops = _diffed_pairs(() if prev is None else prev.order, order)
            if drops and dropped is None:
                dropped = idx - 1
        else:
            new, old = step
        if G is not None:
            for u, v in new:
                if not G.adjacent(u, v):
                    raise InputError(
                        f"trace cycle {idx} invalid: consecutive cycle "
                        f"vertices {u}, {v} not adjacent"
                    )
        gained = {(u, v) if u <= v else (v, u) for u, v in new}
        lost = {(u, w) if u <= w else (w, u) for u, w in old}
        for e in gained ^ lost:
            life.setdefault(e, []).append(idx)
        prev = C
    return life, dropped


def _persistence_failure(life) -> tuple[int, int, list[Edge]] | None:
    """First pair i < j of cycles sharing an edge that cycle j+1 lacks.

    Pairs are ordered by j, then i, and the lost edges come sorted.  An
    edge that leaves at j + 1 was on C_j, and it was on an earlier cycle
    when it first joined before j, at i; so every leave of an edge that
    was on two cycles is a failing pair, and the least one is reported
    with the edges that left there and first joined at its i.
    """
    failures = [
        (leave - 1, times[0], e)
        for e, times in life.items()
        for leave in times[1::2]
        if leave > times[0] + 1
    ]
    if not failures:
        return None
    j, i, _ = min(failures)
    return i, j, sorted(e for jj, ii, e in failures if jj == j and ii == i)


class ConditionReport(Record):
    __slots__ = _fields = ("ok", "detail")

    def __init__(self, ok: bool, detail: str) -> None:
        self.ok = ok
        self.detail = detail

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "detail": self.detail}


class HCExtractVerdict(Record):
    """One report per limit condition; names follow the checker order:
    vertex persistence, finite cuts (with blocker minimality and the
    coverage of blocker, K0 and N^3 of the blocker), nested M sets per
    end, edge persistence, and cut agreement across iterations."""

    __slots__ = _fields = (
        "vertex_persistence",
        "finite_cuts",
        "nested_msets",
        "edge_persistence",
        "cut_agreement",
    )

    def __init__(
        self,
        vertex_persistence: ConditionReport,
        finite_cuts: ConditionReport,
        nested_msets: ConditionReport,
        edge_persistence: ConditionReport,
        cut_agreement: ConditionReport,
    ) -> None:
        self.vertex_persistence = vertex_persistence
        self.finite_cuts = finite_cuts
        self.nested_msets = nested_msets
        self.edge_persistence = edge_persistence
        self.cut_agreement = cut_agreement

    @property
    def all_ok(self) -> bool:
        return all(report.ok for report in self._values())

    def to_json_obj(self) -> dict:
        return {
            "all_ok": self.all_ok,
            **{f: getattr(self, f).to_json_obj() for f in self._fields},
        }


def _trace_graph(trace: SequenceTrace, G: LazyGraph | None) -> LazyGraph:
    if G is not None:
        return G
    if trace.descriptor is None:
        raise InputError(
            "trace has no descriptor; pass the graph explicitly"
        )
    return descriptor_to_lazy(trace.descriptor)


def component_walk(G: LazyGraph, blocker, home, foreign):
    """Membership test for the component of G - blocker that meets
    ``home``, for a vertex in none of ``blocker``, ``home`` and the sets
    ``foreign``, known to lie outside it.  It walks G - blocker ring by
    ring, in ascending id order within a ring, and answers from the
    first known set it reaches, each consulted in place.  The walk is
    capped at ``BALL_RADIUS_MAX`` rings, so a query far from every known
    set fails fast instead of looping.  It is the package's one search
    of G - blocker that reaches past a ball.

    A walk searches past its first ring, v's own row, once per closed
    neighbourhood N[v]: a later vertex with the same N[v] takes the
    answer of the closed twin t that searched.  That is exact, and asks
    the neighbour oracle the same rows in the same order as a search
    from every vertex, for any row order.  t's first ring met no known
    set, and v's row is t's with t, in no known set either, in place of
    v; so v's first ring meets none.  Both walks have then seen
    blocker | N[v].  From the second ring on they meet the same unseen
    vertices in the same order: their rings differ only in t and v,
    whose rows hold only vertices of N[v], already seen.  So the later
    rings, empty or not, the first known vertex met and a cap error
    agree, and every row v's search would read after its own row was
    read by t's.
    """
    neighbors = G.neighbors
    # N[t] -> the answer of t's search past its first ring
    searched: dict[frozenset[int], bool] = {}

    def search(v: int, row) -> tuple[bool, int]:
        """The walk from v, whose row is ``row``: its answer, and the
        ring it stopped in, 0 for the first."""
        # the blocker is never entered, so it starts as seen
        seen = set(blocker)
        seen.add(v)
        rows = (row,)
        for depth in range(BALL_RADIUS_MAX):
            nxt = []
            for r in rows:
                for w in r:
                    if w in seen:
                        continue
                    if w in home:
                        return True, depth
                    for out in foreign:
                        if w in out:
                            return False, depth
                    seen.add(w)
                    nxt.append(w)
            if not nxt:
                return False, depth
            rows = map(neighbors, sorted(nxt))
        raise InputError(
            f"component membership query for {v} exceeded the search cap "
            f"{BALL_RADIUS_MAX}"
        )

    def walk(v: int) -> bool:
        row = neighbors(v)
        twins = frozenset(row) | {v}
        answer = searched.get(twins)
        if answer is None:
            answer, depth = search(v, row)
            # which known vertex a first ring meets first depends on the
            # order of its row, so only a search past it is shared
            if depth:
                searched[twins] = answer
        return answer

    return walk


def _witness_membership(G: LazyGraph, trace: SequenceTrace, i: int, j: int):
    """Membership test for M at iteration i, part j, the bare component
    test (both as callables), and the vertices M's test knows to be in M.

    M is (K_j with ``included`` added) minus ``excluded``, and K_j is
    the component of G - blocker that meets the piece.  A vertex in
    piece - blocker is in K_j; one in the blocker, K0 or another piece,
    consulted in place, is not.  A vertex in included - excluded or
    piece - blocker - excluded is in M; one in excluded or
    blocker - included is not, nor is one in K0 or another piece.  Both
    tests decide any other vertex by the component's one walk
    (:func:`component_walk`), which searches past a vertex's own row
    once per closed-twin class: GZn's walked vertices come a fiber at a
    time, and a fiber is one class."""
    per_i = trace.witnesses[i]
    w, blocker = per_i[j], trace.blockers[i]
    foreign = [trace.k0s[i], *(o.piece for jj, o in enumerate(per_i) if jj != j)]
    walk = component_walk(G, blocker, w.piece, foreign)

    def test(known_in, known_out):
        def answer(v: int) -> bool:
            if v in known_in:
                return True
            for out in known_out:
                if v in out:
                    return False
            return walk(v)

        return answer

    core = w.piece - blocker
    inside = (w.included | core) - w.excluded
    member = test(inside, (w.excluded | blocker - w.included, *foreign))
    return member, test(core, (blocker, *foreign)), inside


def _blocker_failure(G: LazyGraph, trace: SequenceTrace, i: int) -> str | None:
    """Why the blocker of iteration i + 1 is not an inclusion-minimal
    ray blocker of cycle i, or None when it is one."""
    S, C = trace.blockers[i], trace.cycles[i]
    on = sorted(v for v in S if v in C)
    if on:
        return f"blocker of iteration {i + 1} meets cycle {i} at vertex {on[0]}"
    # the cycle is connected and avoids S, so one probe speaks for it
    probe = C.order[0]
    if G.escapes(S, probe):
        return (
            f"blocker of iteration {i + 1} lets rays escape from cycle "
            f"vertex {probe}"
        )
    for s in sorted(S):
        if not G.escapes(S - {s}, probe):
            return f"blocker vertex {s} of iteration {i + 1} is removable"
    return None


def _coverage_failure(G: LazyGraph, trace: SequenceTrace) -> str | None:
    """Why some cycle C_{i+1} misses a vertex of blocker_i, K0_i or
    N^3(blocker_i), or None when every cycle covers all three."""
    for i, S in enumerate(trace.blockers):
        K0, N3 = trace.k0s[i], neighborhood_k(G, S, 3)
        V = trace.cycles[i + 1].vertex_set
        # K0 is about as large as the cycle: no union is built for it
        # unless something is missing
        if not (S <= V and K0 <= V and N3 <= V):
            missing = sorted((S | K0 | N3) - V)
            return (
                f"cycle {i + 1} misses {missing[:6]} of the blocker, K0 and "
                f"third neighbourhood of iteration {i + 1}"
            )
    return None


def _explicit_cut(G: LazyGraph, w: CutWitness, member) -> frozenset[Edge]:
    """The full edge boundary of M, rendered as an explicit finite list.

    Every crossing edge is incident with the separator part, its
    neighbourhood, or one of the membership corrections, so scanning
    those vertices' neighbourhoods is exhaustive.
    """
    near = w.part | w.included | w.excluded
    region = set(near)
    for v in sorted(near):
        region.update(G.neighbors(v))
    # each vertex's side is asked once, in the order a scan first asks it
    sides: dict[int, bool] = {}
    edges = set()
    for a in sorted(region):
        side = sides.get(a)
        if side is None:
            side = sides[a] = member(a)
        for b in G.neighbors(a):
            other = sides.get(b)
            if other is None:
                other = sides[b] = member(b)
            if side != other:
                edges.add(canonical_edge(a, b))
    return frozenset(edges)


def _vertex_persistence(trace: SequenceTrace, dropped: int | None) -> ConditionReport:
    """Once on a cycle, on every later cycle; then the last cycle holds
    every vertex reached.  ``dropped`` is the first step i whose cycle
    C_{i+1} lacks a vertex of C_i, as :func:`_cycle_lifetimes` finds it."""
    if dropped is not None:
        here = trace.cycles[dropped].vertex_set
        lost = sorted(here - trace.cycles[dropped + 1].vertex_set)
        return ConditionReport(
            False, f"vertices {lost[:6]} fell out of cycle {dropped + 1}"
        )
    return ConditionReport(
        True, f"{len(trace.cycles[-1])} vertices reached, monotone"
    )


def _finite_cuts(
    trace: SequenceTrace, cuts: dict, failure: str | None
) -> ConditionReport:
    """Every stored crossing edge is a boundary edge of its explicit
    cut.  ``failure``, a blocker or coverage failure, outranks that
    check; of several failing witnesses the last is reported."""
    if failure:
        return ConditionReport(False, failure)
    for (i, j), (*_, cut) in reversed(cuts.items()):
        if not set(trace.witnesses[i][j].crossing_edges) <= cut:
            return ConditionReport(
                False,
                f"stored crossing edges of iteration {i + 1} part {j} "
                "are not boundary edges",
            )
    sizes = sorted({len(entry[-1]) for entry in cuts.values()})
    return ConditionReport(True, f"all {len(cuts)} cuts explicit, sizes {sizes}")


def _nested_msets(G: LazyGraph, trace: SequenceTrace, cuts: dict) -> ConditionReport:
    """Along each tracked end, each M set lies in the previous one.  The
    trace must track every end of the graph, and no other."""
    d = trace.depth
    names, ends = sorted(trace.end_selectors), sorted(G.end_rays)
    if names != ends:
        raise InputError(f"trace tracks ends {names}, the graph has ends {ends}")
    if not names:
        return ConditionReport(True, "no tracked ends in trace")
    for name, sel in sorted(trace.end_selectors.items()):
        if len(sel) != d:
            raise InputError(f"end {name!r} has {len(sel)} selections, need {d}")
        for i in range(d - 1):
            fi, fn = sel[i], sel[i + 1]
            w_next = trace.witnesses[i + 1][fn]
            member_next, _, inside_next, _ = cuts[(i + 1, fn)]
            member_here, in_comp_here, inside_here, _ = cuts[(i, fi)]
            rep = min(w_next.piece)
            if not in_comp_here(rep):
                return ConditionReport(
                    False,
                    f"end {name!r}: component representative {rep} of "
                    f"iteration {i + 2} left the selected component",
                )
            core = sorted(w_next.included - w_next.excluded)
            stray = [v for v in core if not in_comp_here(v)]
            if stray:
                return ConditionReport(
                    False,
                    f"end {name!r}: M additions {stray[:4]} left the "
                    f"selected component of iteration {i + 1}",
                )
            blocked = [s for s in sorted(trace.blockers[i]) if member_next(s)]
            if blocked:
                return ConditionReport(
                    False,
                    f"end {name!r}: blocker vertices {blocked[:4]} of "
                    f"iteration {i + 1} survive in the next M set",
                )
            part = trace.witnesses[i][fi].part
            shield = sorted(neighborhood_k(G, part, 1) | part)
            touching = [v for v in shield if member_next(v)]
            if touching:
                return ConditionReport(
                    False,
                    f"end {name!r}: next M set reaches the separator "
                    f"neighbourhood at {touching[:4]}",
                )
            # a vertex of the next witness's piece or additions is in
            # M_{i+2} exactly when it is one of its known members; of
            # those, M_{i+1} is asked about the ones it does not know as
            # members, in ascending order, and walks for the ones in none
            # of its sets
            fresh = sorted(inside_next - inside_here)
            broken = [v for v in fresh if not member_here(v)]
            if broken:
                return ConditionReport(
                    False,
                    f"end {name!r}: nesting fails at {broken[:4]} between "
                    f"iterations {i + 1} and {i + 2}",
                )
    return ConditionReport(
        True, f"{len(trace.end_selectors)} ends nested through {d} iterations"
    )


def _edge_persistence(trace: SequenceTrace, life) -> ConditionReport:
    """Shared edges never disappear again."""
    failure = _persistence_failure(life)
    if failure is None:
        d = trace.depth
        return ConditionReport(True, f"checked {d * (d + 1) // 2} cycle pairs")
    i, j, lost = failure
    return ConditionReport(
        False, f"edges {lost[:4]} shared by cycles {i} and {j} missing from cycle {j + 1}"
    )


def _cut_agreement(trace: SequenceTrace, life, cuts: dict) -> ConditionReport:
    """Every later cycle crosses each frozen cut in the same two edges.

    The cut's edges on cycle p + 1 are the base; the crossing edges
    first change at the earliest join or leave after p + 1 among the
    cut's edges, which bisection finds in each lifetime."""
    checked = 0
    for (p, j), (*_, cut) in cuts.items():
        # each cut edge ever on a cycle, its lifetime, and how many of
        # its joins and leaves come by cycle p + 1
        on = [(e, ts, bisect(ts, p + 1)) for e in cut if (ts := life.get(e))]
        base = {e for e, _, k in on if k & 1}
        if len(base) != 2 or base != set(trace.witnesses[p][j].crossing_edges):
            return ConditionReport(
                False,
                f"triple (i={p + 1}, p={p + 1}, j={j}): constructing "
                f"cycle crosses its own cut in {sorted(base)}",
            )
        t = min((ts[k] for _, ts, k in on if k < len(ts)), default=None)
        if t is not None:
            later = {e for e, ts, _ in on if bisect(ts, t) & 1}
            return ConditionReport(
                False,
                f"triple (i={t}, p={p + 1}, j={j}): crossing "
                f"edges changed to {sorted(later)}",
            )
        checked += trace.depth - p - 1
    return ConditionReport(True, f"{checked} later-cycle agreements plus base cuts")


def verify_hc_extract(
    trace: SequenceTrace, G: LazyGraph | None = None
) -> HCExtractVerdict:
    """Check the five limit conditions on a stored trace.

    Runs entirely from the trace plus the graph oracles; nothing from
    the construction is consulted.  Infinite set relations are rendered
    finitely: component containments reduce to one representative plus
    disjointness from the finitely many relevant vertices, and every
    cut is materialized through :func:`_explicit_cut`.  Each M set and
    its component are asked through tests built from the witness's own
    sets, the blocker, K0 and the other pieces; they share one walk, for
    a vertex in none of them, which searches G - blocker once per
    closed-twin class of the vertices it is asked about
    (:func:`_witness_membership`).  The nesting check refuses a trace
    that does not track every end of the graph, and no other, as input.
    It asks M_i only about the known members of M_{i+1} that are not
    known members of M_i, so it walks only where the trace is silent.
    Edge persistence and cut agreement read each edge's lifetime off
    one pass over consecutive cycles (:func:`_cycle_lifetimes`); no
    cycle's edge set is built.  A step that splices runs of vertices off
    C_i into C_i, keeping its first vertex and its order, is read as
    those splices: C_{i+1}'s new pairs are exactly those that touch an
    inserted vertex, the lost pairs are the pairs each run was inserted
    between, and no vertex drops, as two vertices of C_i next to each
    other on C_{i+1} have no vertex of C_i between them.  Only another
    step builds the two cycles' successor maps.
    """
    G = _trace_graph(trace, G)
    d = trace.depth
    if d < 1:
        raise InputError("trace has no iterations to verify")

    life, dropped = _cycle_lifetimes(trace.cycles, G)
    # the blocker ids are known vertices once they passed, so coverage
    # runs only then; every cut is materialized after both, into one
    # (i, j) -> (M membership, component test, M's known members,
    # explicit cut) map
    failure = next(
        filter(None, (_blocker_failure(G, trace, i) for i in range(d))), None
    ) or _coverage_failure(G, trace)
    cuts = {}
    for i in range(d):
        for j, w in enumerate(trace.witnesses[i]):
            member, in_component, inside = _witness_membership(G, trace, i, j)
            cuts[(i, j)] = member, in_component, inside, _explicit_cut(G, w, member)
    return HCExtractVerdict(
        vertex_persistence=_vertex_persistence(trace, dropped),
        finite_cuts=_finite_cuts(trace, cuts, failure),
        nested_msets=_nested_msets(G, trace, cuts),
        edge_persistence=_edge_persistence(trace, life),
        cut_agreement=_cut_agreement(trace, life, cuts),
    )


def stable_limit(trace: SequenceTrace, window) -> frozenset[Edge]:
    """Edges inside ``window`` that have stabilized.

    An edge on two distinct cycles of the trace stays on every later
    cycle by edge persistence, which is re-checked here as a
    precondition, so these edges belong to the limit object.  The
    cycles an edge is on are counted off its lifetime, as the spans
    from each join to the next leave, or to the end of the trace.
    """
    wset = frozenset(window)
    life, _ = _cycle_lifetimes(trace.cycles)
    failure = _persistence_failure(life)
    if failure is not None:
        raise InvariantViolation(
            "edge persistence fails; trace is not limit-ready",
            cycles=failure[:2],
        )
    end = [len(trace.cycles)]
    return frozenset(
        e
        for e, ts in life.items()
        if e[0] in wset
        and e[1] in wset
        and sum(map(sub, ts[1::2] + end, ts[::2])) >= 2
    )
