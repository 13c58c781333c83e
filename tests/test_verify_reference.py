"""verify_hc_extract against a frozen copy of its single-function form.

The reference below is the verifier as it stood before its five
clauses became one function each: flag pairs, break chains and three
parallel dicts of memberships, component tests and cuts, and a
whole-cycle scan of every cycle.  Seeded mutations of a stored GZ2
trace, and reordered cycles of GZ2 and GZ3 traces, must give both the
same verdict JSON, or the same exception type and message.  The
helpers that build each cut's membership test and explicit cut are
frozen here too, as they stood then: K0 and the other pieces merged
into one copied set, every side of a cut asked afresh, and M's test a
callable object over the witness's corrections and the component
test."""

import json
import random
from collections import Counter

import pytest

from hamext.errors import InputError
from hamext.families import gen_G_inf
from hamext.graphcore import (
    BALL_RADIUS_MAX,
    Cycle,
    LazyGraph,
    canonical_edge,
    neighborhood_k,
    verify_cycle,
)
from hamext.infinite import hamilton_sequence
from hamext.trace import SequenceTrace
from hamext.verify import (
    ConditionReport,
    _blocker_failure,
    _coverage_failure,
    _trace_graph,
    verify_hc_extract,
)
from cycles import edge_set, first_persistence_failure
from records import rebuilt


def _component_membership(G, blocker, home, foreign):
    blocker = frozenset(blocker)
    home = frozenset(home)
    foreign = frozenset(foreign)
    cap = BALL_RADIUS_MAX

    def member(v):
        if v in blocker:
            return False
        if v in home:
            return True
        if v in foreign:
            return False
        seen = {v}
        ring = [v]
        for _ in range(cap):
            nxt = []
            for u in ring:
                for w in G.neighbors(u):
                    if w in blocker or w in seen:
                        continue
                    if w in home:
                        return True
                    if w in foreign:
                        return False
                    seen.add(w)
                    nxt.append(w)
            if not nxt:
                return False
            ring = sorted(nxt)
        raise InputError(
            f"component membership query for {v} exceeded the search cap {cap}"
        )

    return member


class _Membership:
    """Callable deciding v in M given a component membership test."""

    def __init__(self, included, excluded, in_component):
        self.included = included
        self.excluded = excluded
        self.in_component = in_component

    def __call__(self, v):
        if v in self.excluded:
            return False
        return v in self.included or self.in_component(v)


def _witness_membership(G, trace, i, j):
    w = trace.witnesses[i][j]
    foreign = set(trace.k0s[i])
    for jj, other in enumerate(trace.witnesses[i]):
        if jj != j:
            foreign |= other.piece
    in_component = _component_membership(G, trace.blockers[i], w.piece, foreign)
    return _Membership(w.included, w.excluded, in_component), in_component


def _explicit_cut(G, w, member):
    region = set(w.part) | set(w.included) | set(w.excluded)
    for v in sorted(set(region)):
        region |= set(G.neighbors(v))
    edges = set()
    for a in sorted(region):
        side = member(a)
        for b in G.neighbors(a):
            if side != member(b):
                edges.add(canonical_edge(a, b))
    return frozenset(edges)


def reference_verify(trace, G=None):
    G = _trace_graph(trace, G)
    d = trace.depth
    if d < 1:
        raise InputError("trace has no iterations to verify")

    for idx, C in enumerate(trace.cycles):
        report = verify_cycle(G, C)
        if not report.ok:
            raise InputError(f"trace cycle {idx} invalid: {report.reason}")

    a_ok, a_detail = True, ""
    total = set()
    for i in range(d):
        if not trace.cycles[i].vertex_set <= trace.cycles[i + 1].vertex_set:
            lost = sorted(
                trace.cycles[i].vertex_set - trace.cycles[i + 1].vertex_set
            )
            a_ok, a_detail = False, (
                f"vertices {lost[:6]} fell out of cycle {i + 1}"
            )
            break
        total |= trace.cycles[i + 1].vertex_set
    if a_ok:
        a_detail = (
            f"{len(total | trace.cycles[0].vertex_set)} vertices reached, "
            "monotone"
        )

    blocker_failure = None
    for i in range(d):
        blocker_failure = _blocker_failure(G, trace, i)
        if blocker_failure:
            break
    coverage_failure = None if blocker_failure else _coverage_failure(G, trace)
    b_ok, b_detail = True, ""
    cuts, members, component_tests = {}, {}, {}
    sizes = []
    for i in range(d):
        for j, w in enumerate(trace.witnesses[i]):
            member, in_component = _witness_membership(G, trace, i, j)
            members[(i, j)] = member
            component_tests[(i, j)] = in_component
            cut = _explicit_cut(G, w, member)
            cuts[(i, j)] = cut
            sizes.append(len(cut))
            if not set(w.crossing_edges) <= cut:
                b_ok, b_detail = False, (
                    f"stored crossing edges of iteration {i + 1} part {j} "
                    "are not boundary edges"
                )
    if b_ok:
        b_detail = f"all {len(sizes)} cuts explicit, sizes {sorted(set(sizes))}"
    if coverage_failure:
        b_ok, b_detail = False, coverage_failure
    if blocker_failure:
        b_ok, b_detail = False, blocker_failure

    c_ok, c_detail = True, ""
    if not trace.end_selectors:
        c_detail = "no tracked ends in trace"
    for name, sel in sorted(trace.end_selectors.items()):
        if not c_ok:
            break
        if len(sel) != d:
            raise InputError(f"end {name!r} has {len(sel)} selections, need {d}")
        for i in range(d - 1):
            fi, fn = sel[i], sel[i + 1]
            w_next = trace.witnesses[i + 1][fn]
            member_next = members[(i + 1, fn)]
            member_here = members[(i, fi)]
            in_comp_here = component_tests[(i, fi)]
            rep = min(w_next.piece)
            if not in_comp_here(rep):
                c_ok, c_detail = False, (
                    f"end {name!r}: component representative {rep} of "
                    f"iteration {i + 2} left the selected component"
                )
                break
            core = sorted(w_next.included - w_next.excluded)
            stray = [v for v in core if not in_comp_here(v)]
            if stray:
                c_ok, c_detail = False, (
                    f"end {name!r}: M additions {stray[:4]} left the "
                    f"selected component of iteration {i + 1}"
                )
                break
            blocked = [s for s in sorted(trace.blockers[i]) if member_next(s)]
            if blocked:
                c_ok, c_detail = False, (
                    f"end {name!r}: blocker vertices {blocked[:4]} of "
                    f"iteration {i + 1} survive in the next M set"
                )
                break
            shield = sorted(
                neighborhood_k(G, trace.witnesses[i][fi].part, 1)
                | trace.witnesses[i][fi].part
            )
            touching = [v for v in shield if member_next(v)]
            if touching:
                c_ok, c_detail = False, (
                    f"end {name!r}: next M set reaches the separator "
                    f"neighbourhood at {touching[:4]}"
                )
                break
            sample = sorted(w_next.piece | w_next.included)
            broken = [v for v in sample if member_next(v) and not member_here(v)]
            if broken:
                c_ok, c_detail = False, (
                    f"end {name!r}: nesting fails at {broken[:4]} between "
                    f"iterations {i + 1} and {i + 2}"
                )
                break
    if c_ok and trace.end_selectors:
        c_detail = (
            f"{len(trace.end_selectors)} ends nested through {d} iterations"
        )

    edge_sets = [edge_set(C) for C in trace.cycles]
    failure = first_persistence_failure(edge_sets)
    d_ok = failure is None
    if d_ok:
        d_detail = f"checked {d * (d + 1) // 2} cycle pairs"
    else:
        i_idx, j_idx, lost = failure
        d_detail = (
            f"edges {lost[:4]} shared by cycles {i_idx} and {j_idx} "
            f"missing from cycle {j_idx + 1}"
        )

    e_ok, e_detail = True, ""
    checked = 0
    for p in range(d):
        for j, w in enumerate(trace.witnesses[p]):
            cut = cuts[(p, j)]
            base = edge_sets[p + 1] & cut
            if len(base) != 2 or base != set(w.crossing_edges):
                e_ok, e_detail = False, (
                    f"triple (i={p + 1}, p={p + 1}, j={j}): constructing "
                    f"cycle crosses its own cut in {sorted(base)}"
                )
                break
            for i in range(p + 1, d):
                checked += 1
                later = edge_sets[i + 1] & cut
                if later != base:
                    e_ok, e_detail = False, (
                        f"triple (i={i + 1}, p={p + 1}, j={j}): crossing "
                        f"edges changed to {sorted(later)}"
                    )
                    break
            if not e_ok:
                break
        if not e_ok:
            break
    if e_ok:
        e_detail = f"{checked} later-cycle agreements plus base cuts"

    reports = (
        ConditionReport(a_ok, a_detail),
        ConditionReport(b_ok, b_detail),
        ConditionReport(c_ok, c_detail),
        ConditionReport(d_ok, d_detail),
        ConditionReport(e_ok, e_detail),
    )
    return {
        "all_ok": all(r.ok for r in reports),
        "vertex_persistence": reports[0].to_json_obj(),
        "finite_cuts": reports[1].to_json_obj(),
        "nested_msets": reports[2].to_json_obj(),
        "edge_persistence": reports[3].to_json_obj(),
        "cut_agreement": reports[4].to_json_obj(),
    }


# ---------------------------------------------------------------------------
# mutations


VALUES = (-1, 0, 1, 2, 5, 9, 12, 40, 10**6, [1, 2], [], "x", None, 4.0, True)


def _leaves(obj, path=()):
    """Paths of every list entry and dict value below ``obj``."""
    items = enumerate(obj) if isinstance(obj, list) else obj.items()
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (list, dict)):
            yield from _leaves(value, path + (key,))


def _mutate(obj, rng):
    """One seeded single-field change: a value replaced, a list entry
    dropped or an entry appended.  Fields are drawn by group (top-level
    key, or witness field) so the long cycle lists do not dominate."""
    groups = {}
    for path in _leaves(obj):
        key = path[3] if path[0] == "witnesses" and len(path) > 3 else path[0]
        groups.setdefault(key, []).append(path)
    path = rng.choice(groups[rng.choice(sorted(groups))])
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    op = rng.randrange(3)
    if op == 0 and isinstance(parent, list) and parent:
        del parent[last]
    elif op == 1 and isinstance(parent[last], list):
        parent[last].append(rng.choice(VALUES))
    else:
        parent[last] = rng.choice(VALUES)
    return path


def _outcome(verify, trace):
    try:
        return "verdict", verify(trace)
    except Exception as exc:  # the raised type and message are compared
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def gz2_depth3_obj():
    return json.loads(hamilton_sequence(gen_G_inf(2), 3).to_json())


def test_clause_functions_match_reference_on_mutations(gz2_depth3_obj):
    rng = random.Random(2024)
    text = json.dumps(gz2_depth3_obj)
    assert reference_verify(SequenceTrace.from_json(text)) == (
        verify_hc_extract(SequenceTrace.from_json(text)).to_json_obj()
    )
    seen = Counter()
    for _ in range(400):
        obj = json.loads(text)
        path = _mutate(obj, rng)
        try:
            trace = SequenceTrace.from_json_obj(obj)
        except InputError:
            seen["refused"] += 1
            continue
        want = _outcome(reference_verify, trace)
        got = _outcome(lambda t: verify_hc_extract(t).to_json_obj(), trace)
        assert got == want, path
        if want[0] != "verdict":
            seen[want[0]] += 1
        else:
            failed = [k for k, r in want[1].items() if k != "all_ok" and not r["ok"]]
            seen["all_ok" if not failed else "+".join(failed)] += 1
    # the mutations reach refusals, exceptions, passing traces and a
    # failing verdict in each of the clauses that read witnesses
    assert seen["refused"] and seen["InputError"] and seen["all_ok"]
    for clause in ("finite_cuts", "nested_msets", "cut_agreement"):
        assert any(clause in key for key in seen), seen


# ---------------------------------------------------------------------------
# reordered cycles: the verifier checks a pair of a cycle only when the
# previous cycle does not walk it in the same direction, which the
# single-field mutations above never exercise


def _reorderings(order, rng):
    n = len(order)
    k = rng.randrange(1, n)
    i = rng.randrange(n - 1)
    a, b = sorted(rng.sample(range(n), 2))
    swapped = list(order)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    yield "reverse", order[::-1]
    yield "rotate", order[k:] + order[:k]
    yield "swap", tuple(swapped)
    yield "segment", order[:a] + order[a : b + 1][::-1] + order[b + 1 :]


def _with_cycle(trace, idx, C):
    cycles = list(trace.cycles)
    cycles[idx] = C
    return rebuilt(trace, cycles=tuple(cycles))


def _recording(base, dropped=None):
    """``base`` behind a fresh cache, listing the vertices its neighbour
    oracle is asked for; ``dropped`` is a pair (u, v) whose v the oracle
    leaves out of u's neighbours."""
    asked = []

    def neighbors(u):
        asked.append(u)
        return tuple(w for w in base.neighbors(u) if (u, w) != dropped)

    return LazyGraph(neighbors, base.escapes, base.root, base.end_rays), asked


def _same_outcome(trace, base, dropped=None, label=None):
    """Both verifiers give the same outcome on ``trace``, asking the
    neighbour oracle the same vertices in the same order."""
    G, asked = _recording(base, dropped)
    want = _outcome(lambda t: reference_verify(t, G), trace)
    H, got_asked = _recording(base, dropped)
    got = _outcome(lambda t: verify_hc_extract(t, H).to_json_obj(), trace)
    assert got == want, label
    assert got_asked == asked, label
    return want


@pytest.mark.parametrize("n", [2, 3])
def test_reordered_cycles_match_reference(n):
    base = gen_G_inf(n)
    trace = hamilton_sequence(base, 3)
    rng = random.Random(n)
    cases = [
        (f"{name} cycle {idx}", _with_cycle(trace, idx, Cycle(order)))
        for _ in range(3)
        for idx, C in enumerate(trace.cycles)
        for name, order in _reorderings(C.order, rng)
    ]
    cases += [
        (f"cycle {i + 1} copies cycle {i}", _with_cycle(trace, i + 1, C))
        for i, C in enumerate(trace.cycles[:-1])
    ]
    seen = Counter()
    for label, bad in cases:
        kind, value = _same_outcome(bad, base, label=label)
        seen[kind if kind != "verdict" else value["all_ok"]] += 1
    # reversed and rotated cycles walk the same edges and verify; swaps
    # and reversed segments mostly break adjacency; a copied cycle misses
    # the blocker of its iteration
    assert seen[True] and seen[False] and seen["InputError"], seen


def test_one_way_oracle_matches_reference():
    # the last cycle reversed walks every edge of the cycle before it the
    # other way; an oracle that drops one direction of such an edge fails
    # exactly the cycles that walk it in that direction
    base = gen_G_inf(2)
    trace = hamilton_sequence(base, 3)
    k = trace.depth
    flipped = _with_cycle(trace, k, Cycle(trace.cycles[k].order[::-1]))
    before = trace.cycles[k - 1].order
    u, v = next(
        (u, v)
        for u, v in zip(before, before[1:] + before[:1])
        if trace.cycles[k].succ(u) == v
    )
    assert _same_outcome(trace, base, dropped=(v, u))[1]["all_ok"]
    want = f"trace cycle {k} invalid: consecutive cycle vertices {v}, {u} not adjacent"
    assert _same_outcome(flipped, base, dropped=(v, u)) == ("InputError", want)
    # dropped the other way, the first cycle that walks u, v fails
    first = next(i for i, C in enumerate(trace.cycles) if u in C and C.succ(u) == v)
    kind, message = _same_outcome(flipped, base, dropped=(u, v))
    assert (kind, message.split(":")[0]) == ("InputError", f"trace cycle {first} invalid")


# ---------------------------------------------------------------------------
# the nesting check's refusal of a blocker vertex in the next M set


def test_blocker_vertex_in_next_m_set_matches_reference(gz2_depth3_obj):
    base = gen_G_inf(2)
    left = gz2_depth3_obj["end_selectors"]["left"]
    blocker = gz2_depth3_obj["blockers"][1]
    piece = gz2_depth3_obj["witnesses"][2][left[2]]["piece"]
    # GZ2's vertex ids grow away from fiber 0, so the blocker of
    # iteration 2 lies in K0 of iteration 3, below every vertex of the
    # next piece: moved from K0 into that piece, one of its vertices
    # becomes the piece's representative, which the component test
    # refuses before the blocker is looked at
    assert set(blocker) <= set(gz2_depth3_obj["k0s"][2])
    assert max(blocker) < min(piece)
    moved = json.loads(json.dumps(gz2_depth3_obj))
    s = blocker[-1]
    moved["k0s"][2].remove(s)
    moved["witnesses"][2][left[2]]["piece"].append(s)
    kind, verdict = _same_outcome(SequenceTrace.from_json_obj(moved), base)
    assert verdict["nested_msets"]["detail"] == (
        f"end 'left': component representative {s} of iteration 3 left "
        "the selected component"
    )
    # a vertex of the next piece above its minimum, added to the
    # blocker, is in the next M set and keeps the representative
    grown = json.loads(json.dumps(gz2_depth3_obj))
    s = max(piece)
    grown["blockers"][1].append(s)
    kind, verdict = _same_outcome(SequenceTrace.from_json_obj(grown), base)
    assert (kind, verdict["all_ok"]) == ("verdict", False)
    assert verdict["nested_msets"]["detail"] == (
        f"end 'left': blocker vertices [{s}] of iteration 2 survive in the "
        "next M set"
    )
    assert verdict["finite_cuts"]["detail"] == (
        f"blocker vertex {s} of iteration 2 is removable"
    )
