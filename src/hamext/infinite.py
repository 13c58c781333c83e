"""Cycle enlargement across a separator and the infinite driver.

Given a cycle C of an infinite graph and a decomposition of a minimal
ray blocker around it, construct_cut1 produces a strictly larger cycle
C' together with one cut certificate per infinite component.  The
driver iterates this, and the resulting trace carries everything an
independent checker needs: the cycles, the blockers, the membership
data of each M set, and the two tracked ends of the shipped families.

The construction follows five stages:

  A  absorb the finite component completely,
  B  thread a path through each infinite component's separator,
  C  absorb the connector trees while each cut stays crossed twice,
  D  absorb leftover separator vertices, maintaining the M sets,
  E  check the three output clauses and freeze the certificates.

Everything works inside one finite ball; frontier contamination is an
error, never silently tolerated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .conditions import check_star_ball
from .errors import FrontierContamination, InputError, InvariantViolation
from .extension import (
    Extension,
    apply_extension,
    find_extension,
    find_initial_cycle,
    saturate,
)
from .graphcore import (
    Cycle,
    Edge,
    FiniteGraph,
    LazyGraph,
    ball,
    canonical_edge,
    cycle_from_json_obj,
    cycle_to_json_obj,
    distances_from,
    neighborhood_k,
    verify_cycle,
)
from .structure import SeparatorDecomposition, decompose, minimal_ray_blocker


# ---------------------------------------------------------------------------
# cycle surgery


def replace_arc(C: Cycle, arc: tuple[int, ...], new_arc: tuple[int, ...]) -> Cycle:
    """Replace a consecutive arc of C (either direction) by a new path
    with the same endpoints whose interior avoids the cycle."""
    if len(arc) < 2 or len(new_arc) < 2:
        raise InputError("arcs need at least two vertices")
    if arc[0] != new_arc[0] or arc[-1] != new_arc[-1]:
        raise InputError("replacement arc must keep its endpoints")
    order = C.order
    n = len(order)
    i = order.index(arc[0]) if arc[0] in C else -1
    if i < 0:
        raise InputError(f"{arc[0]} is not on the cycle")
    forward = tuple(order[(i + t) % n] for t in range(len(arc)))
    if forward != arc:
        backward = tuple(order[(i - t) % n] for t in range(len(arc)))
        if backward != arc:
            raise InputError("arc is not consecutive on the cycle")
        order = tuple(reversed(order))
        i = order.index(arc[0])
    rotated = order[i:] + order[:i]
    interior = set(new_arc[1:-1])
    if interior & set(rotated):
        raise InputError("replacement interior collides with the cycle")
    if len(interior) != len(new_arc) - 2:
        raise InputError("replacement interior repeats a vertex")
    return Cycle(tuple(new_arc) + rotated[len(arc):])


def remove_cycle_vertex(C: Cycle, h: int) -> Cycle:
    """Shortcut h out of the cycle, joining its two neighbours."""
    if h not in C:
        raise InputError(f"{h} is not on the cycle")
    if len(C) < 4:
        raise InputError("cannot shorten a triangle")
    return Cycle(tuple(v for v in C.order if v != h))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CutWitness:
    """Membership description of one M set and its two crossing edges.

    The set itself is (K_j with ``included`` added) minus ``excluded``;
    ``piece`` records the ball-restricted part of K_j at the time the
    witness was frozen, and part is the separator S_j.  Indices j are
    0-based.
    """

    j: int
    part: frozenset[int]
    piece: frozenset[int]
    included: frozenset[int]
    excluded: frozenset[int]
    crossing_edges: tuple[Edge, ...]

    def membership(self, in_component) -> "_Membership":
        return _Membership(self.included, self.excluded, in_component)

    def to_json_obj(self) -> dict:
        return {
            "j": self.j,
            "part": sorted(self.part),
            "piece": sorted(self.piece),
            "included": sorted(self.included),
            "excluded": sorted(self.excluded),
            "crossing_edges": [list(e) for e in self.crossing_edges],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "CutWitness":
        try:
            return CutWitness(
                j=int(obj["j"]),
                part=frozenset(obj["part"]),
                piece=frozenset(obj["piece"]),
                included=frozenset(obj["included"]),
                excluded=frozenset(obj["excluded"]),
                crossing_edges=tuple(
                    canonical_edge(*e) for e in obj["crossing_edges"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed cut witness: {exc}") from None


class _Membership:
    """Callable deciding v in M given a component membership test."""

    def __init__(self, included, excluded, in_component) -> None:
        self.included = included
        self.excluded = excluded
        self.in_component = in_component

    def __call__(self, v: int) -> bool:
        if v in self.excluded:
            return False
        return v in self.included or self.in_component(v)


@dataclass(frozen=True)
class SequenceTrace:
    """Everything the checker needs about one constructed sequence.

    cycles has depth+1 entries; blockers, ks, k0s and witnesses have
    one entry per iteration.  end_selectors maps an end name to the
    0-based component index it selects at each iteration.
    """

    descriptor: dict | None
    cycles: tuple[Cycle, ...]
    blockers: tuple[frozenset[int], ...]
    ks: tuple[int, ...]
    k0s: tuple[frozenset[int], ...]
    witnesses: tuple[tuple[CutWitness, ...], ...]
    end_selectors: dict[str, tuple[int, ...]]

    @property
    def depth(self) -> int:
        return len(self.blockers)

    def to_json_obj(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "depth": self.depth,
            "cycles": [cycle_to_json_obj(c) for c in self.cycles],
            "blockers": [sorted(b) for b in self.blockers],
            "ks": list(self.ks),
            "k0s": [sorted(p) for p in self.k0s],
            "witnesses": [
                [w.to_json_obj() for w in per_i] for per_i in self.witnesses
            ],
            "end_selectors": {
                name: list(sel) for name, sel in sorted(self.end_selectors.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=1)

    @staticmethod
    def from_json_obj(obj: dict) -> "SequenceTrace":
        try:
            trace = SequenceTrace(
                descriptor=obj["descriptor"],
                cycles=tuple(cycle_from_json_obj(c) for c in obj["cycles"]),
                blockers=tuple(frozenset(b) for b in obj["blockers"]),
                ks=tuple(int(k) for k in obj["ks"]),
                k0s=tuple(frozenset(p) for p in obj["k0s"]),
                witnesses=tuple(
                    tuple(CutWitness.from_json_obj(w) for w in per_i)
                    for per_i in obj["witnesses"]
                ),
                end_selectors={
                    name: tuple(int(x) for x in sel)
                    for name, sel in obj["end_selectors"].items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed trace: {exc}") from None
        if len(trace.cycles) != trace.depth + 1:
            raise InputError("trace cycle count does not match depth")
        if not (len(trace.ks) == len(trace.k0s) == len(trace.witnesses) == trace.depth):
            raise InputError("trace iteration data lengths disagree")
        return trace

    @staticmethod
    def from_json(text: str) -> "SequenceTrace":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"trace is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise InputError("trace JSON must be an object")
        return SequenceTrace.from_json_obj(obj)


# ---------------------------------------------------------------------------
# Steiner trees


@dataclass(frozen=True)
class SteinerTree:
    vertices: frozenset[int]
    edges: frozenset[Edge]

    def path(self, a: int, b: int) -> tuple[int, ...]:
        """The unique a-b path along tree edges."""
        if a not in self.vertices or b not in self.vertices:
            raise InputError("path endpoints must be tree vertices")
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        parent = {a: a}
        ring = [a]
        while ring and b not in parent:
            nxt = []
            for u in ring:
                for w in sorted(adj[u]):
                    if w not in parent:
                        parent[w] = u
                        nxt.append(w)
            ring = nxt
        if b not in parent:
            raise InvariantViolation("tree is not connected", a=a, b=b)
        out = [b]
        while out[-1] != a:
            out.append(parent[out[-1]])
        return tuple(reversed(out))


def steiner_tree_T(G: LazyGraph, S_j, K_j) -> SteinerTree:
    """Finite tree inside the component K_j covering N_3(S_j) there.

    Required vertices are joined one at a time by shortest paths that
    stay inside the component; connectivity of the component guarantees
    termination.
    """
    required = set()
    layer = set(S_j)
    seen = set(S_j)
    for _ in range(3):
        nxt = set()
        for u in sorted(layer):
            for w in G.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        required |= {w for w in nxt if w in K_j}
        layer = nxt
    if not required:
        raise InvariantViolation(
            "separator has no third neighbourhood inside its component",
            part=sorted(S_j),
        )
    todo = sorted(required)
    tree_vertices = {todo[0]}
    tree_edges: set[Edge] = set()
    for goal in todo[1:]:
        if goal in tree_vertices:
            continue
        parent: dict[int, int] = {v: v for v in tree_vertices}
        ring = sorted(tree_vertices)
        found = goal in parent
        while not found:
            nxt = []
            for u in ring:
                for w in G.neighbors(u):
                    if w in parent or w not in K_j:
                        continue
                    parent[w] = u
                    nxt.append(w)
                    if w == goal:
                        found = True
            if found:
                break
            if not nxt:
                raise InvariantViolation(
                    "required vertex unreachable inside its component",
                    goal=goal,
                )
            ring = sorted(nxt)
        v = goal
        while v not in tree_vertices:
            tree_vertices.add(v)
            u = parent[v]
            tree_edges.add(canonical_edge(u, v))
            v = u
    return SteinerTree(frozenset(tree_vertices), frozenset(tree_edges))


# ---------------------------------------------------------------------------
# the enlargement construction


class _MState:
    """Mutable membership state of one M set during construction."""

    def __init__(self, piece: frozenset[int], part: frozenset[int]) -> None:
        self.piece = piece
        self.part = part
        self.included = set(part)
        self.excluded: set[int] = set()

    def __contains__(self, v: int) -> bool:
        if v in self.excluded:
            return False
        return v in self.included or v in self.piece

    def add(self, vs) -> None:
        self.included |= set(vs)
        self.excluded -= set(vs)

    def discard(self, vs) -> None:
        self.excluded |= set(vs)
        self.included -= set(vs)


class _CutBuilder:
    def __init__(self, G: LazyGraph, C: Cycle, decomp: SeparatorDecomposition):
        self.G = G
        self.C = C
        self.decomp = decomp
        self.B = decomp.ball
        self.K0 = decomp.finite_component
        self.parts = decomp.parts
        self.pieces = tuple(h.piece for h in decomp.infinite_components)
        self.script_S = decomp.script_S
        self.k = decomp.k
        self.trees = tuple(
            steiner_tree_T(G, self.parts[j], decomp.infinite_components[j])
            for j in range(self.k)
        )
        self.msets = [
            _MState(self.pieces[j], self.parts[j]) for j in range(self.k)
        ]
        self.paths: list[tuple[int, ...] | None] = [None] * self.k

    # -- shared helpers ----------------------------------------------------

    def guarded_neighbors(self, v: int) -> tuple[int, ...]:
        if v in self.B.frontier:
            raise FrontierContamination(
                f"construction touched frontier vertex {v}"
            )
        return self.B.neighbors(v)

    def part_index(self, v: int) -> int | None:
        for j, part in enumerate(self.parts):
            if v in part:
                return j
        return None

    def piece_index(self, v: int) -> int | None:
        for j, piece in enumerate(self.pieces):
            if v in piece:
                return j
        return None

    def absorb(self, C: Cycle, v: int) -> tuple[Cycle, Extension]:
        e = find_extension(self.B, C, v)
        return apply_extension(C, e), e

    def cycle_cut_edges(self, C: Cycle, member) -> list[Edge]:
        return [e for e in C.edges() if member(e[0]) != member(e[1])]

    def check_cut_twice(self, C: Cycle, member, label: str, j: int) -> list[Edge]:
        crossing = self.cycle_cut_edges(C, member)
        if len(crossing) != 2:
            raise InvariantViolation(
                f"{label} crossed {len(crossing)} times, expected 2",
                j=j,
                crossing=sorted(crossing),
                cycle=C.order,
            )
        return crossing

    # -- stage A: fill the finite component --------------------------------

    def stage_fill_finite(self) -> Cycle:
        cur = self.C
        while True:
            on = cur.vertex_set
            targets = sorted(
                v
                for u in cur.order
                for v in self.guarded_neighbors(u)
                if v in self.K0 and v not in on
            )
            if not targets:
                break
            v = targets[0]
            e = find_extension(self.B, cur, v)
            if e.kind == "II" and e.x not in self.K0:
                # the helper vertex sits in the separator, so complete
                # attachment makes v and the anchor's successor adjacent
                # and a one-vertex rewiring does the job
                if not self.B.adjacent(v, cur.succ(e.u)):
                    raise InvariantViolation(
                        "separator-escaping absorption without the "
                        "complete-attachment fallback",
                        target=v,
                        helper=e.x,
                    )
                e = Extension("I", v, e.u)
            cur = apply_extension(cur, e)
            gained = set(e.new_vertices())
            if not gained <= self.K0:
                raise InvariantViolation(
                    "finite-component fill left the component",
                    gained=sorted(gained - self.K0),
                )
        if cur.vertex_set != self.K0:
            raise InvariantViolation(
                "finite component not exhausted",
                missing=sorted(self.K0 - cur.vertex_set),
            )
        return cur

    # -- stage B: thread one path per infinite component -------------------

    def forced_two_step_absorb(
        self, D: Cycle, s1: int, j: int
    ) -> tuple[Cycle, tuple[int, ...]]:
        """Absorb a component vertex next to s1; the second separator
        vertex comes in for free and closes the path."""
        inside = sorted(
            w for w in self.guarded_neighbors(s1) if w in self.pieces[j]
        )
        if not inside:
            raise InvariantViolation(
                f"separator vertex {s1} sees nothing in its component", j=j
            )
        a = inside[0]
        e = find_extension(self.B, D, a)
        if e.kind != "II" or e.u != s1:
            raise InvariantViolation(
                "component absorption was not the forced two-vertex kind",
                extension=e.to_json_obj(),
                j=j,
            )
        s2 = e.x
        if s2 not in self.parts[j]:
            raise InvariantViolation(
                f"second endpoint {s2} is not in the expected separator part",
                j=j,
            )
        return apply_extension(D, e), (s1, a, s2)

    def thread_part(self, cur: Cycle, j: int) -> Cycle:
        s1 = min(self.parts[j])
        e = find_extension(self.B, cur, s1)
        if e.kind in ("I", "III"):
            D = apply_extension(cur, e)
            cur, path = self.forced_two_step_absorb(D, s1, j)
            self.paths[j] = path
            return cur

        # the two-vertex absorption pulled in a helper x, necessarily a
        # separator vertex of some part
        y = e.u
        z = cur.succ(y)
        x = e.x
        D = apply_extension(cur, e)
        ell = self.part_index(x)
        if ell is None:
            raise InvariantViolation(
                f"helper vertex {x} is not a separator vertex",
                target=s1,
                j=j,
            )

        if ell == j:
            a = min(
                w for w in self.guarded_neighbors(s1) if w in self.pieces[j]
            )
            b = min(
                w for w in self.guarded_neighbors(x) if w in self.pieces[j]
            )
            through = self.trees[j].path(a, b)
            new_arc = (s1, *through, x)
            cur = replace_arc(D, (s1, x), new_arc)
            self.paths[j] = new_arc
            return cur

        if z in self.parts[ell]:
            if ell >= j:
                raise InvariantViolation(
                    "helper part was not processed yet", ell=ell, j=j
                )
            old_path = self.paths[ell]
            if old_path is None or len(old_path) < 3:
                raise InvariantViolation(
                    "stored path through the component is degenerate",
                    ell=ell,
                )
            if z not in (old_path[0], old_path[-1]):
                raise InvariantViolation(
                    f"{z} is not an endpoint of the stored path", ell=ell
                )
            oriented = old_path if old_path[-1] == z else tuple(reversed(old_path))
            s_other = oriented[0]
            a2 = min(
                w for w in self.guarded_neighbors(s_other) if w in self.pieces[ell]
            )
            b2 = min(
                w for w in self.guarded_neighbors(x) if w in self.pieces[ell]
            )
            through = self.trees[ell].path(a2, b2)
            new_arc = (s_other, *through, x)
            D2 = replace_arc(D, oriented + (x,), new_arc)
            self.paths[ell] = new_arc
            cur, path = self.forced_two_step_absorb(D2, s1, j)
            self.paths[j] = path
            return cur

        # remaining situation: the helper belongs to a foreign part and
        # the displaced edge endpoint z is no separator vertex of it
        if z not in self.pieces[ell]:
            if not self.B.adjacent(s1, z):
                raise InvariantViolation(
                    "complete attachment missing between target and successor",
                    s1=s1,
                    z=z,
                )
            D3 = apply_extension(cur, Extension("I", s1, y))
        else:
            if y not in self.parts[ell]:
                raise InvariantViolation(
                    f"cycle vertex {y} next to the component is not in its "
                    "separator",
                    ell=ell,
                )
            w = cur.pred(y)
            if w in self.pieces[ell] or w in self.parts[ell]:
                raise InvariantViolation(
                    "both cycle neighbours lean into the same component",
                    w=w,
                    ell=ell,
                )
            if not self.B.adjacent(s1, w):
                raise InvariantViolation(
                    "complete attachment missing between target and "
                    "predecessor",
                    s1=s1,
                    w=w,
                )
            D3 = apply_extension(cur, Extension("I", s1, w))
        cur, path = self.forced_two_step_absorb(D3, s1, j)
        self.paths[j] = path
        return cur

    def check_threading_invariants(self, cur: Cycle, upto: int) -> None:
        on = cur.vertex_set
        cycle_edges = cur.edge_set
        for ell in range(upto + 1):
            path = self.paths[ell]
            if path is None:
                raise InvariantViolation("missing path", ell=ell)
            for a, b in zip(path, path[1:]):
                if canonical_edge(a, b) not in cycle_edges:
                    raise InvariantViolation(
                        "stored path edge left the cycle",
                        ell=ell,
                        edge=canonical_edge(a, b),
                    )
            seen_sep = sorted(on & self.parts[ell])
            if len(seen_sep) != 2:
                raise InvariantViolation(
                    f"cycle holds {len(seen_sep)} vertices of part {ell}, "
                    "expected 2",
                    vertices=seen_sep,
                )
            if set(seen_sep) != {path[0], path[-1]}:
                raise InvariantViolation(
                    "path endpoints disagree with separator vertices on cycle",
                    ell=ell,
                )
            interior = set(path[1:-1])
            if not interior:
                raise InvariantViolation("path has empty interior", ell=ell)
            if not interior <= self.pieces[ell]:
                raise InvariantViolation(
                    "path interior left its component", ell=ell
                )
        for later in range(upto + 1, self.k):
            spill = on & (self.parts[later] | self.pieces[later])
            if spill:
                raise InvariantViolation(
                    "cycle entered an unprocessed part",
                    later=later,
                    vertices=sorted(spill),
                )

    # -- stage C: absorb the trees, cuts stay tight ------------------------

    def stage_absorb_trees(self, cur: Cycle) -> Cycle:
        wanted = set()
        for tree in self.trees:
            wanted |= tree.vertices
        while True:
            on = cur.vertex_set
            missing = wanted - on
            if not missing:
                return cur
            targets = sorted(
                v
                for u in cur.order
                for v in self.guarded_neighbors(u)
                if v in missing
            )
            if not targets:
                raise InvariantViolation(
                    "tree vertices unreachable as extension targets",
                    missing=sorted(missing),
                )
            cur, _ = self.absorb(cur, targets[0])
            for j in range(self.k):
                region = self.parts[j] | self.pieces[j]
                self.check_cut_twice(
                    cur,
                    lambda v, region=region: v in region,
                    "separator-plus-component cut",
                    j,
                )

    # -- stage D: mop up the separator, maintaining the M sets -------------

    def consecutive_pair(self, cur: Cycle, nbrs: set[int]) -> tuple[int, int] | None:
        for a in cur.order:
            if a in nbrs and cur.succ(a) in nbrs:
                return a, cur.succ(a)
        return None

    def update_msets(self, w1: int, w2: int, gained: tuple[int, ...]) -> None:
        for m in self.msets:
            if w1 in m or w2 in m:
                m.add(gained)
            else:
                m.discard(gained)

    def stage_absorb_separator(self, cur: Cycle) -> Cycle:
        for j, m in enumerate(self.msets):
            self.check_cut_twice(cur, m.__contains__, "initial M cut", j)
        rounds = 0
        while True:
            leftovers = sorted(self.script_S - cur.vertex_set)
            if not leftovers:
                return cur
            rounds += 1
            if rounds > len(self.script_S) + 1:
                raise InvariantViolation(
                    "separator absorption failed to terminate",
                    leftovers=leftovers,
                )
            u = leftovers[0]
            nbrs_on = {
                w for w in self.guarded_neighbors(u) if w in cur.vertex_set
            }
            pair = self.consecutive_pair(cur, nbrs_on)
            if pair is not None:
                w1, w2 = pair
                cur = apply_extension(cur, Extension("I", u, w1))
                self.update_msets(w1, w2, (u,))
            else:
                cur = self.absorb_isolated_separator_vertex(cur, u, nbrs_on)
            for j, m in enumerate(self.msets):
                self.check_cut_twice(cur, m.__contains__, "M cut", j)

    def absorb_isolated_separator_vertex(
        self, cur: Cycle, u: int, nbrs_on: set[int]
    ) -> Cycle:
        """No two cycle neighbours of u are consecutive: shortcut all but
        the smallest, force the two-vertex absorption there, then redo
        the shortcuts on the real cycle."""
        if not nbrs_on:
            raise InvariantViolation(
                f"separator vertex {u} has no neighbour on the cycle"
            )
        w1 = min(nbrs_on)
        aux = cur
        for w in sorted(nbrs_on - {w1}):
            wp, wm = aux.succ(w), aux.pred(w)
            if not self.B.adjacent(wp, wm):
                raise InvariantViolation(
                    "claw-freeness did not close the shortcut",
                    around=w,
                    pair=(wm, wp),
                )
            aux = remove_cycle_vertex(aux, w)
        e = find_extension(self.B, aux, u)
        if e.kind != "II" or e.u != w1:
            raise InvariantViolation(
                "isolated separator vertex was not absorbed by the forced "
                "two-vertex kind",
                extension=e.to_json_obj(),
            )
        w2 = aux.succ(w1)
        h = e.x
        if h not in cur.vertex_set:
            if h not in self.script_S:
                raise InvariantViolation(
                    f"fresh helper {h} is not a separator vertex", u=u
                )
            cur = apply_extension(cur, Extension("II", u, w1, x=h))
        else:
            hp, hm = cur.succ(h), cur.pred(h)
            if not self.B.adjacent(hp, hm):
                raise InvariantViolation(
                    "claw-freeness did not close the relocation shortcut",
                    around=h,
                )
            cur = remove_cycle_vertex(cur, h)
            cur = replace_arc(cur, (w1, w2), (w1, u, h, w2))
        self.update_msets(w1, w2, (u, h))
        return cur

    # -- stage E: output clauses -------------------------------------------

    def check_output_clauses(self, cur: Cycle) -> tuple[CutWitness, ...]:
        n3 = neighborhood_k(self.B, self.script_S, 3)
        contaminated = (n3 | self.script_S) & self.B.frontier
        if contaminated:
            raise FrontierContamination(
                f"third neighbourhood reaches the frontier: "
                f"{sorted(contaminated)[:6]}"
            )
        needed = self.K0 | self.script_S | n3
        missing = needed - cur.vertex_set
        if missing:
            raise InvariantViolation(
                "coverage clause failed",
                missing=sorted(missing),
            )

        witnesses = []
        for j, m in enumerate(self.msets):
            n_sj = neighborhood_k(self.B, self.parts[j], 1)
            bad_excluded = m.excluded & (self.pieces[j] - n_sj)
            if bad_excluded:
                raise InvariantViolation(
                    "M set lost deep component vertices",
                    j=j,
                    vertices=sorted(bad_excluded),
                )
            n_script = neighborhood_k(self.B, self.script_S, 1)
            stray = {
                v
                for v in m.included
                if v not in self.pieces[j]
                and v not in self.script_S
                and v not in n_script
            }
            if stray:
                raise InvariantViolation(
                    "M set contains vertices far from the separator",
                    j=j,
                    vertices=sorted(stray),
                )
            crossing = self.check_cut_twice(cur, m.__contains__, "final M cut", j)
            witnesses.append(
                CutWitness(
                    j=j,
                    part=self.parts[j],
                    piece=self.pieces[j],
                    included=frozenset(m.included),
                    excluded=frozenset(m.excluded),
                    crossing_edges=tuple(sorted(crossing)),
                )
            )

        nc = neighborhood_k(self.B, self.C.vertex_set, 1)
        nnc = nc | neighborhood_k(self.B, nc, 1)
        protected = {
            v for v in self.C.order if v not in nnc
        }
        cur_edges = cur.edge_set
        for a, b in self.C.edges():
            if a in protected and b in protected and canonical_edge(a, b) not in cur_edges:
                raise InvariantViolation(
                    "protected cycle edge vanished",
                    edge=canonical_edge(a, b),
                )
        n2_nc = nc | neighborhood_k(self.B, nc, 2)
        old_vertices = self.C.vertex_set
        for a, b in sorted(cur_edges - self.C.edge_set):
            for end in (a, b):
                if end in old_vertices and end not in n2_nc:
                    raise InvariantViolation(
                        "new edge lands on a protected old vertex",
                        edge=(a, b),
                        end=end,
                    )
        return tuple(witnesses)


def construct_cut1(
    G: LazyGraph, C: Cycle, decomp: SeparatorDecomposition
) -> tuple[Cycle, tuple[CutWitness, ...]]:
    """Enlarge C past its blocker and certify the crossing structure.

    Returns the new cycle and one CutWitness per infinite component;
    all three output clauses are checked before returning.
    """
    B = decomp.ball
    nc = neighborhood_k(B, C.vertex_set, 1)
    nnc = nc | neighborhood_k(B, nc, 1)
    if not (C.vertex_set - nnc):
        raise InputError(
            "every cycle vertex touches the cycle's second neighbourhood"
        )
    builder = _CutBuilder(G, C, decomp)
    cur = builder.stage_fill_finite()
    for j in range(decomp.k):
        cur = builder.thread_part(cur, j)
        builder.check_threading_invariants(cur, j)
    cur = builder.stage_absorb_trees(cur)
    cur = builder.stage_absorb_separator(cur)
    witnesses = builder.check_output_clauses(cur)
    return cur, witnesses


# ---------------------------------------------------------------------------
# the driver


def _initial_cycle(G: LazyGraph) -> Cycle:
    B = ball(G, G.root, 3)
    interior = B.induced(sorted(B.vertex_set - B.frontier))
    try:
        return find_initial_cycle(interior)
    except InputError:
        raise InvariantViolation(
            "initial cycle not found near the root"
        ) from None


def _saturate_initial(G: LazyGraph, seed: Cycle) -> Cycle:
    radius = 4
    while True:
        B = ball(G, seed.vertex_set, radius)
        fixed = {
            v
            for u in seed.order
            for v in B.neighbors(u)
            if v not in seed.vertex_set
        }
        C0 = saturate(B, seed, target_filter=fixed.__contains__)
        reach = C0.vertex_set | neighborhood_k(B, C0.vertex_set, 2)
        if not reach & B.frontier:
            nc = neighborhood_k(B, C0.vertex_set, 1)
            nnc = nc | neighborhood_k(B, nc, 1)
            if not seed.vertex_set <= C0.vertex_set - nnc:
                raise InvariantViolation(
                    "saturation left the seed exposed",
                    seed=seed.order,
                )
            return C0
        radius += 2


def _select_end(
    G: LazyGraph, name: str, decomp: SeparatorDecomposition
) -> int:
    ray = G.end_rays[name]
    B = decomp.ball
    t = 0
    last = None
    cap = len(B.vertices) + 1
    while t <= cap:
        v = ray(t)
        if v not in B.vertex_set:
            break
        last = v
        t += 1
    if last is None:
        raise InvariantViolation(f"ray {name!r} never enters the ball")
    for j, handle in enumerate(decomp.infinite_components):
        if last in handle.piece:
            return j
    raise InvariantViolation(
        f"ray {name!r} representative {last} sits outside every component"
    )


def hamilton_sequence(G: LazyGraph, depth: int) -> SequenceTrace:
    """Run the full construction for ``depth`` iterations.

    Each iteration certifies the degree condition on its working ball,
    blocks the current cycle, decomposes, and enlarges.  The trace is
    deterministic for identical inputs.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if not G.escapes(frozenset(), G.root):
        raise InputError("graph not infinite")

    seed = _initial_cycle(G)
    C = _saturate_initial(G, seed)
    cycles = [C]
    blockers: list[frozenset[int]] = []
    ks: list[int] = []
    k0s: list[frozenset[int]] = []
    witnesses: list[tuple[CutWitness, ...]] = []
    selectors: dict[str, list[int]] = {name: [] for name in sorted(G.end_rays)}

    for _ in range(depth):
        nc = {w for u in C.order for w in G.neighbors(u)} - C.vertex_set
        nnc = nc | {
            w for u in sorted(nc) for w in G.neighbors(u)
        }
        if not (C.vertex_set - nnc):
            raise InvariantViolation(
                "cycle has no protected vertex; enlargement hypothesis broken"
            )
        blocker = minimal_ray_blocker(G, C)
        decomp = decompose(G, C.vertex_set, blocker, extra_radius=6)
        dist = distances_from(decomp.ball, C.vertex_set)
        blocker_depth = max(dist[s] for s in blocker)
        star = check_star_ball(G, C.vertex_set, blocker_depth + 5)
        if not star.holds:
            raise InputError(
                f"local degree condition fails near the cycle at "
                f"{star.witness}"
            )
        C2, wits = construct_cut1(G, C, decomp)
        if not C.vertex_set <= C2.vertex_set:
            raise InvariantViolation("enlargement dropped cycle vertices")
        for name in selectors:
            selectors[name].append(_select_end(G, name, decomp))
        cycles.append(C2)
        blockers.append(blocker)
        ks.append(decomp.k)
        k0s.append(decomp.finite_component)
        witnesses.append(wits)
        C = C2

    return SequenceTrace(
        descriptor=getattr(G, "descriptor", None),
        cycles=tuple(cycles),
        blockers=tuple(blockers),
        ks=tuple(ks),
        k0s=tuple(k0s),
        witnesses=tuple(witnesses),
        end_selectors={k: tuple(v) for k, v in selectors.items()},
    )


# ---------------------------------------------------------------------------
# verification, independent of the construction

_RESOLVER_RING_CAP = 64


def _component_resolver(G: LazyGraph, blocker, home, foreign):
    """Membership test for the component of G - blocker that meets
    ``home``, deciding by bounded search toward known territory."""
    blocker = frozenset(blocker)
    home = frozenset(home)
    foreign = frozenset(foreign)

    def member(v: int) -> bool:
        if v in blocker:
            return False
        if v in home:
            return True
        if v in foreign:
            return False
        seen = {v}
        ring = [v]
        for _ in range(_RESOLVER_RING_CAP):
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
            f"component membership query for {v} exceeded the search cap"
        )

    return member


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    detail: str

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class HCExtractVerdict:
    """One report per limit condition; names follow the checker order:
    vertex persistence, finite cuts, nested M sets per end, edge
    persistence, and cut agreement across iterations."""

    vertex_persistence: ConditionReport
    finite_cuts: ConditionReport
    nested_msets: ConditionReport
    edge_persistence: ConditionReport
    cut_agreement: ConditionReport

    @property
    def all_ok(self) -> bool:
        return all(
            r.ok
            for r in (
                self.vertex_persistence,
                self.finite_cuts,
                self.nested_msets,
                self.edge_persistence,
                self.cut_agreement,
            )
        )

    def to_json_obj(self) -> dict:
        return {
            "all_ok": self.all_ok,
            "vertex_persistence": self.vertex_persistence.to_json_obj(),
            "finite_cuts": self.finite_cuts.to_json_obj(),
            "nested_msets": self.nested_msets.to_json_obj(),
            "edge_persistence": self.edge_persistence.to_json_obj(),
            "cut_agreement": self.cut_agreement.to_json_obj(),
        }


def _trace_graph(trace: SequenceTrace, G: LazyGraph | None) -> LazyGraph:
    if G is not None:
        return G
    if trace.descriptor is None:
        raise InputError(
            "trace has no descriptor; pass the graph explicitly"
        )
    from .families import descriptor_to_lazy

    return descriptor_to_lazy(trace.descriptor)


def _witness_membership(G: LazyGraph, trace: SequenceTrace, i: int, j: int):
    """Membership test for M at iteration i, part j, plus the bare
    component test (both as callables)."""
    w = trace.witnesses[i][j]
    foreign = set(trace.k0s[i])
    for jj, other in enumerate(trace.witnesses[i]):
        if jj != j:
            foreign |= other.piece
    in_component = _component_resolver(
        G, trace.blockers[i], w.piece, frozenset(foreign)
    )
    return w.membership(in_component), in_component


def _explicit_cut(G: LazyGraph, w: CutWitness, member) -> frozenset[Edge]:
    """The full edge boundary of M, rendered as an explicit finite list.

    Every crossing edge is incident with the separator part, its
    neighbourhood, or one of the membership corrections, so scanning
    those vertices' neighbourhoods is exhaustive.
    """
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


def verify_hc_extract(
    trace: SequenceTrace, G: LazyGraph | None = None
) -> HCExtractVerdict:
    """Check the five limit conditions on a stored trace.

    Runs entirely from the trace plus the graph oracles; nothing from
    the construction is consulted.  Infinite set relations are rendered
    finitely: component containments reduce to one representative plus
    disjointness from the finitely many relevant vertices, and every
    cut is materialized through :func:`_explicit_cut`.
    """
    G = _trace_graph(trace, G)
    d = trace.depth
    if d < 1:
        raise InputError("trace has no iterations to verify")

    for idx, C in enumerate(trace.cycles):
        report = verify_cycle(G, C)
        if not report.ok:
            raise InputError(f"trace cycle {idx} invalid: {report.reason}")

    # vertex persistence: once on a cycle, on every later cycle
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

    # finite cuts: materialize every boundary and compare stored edges
    b_ok, b_detail = True, ""
    cuts: dict[tuple[int, int], frozenset[Edge]] = {}
    members: dict[tuple[int, int], _Membership] = {}
    component_tests: dict[tuple[int, int], object] = {}
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

    # nested M sets along each tracked end
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
            blocked = [
                s for s in sorted(trace.blockers[i]) if member_next(s)
            ]
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
            broken = [
                v
                for v in sample
                if member_next(v) and not member_here(v)
            ]
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

    # edge persistence: shared edges never disappear again
    d_ok, d_detail = True, ""
    edge_sets = [C.edge_set for C in trace.cycles]
    for j_idx in range(1, d):
        for i_idx in range(j_idx):
            shared = edge_sets[i_idx] & edge_sets[j_idx]
            if not shared <= edge_sets[j_idx + 1]:
                lost = sorted(shared - edge_sets[j_idx + 1])
                d_ok, d_detail = False, (
                    f"edges {lost[:4]} shared by cycles {i_idx} and {j_idx} "
                    f"missing from cycle {j_idx + 1}"
                )
                break
        if not d_ok:
            break
    if d_ok:
        d_detail = f"checked {d * (d + 1) // 2} cycle pairs"

    # cut agreement: every later cycle crosses each frozen cut in the
    # same two edges
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

    return HCExtractVerdict(
        vertex_persistence=ConditionReport(a_ok, a_detail),
        finite_cuts=ConditionReport(b_ok, b_detail),
        nested_msets=ConditionReport(c_ok, c_detail),
        edge_persistence=ConditionReport(d_ok, d_detail),
        cut_agreement=ConditionReport(e_ok, e_detail),
    )


def stable_limit(trace: SequenceTrace, window) -> frozenset[Edge]:
    """Edges inside ``window`` that have stabilized.

    An edge on two distinct cycles of the trace stays on every later
    cycle by edge persistence, which is re-checked here as a
    precondition, so these edges belong to the limit object.
    """
    wset = frozenset(window)
    edge_sets = [C.edge_set for C in trace.cycles]
    for j_idx in range(1, len(edge_sets) - 1):
        for i_idx in range(j_idx):
            shared = edge_sets[i_idx] & edge_sets[j_idx]
            if not shared <= edge_sets[j_idx + 1]:
                raise InvariantViolation(
                    "edge persistence fails; trace is not limit-ready",
                    cycles=(i_idx, j_idx),
                )
    seen_twice: set[Edge] = set()
    seen_once: set[Edge] = set()
    for es in edge_sets:
        seen_twice |= seen_once & es
        seen_once |= es
    return frozenset(
        e for e in seen_twice if e[0] in wset and e[1] in wset
    )
