"""Cycle extension operators and the finite Hamilton-cycle constructor.

A cycle C absorbs an outside vertex v (the target) through one of three
rewirings, each anchored at cycle vertices adjacent to v:

  kind I    replace the edge u u+ by the path u v u+
  kind II   replace the edge u u+ by the path u v x u+, pulling in a
            second outside vertex x
  kind III  delete the edges u u+ and y y+, add u v, v y and u+ y+,
            which reverses the arc between u+ and y

Under the degree condition at least one of the three always applies, so
the finder does a plain exhaustive witness search in a fixed order and
treats exhaustion as an invariant violation rather than a result.

The finite constructor is one loop, iter_extensions: absorb the
smallest admissible target, rewire, repeat.  It keeps the admissible
targets in a min-heap fed only from the neighbours of newly absorbed
vertices, and rewires one LiveCycle (a successor map) in place, so a
whole run costs O(|E| log |V|) plus the witness searches and the arc
reversals of kind III steps.  It yields that live cycle after every
step; callers that keep a cycle must freeze() it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from heapq import heappop, heappush

from .conditions import check_star
from .errors import InputError, InvariantViolation
from .graphcore import Cycle, FiniteGraph, LazyGraph, verify_cycle

Graph = FiniteGraph | LazyGraph

KINDS = ("I", "II", "III")


@dataclass(frozen=True)
class Extension:
    """One rewiring step: which kind, the absorbed target, and witnesses.

    u is always the anchor whose outgoing cycle edge is removed; x is
    the second absorbed vertex (kind II only); y is the second anchor
    (kind III only).
    """

    kind: str
    target: int
    u: int
    x: int | None = None
    y: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InputError(f"unknown extension kind {self.kind!r}")
        if self.kind == "II" and self.x is None:
            raise InputError("kind II needs the intermediate vertex x")
        if self.kind == "III" and self.y is None:
            raise InputError("kind III needs the second anchor y")

    def new_vertices(self) -> tuple[int, ...]:
        if self.kind == "II":
            return (self.target, self.x)
        return (self.target,)

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind, "target": self.target, "u": self.u}
        if self.x is not None:
            obj["x"] = self.x
        if self.y is not None:
            obj["y"] = self.y
        return obj


def find_extension(G: Graph, C: Cycle | LiveCycle, v: int) -> Extension:
    """Find the first applicable extension absorbing v, in kind order
    I, III, II with witnesses tried in ascending id order.

    The degree condition guarantees success for any v with a neighbour
    on C; running out of candidates therefore signals a precondition
    failure or a bug and raises InvariantViolation.
    """
    if v in C:
        raise InputError(f"target {v} already lies on the cycle")
    anchors = sorted(w for w in G.neighbors(v) if w in C)
    if not anchors:
        raise InputError(f"target {v} has no neighbour on the cycle")

    for u in anchors:
        if G.adjacent(v, C.succ(u)):
            return Extension("I", v, u)
    for u in anchors:
        up = C.succ(u)
        for y in anchors:
            if y == u or y == up or C.succ(y) == u:
                continue
            if G.adjacent(up, C.succ(y)):
                return Extension("III", v, u, y=y)
    for u in anchors:
        up = C.succ(u)
        for x in sorted(G.neighbors(v)):
            if x in C or x == v:
                continue
            if G.adjacent(x, up):
                return Extension("II", v, u, x=x)
    raise InvariantViolation(
        f"no extension absorbs target {v}; the degree condition cannot hold here",
        cycle=C.order,
        target=v,
        anchors=tuple(anchors),
        neighborhood=tuple(G.neighbors(v)),
    )


class LiveCycle:
    """Mutable oriented cycle kept as a successor map.

    It answers what find_extension asks of a Cycle (``in``, ``len``,
    ``succ`` and ``order``).  ``order`` is walked from ``head`` on demand
    and cached until the next rewiring; freeze() returns it as a Cycle.
    """

    __slots__ = ("head", "_succ", "_order")

    def __init__(self, C: Cycle) -> None:
        order = C.order
        self.head = order[0]
        self._succ = dict(zip(order, order[1:] + order[:1]))
        self._order: tuple[int, ...] | None = order

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, v: int) -> bool:
        return v in self._succ

    def succ(self, v: int) -> int:
        try:
            return self._succ[v]
        except KeyError:
            raise InputError(f"vertex {v} not on cycle") from None

    @property
    def order(self) -> tuple[int, ...]:
        if self._order is None:
            succ, head = self._succ, self.head
            walk = [head]
            w = succ[head]
            while w != head:
                walk.append(w)
                w = succ[w]
            self._order = tuple(walk)
        return self._order

    def freeze(self) -> Cycle:
        return Cycle(self.order)

    def apply(self, e: Extension) -> None:
        """Rewire in place according to e.  Validation is purely
        structural (membership and distinctness); adjacency of the new
        edges is the finder's business.  Kinds I and II keep the head;
        kind III makes the target the head and reverses the arc u+ .. y.
        """
        v, u, succ = e.target, e.u, self._succ
        if v in succ:
            raise InputError(f"target {v} already lies on the cycle")
        if u not in succ:
            raise InputError(f"anchor {u} does not lie on the cycle")
        up = succ[u]

        if e.kind == "I":
            succ[u], succ[v] = v, up
        elif e.kind == "II":
            if e.x in succ or e.x == v:
                raise InputError(f"kind II intermediate {e.x} is not an outside vertex")
            succ[u], succ[v], succ[e.x] = v, e.x, up
        else:
            y = e.y
            if y not in succ:
                raise InputError(f"second anchor {y} does not lie on the cycle")
            if y == u or y == up or succ[y] == u:
                raise InputError("kind III anchors overlap degenerately")
            # u v y .. u+ y+ .. u: point each arc vertex back at its
            # predecessor, u+ at y+
            prev, w = succ[y], up
            while True:
                nxt = succ[w]
                succ[w] = prev
                if w == y:
                    break
                prev, w = w, nxt
            succ[u], succ[v] = v, y
            self.head = v
        self._order = None


def apply_extension(C: Cycle, e: Extension) -> Cycle:
    """Rewire a copy of C according to e (see LiveCycle.apply)."""
    live = LiveCycle(C)
    live.apply(e)
    return live.freeze()


def iter_extensions(
    G: Graph,
    C0: Cycle,
    target_filter: Callable[[int], bool] | None = None,
) -> Iterator[tuple[Extension, LiveCycle]]:
    """Grow C0 one extension at a time until no admissible target is left.

    A target is admissible when it is off the cycle, has a neighbour on
    the cycle, and passes target_filter (None admits everything; the
    filter must not change during the run).  The smallest admissible id
    is absorbed first.  Cycle vertices never leave, so a vertex stays
    admissible until it is absorbed.  The heap therefore takes each
    vertex once, when the first cycle vertex next to it is absorbed,
    and drops entries already on the cycle when they reach the top.

    Yields each extension with the cycle after it.  The cycle is one
    LiveCycle rewired in place, so it is only valid until the next step;
    freeze() it to keep it.
    """
    C = LiveCycle(C0)
    seen: set[int] = set()
    heap: list[int] = []

    def admit(absorbed) -> None:
        seen.update(absorbed)
        for u in absorbed:
            for w in G.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    if target_filter is None or target_filter(w):
                        heappush(heap, w)

    admit(C0.order)
    while heap:
        v = heappop(heap)
        if v in C:
            continue
        e = find_extension(G, C, v)
        C.apply(e)
        admit(e.new_vertices())
        yield e, C


def saturate(
    G: Graph,
    C0: Cycle,
    target_filter: Callable[[int], bool] | None = None,
) -> Cycle:
    """The cycle iter_extensions ends on, frozen; C0 when nothing is
    admissible."""
    C = C0
    for _, C in iter_extensions(G, C0, target_filter):
        pass
    return C if C is C0 else C.freeze()


def extension_sequence(
    G: FiniteGraph,
    C0: Cycle,
    target_filter: Callable[[int], bool] | None = None,
) -> list[Cycle]:
    """Every cycle iter_extensions passes through, frozen, starting with
    C0.  The package no longer calls this; perfbench/tracer.py still
    wraps it by name."""
    return [C0] + [C.freeze() for _, C in iter_extensions(G, C0, target_filter)]


def find_initial_cycle(G: FiniteGraph) -> Cycle:
    """Smallest-id triangle, else smallest-id 4-cycle.

    Any connected graph with at least three vertices satisfying the
    degree condition contains one of the two: an induced path u v w
    yields two common neighbours of u and w, and one of them closes a
    4-cycle; with no induced path at all the graph is complete.
    """
    for v in G.vertices:
        nbrs = G.adj[v]
        for i, a in enumerate(nbrs):
            if a < v:
                continue
            for b in nbrs[i + 1 :]:
                if G.adjacent(a, b):
                    return Cycle((v, a, b))
    for v in G.vertices:
        nbrs = G.adj[v]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                for z in G.adj[a]:
                    if z > v and z != b and G.adjacent(z, b):
                        return Cycle((v, a, z, b))
    raise InputError("graph contains no triangle and no 4-cycle")


def extend_to_hamilton(G: FiniteGraph, seed: Cycle | None = None) -> Cycle:
    """Hamilton cycle of a connected graph meeting the degree condition.

    Starts from seed (or a smallest triangle / 4-cycle) and runs the
    unrestricted extension loop to the end.  The result is re-validated before
    it is returned.
    """
    if len(G.vertices) < 3:
        raise InputError("need at least three vertices")
    if not G.is_connected():
        raise InputError("graph is not connected")
    star = check_star(G)
    if not star.holds:
        raise InputError(
            f"degree condition fails at induced path {star.witness}: "
            f"{star.lhs} < {star.rhs}"
        )
    if seed is not None:
        report = verify_cycle(G, seed)
        if not report.ok:
            raise InputError(f"seed cycle invalid: {report.reason}")
    C = saturate(G, seed or find_initial_cycle(G))
    report = verify_cycle(G, C)
    if not report.is_hamiltonian:
        raise InvariantViolation(
            "extension sequence stalled before spanning",
            cycle=C.order,
            missing=tuple(sorted(G.vertex_set - C.vertex_set)),
        )
    return C
