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
treats exhaustion as an invariant violation rather than a result.  It
checks each fact of a step once, and applying the step checks none again.

The finite constructor is one loop, iter_extensions: absorb the
smallest admissible target, rewire, repeat.  It keeps the admissible
targets in a min-heap fed only from the neighbours of newly absorbed
vertices, one row per closed-twin class of a finite graph, and
rewires one LiveCycle (a successor map) in place, so a whole run costs
O(|E| log |V|) plus the witness searches and the arc reversals of kind
III steps.  It yields that live cycle after every step; callers that
keep a cycle must freeze() it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from heapq import heappop, heappush

from .conditions import check_star
from .errors import InputError, InvariantViolation
from .graphcore import Cycle, FiniteGraph, LazyGraph, Record, verify_cycle

Graph = FiniteGraph | LazyGraph

KINDS = ("I", "II", "III")
_new = object.__new__


class Extension(Record):
    """One rewiring step: which kind, the absorbed target, and witnesses.

    u is always the anchor whose outgoing cycle edge is removed; x is
    the second absorbed vertex (kind II only); y is the second anchor
    (kind III only).
    """

    __slots__ = _fields = ("kind", "target", "u", "x", "y")

    def __init__(
        self, kind: str, target: int, u: int, x: int | None = None, y: int | None = None
    ) -> None:
        if kind not in KINDS:
            raise InputError(f"unknown extension kind {kind!r}")
        if kind == "II" and x is None:
            raise InputError("kind II needs the intermediate vertex x")
        if kind == "III" and y is None:
            raise InputError("kind III needs the second anchor y")
        self.kind = kind
        self.target = target
        self.u = u
        self.x = x
        self.y = y

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
    I, III, II with witnesses tried in ascending id order; v's row must
    be sorted, as FiniteGraph and the neighbour-oracle contract promise,
    for kinds I and II to try the anchors and helpers in that order.

    It checks every fact of the step it returns, so LiveCycle.apply and the
    loop do not: v off C, anchors on C and apart, helper off C, edges in G.
    The degree condition guarantees success for any v with a neighbour
    on C; running out of candidates therefore signals a precondition
    failure or a bug and raises InvariantViolation.
    """
    # a set or map keyed by the cycle's vertices: the anchors are picked
    # out at C level, and a live cycle's successors are dict lookups
    if isinstance(C, LiveCycle):
        on = C._succ
        succ = on.__getitem__
    else:
        on, succ = C.vertex_set, C.succ
    if v in on:
        raise InputError(f"target {v} already lies on the cycle")
    nbrs = G.neighbors(v)
    # b in near(a) is G.adjacent(a, b), read off a finite graph's sets
    near = G._adjsets.__getitem__ if isinstance(G, FiniteGraph) else G.neighbors
    row = near(v)
    anchors = []
    for u in filter(on.__contains__, nbrs):
        if succ(u) in row:
            return _found("I", v, u)
        anchors.append(u)
    if not anchors:
        raise InputError(f"target {v} has no neighbour on the cycle")
    ups = list(map(succ, anchors))
    for u, up in zip(anchors, ups):
        for y, yp in zip(anchors, ups):
            if y == u or y == up or yp == u:
                continue
            if yp in near(up):
                return _found("III", v, u, None, y)
    outside = [x for x in nbrs if x not in on and x != v]
    for u, up in zip(anchors, ups):
        for x in outside:
            if up in near(x):
                return _found("II", v, u, x)
    raise InvariantViolation(
        f"no extension absorbs target {v}; the degree condition cannot hold here",
        cycle=C.order,
        target=v,
        anchors=tuple(anchors),
        neighborhood=tuple(nbrs),
    )


def _found(kind: str, v: int, u: int, x: int | None = None, y: int | None = None):
    """find_extension's Extension, without the checks of the kind it chose."""
    e = _new(Extension)
    e.kind = kind
    e.target = v
    e.u = u
    e.x = x
    e.y = y
    return e


class LiveCycle:
    """Mutable oriented cycle kept as a successor map.

    It answers what a Cycle does (``in``, ``len``, ``succ`` and
    ``order``); find_extension reads the successor map itself, as it
    reads a Cycle's vertex set.  ``order`` is walked from ``head`` on demand
    and cached until the next rewiring; freeze() returns it as a Cycle,
    unchecked, as every rewiring keeps the vertices distinct.
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
        return Cycle._of(self.order)

    def apply(self, e: Extension) -> None:
        """Rewire in place according to e, unchecked, as find_extension
        checked it (apply_extension checks others).  Kinds I and II keep
        the head; kind III makes the target the head and reverses u+ .. y.
        """
        v, u, succ = e.target, e.u, self._succ
        up = succ[u]
        self._order = None
        if e.kind == "I":
            succ[u], succ[v] = v, up
        elif e.kind == "II":
            succ[u], succ[v], succ[e.x] = v, e.x, up
        else:
            y = e.y
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


def _check_rewiring(e: Extension, on, succ) -> None:
    """Raise InputError unless e can rewire the cycle whose vertices are
    ``on`` (anything supporting ``in``) and whose successor function is
    ``succ``.  The checks are purely structural (membership and
    distinctness); adjacency of the new edges is the finder's business."""
    v, u = e.target, e.u
    if v in on:
        raise InputError(f"target {v} already lies on the cycle")
    if u not in on:
        raise InputError(f"anchor {u} does not lie on the cycle")
    if e.kind == "II" and (e.x in on or e.x == v):
        raise InputError(f"kind II intermediate {e.x} is not an outside vertex")
    if e.kind == "III":
        y = e.y
        if y not in on:
            raise InputError(f"second anchor {y} does not lie on the cycle")
        if y == u or y == succ(u) or succ(y) == u:
            raise InputError("kind III anchors overlap degenerately")


def apply_extension(C: Cycle, e: Extension) -> Cycle:
    """C rewired according to e, after _check_rewiring, as LiveCycle.apply
    leaves it; only tests and perfbench/tracer.py call it."""
    live = LiveCycle(C)
    _check_rewiring(e, live._succ, live._succ.__getitem__)
    live.apply(e)
    return live.freeze()


def iter_extensions(
    G: Graph,
    C0: Cycle | LiveCycle,
    target_filter: Callable[[int], bool] | None = None,
    targets: Iterable[int] | None = None,
) -> Iterator[tuple[Extension, LiveCycle]]:
    """Grow C0 one extension at a time until no admissible target is left.

    A target is admissible when it is off the cycle, has a neighbour on
    the cycle, and passes target_filter (None admits everything; the
    filter must not change during the run).  The smallest admissible id
    is absorbed first.  Cycle vertices never leave, so a vertex stays
    admissible until it is absorbed.  The heap therefore takes each
    vertex once, when the first cycle vertex next to it is absorbed,
    and drops entries already on the cycle when they reach the top.
    On a finite graph one row is read per closed-twin class: a twin of
    a vertex whose row was read has every neighbour seen already.

    ``targets``, when given, must be the admissible targets of C0; the
    heap starts from them instead of from a scan of C0's neighbours, so
    a long start cycle costs no Python-level step per vertex.

    Yields each extension with the cycle after it.  The cycle is one
    LiveCycle rewired in place, so it is only valid until the next step;
    freeze() it to keep it.  A LiveCycle C0 is that cycle itself.
    """
    seen: set[int] = set()
    heap: list[int] = []
    # a finite graph's closed-twin classes, and each class read with the
    # member read; a ball's small classes would save less than lookups cost
    of = G.twin_of if isinstance(G, FiniteGraph) and not G.frontier else None
    done: dict[int, int] = {}

    def admit(absorbed) -> None:
        seen.update(absorbed)
        for u in absorbed:
            if of is not None and done.setdefault(of.get(u, u), u) != u:
                continue
            for w in G.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    if target_filter is None or target_filter(w):
                        heappush(heap, w)

    if targets is None:
        admit(C0.order)
    else:
        # a sorted list is a heap; a neighbour of C0 the filter refused
        # is refused again if a later step reaches it, and a vertex of
        # C0 a later step reaches is dropped when it reaches the top
        heap.extend(sorted(targets))
        seen.update(heap)
    C = C0 if isinstance(C0, LiveCycle) else LiveCycle(C0)
    on = C._succ
    while heap:
        v = heappop(heap)
        if v in on:
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
    unrestricted extension loop to the end.  Each edge was checked in G as
    it came in, and no step repeats a vertex, so |V| vertices span G.
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
    if len(C) != len(G.vertices):
        raise InvariantViolation(
            "extension sequence stalled before spanning",
            cycle=C.order,
            missing=tuple(sorted(G.vertex_set - C.vertex_set)),
        )
    return C
