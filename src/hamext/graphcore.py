"""Core graph types and neighbourhood machinery.

Two graph representations are used throughout:

* :class:`FiniteGraph` -- an immutable simple undirected graph with
  integer vertex ids and sorted adjacency lists.
* :class:`LazyGraph` -- an infinite, locally finite graph given by a
  neighbour oracle together with an *escape oracle* answering, for a
  finite vertex set ``F`` and a vertex ``v``, whether ``v`` lies in an
  infinite component of ``G - F``.

Infinite graphs are only ever inspected through finite windows obtained
from :func:`ball`.  A ball records which of its vertices sit on the
exploration frontier; adjacency of frontier vertices is incomplete, and
operations that would need it must refuse (:class:`FrontierContamination`)
rather than answer wrongly.  A :class:`Region` keeps the distance
layers around a vertex set that only grows, so that a run whose cycle
grows hands out each iteration's ball from what the cycle gained.

All public containers are deterministic: vertices ascending, neighbour
lists ascending, components ordered by smallest member.
"""

from __future__ import annotations

import json
import weakref
from bisect import bisect
from collections import Counter, deque
from collections.abc import Callable, Iterable, Mapping, Sequence, Set
from functools import cached_property
from json.encoder import encode_basestring_ascii

from .errors import InputError, InvariantViolation

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Order an undirected edge as a ``(min, max)`` pair."""
    return (u, v) if u <= v else (v, u)


# ---------------------------------------------------------------------------
# records


class Record:
    """Base of the package's records: equality, hashing and a repr of
    the form ``Name(field=value, ...)`` over the names in ``_fields``.

    Records are plain classes with ``__slots__`` and hand-written
    constructors, with no class decorator generating methods: a fresh
    import with bytecode writing off compiles every line and builds
    every class, and generated methods (and the modules that generate
    them) would be paid for again at every import.  Records are
    immutable by convention; nothing assigns to a field after
    construction.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"


# ---------------------------------------------------------------------------
# finite graphs


class FiniteGraph(Record):
    """Immutable simple undirected graph.

    ``adj`` maps every vertex to its sorted neighbour tuple.  ``frontier``
    is non-empty only for graphs produced by :func:`ball`: it marks the
    vertices whose neighbour lists may be truncated by the exploration
    radius.  ``labels`` optionally carries human-readable vertex names
    (family generators use coordinate labels); it never affects equality
    of the combinatorial data callers should rely on.  ``twins`` holds
    the closed-twin classes of the region a ball came from (see
    :class:`Region`); it takes no part in equality or repr.  A ball a
    region hands out sorts ``vertices`` on the first read.

    ``_adjsets`` holds each vertex's neighbours as a set, for
    ``adjacent``, ``has_vertex`` and :func:`verify_cycle`.  It may be
    the builder's own sets (the ones ``from_edges`` filled, or a
    region's), so it is private: never handed out, never changed.
    """

    _fields = ("vertices", "adj", "frontier", "labels")
    # the instance dict holds the cached properties; a region keeps a
    # weak reference to the last ball it handed out
    __slots__ = (
        "_vertices", "adj", "frontier", "labels", "_adjsets", "twins",
        "__dict__", "__weakref__",
    )

    def __init__(
        self,
        vertices: tuple[int, ...],
        adj: Mapping[int, tuple[int, ...]],
        frontier: frozenset[int] = frozenset(),
        labels: Mapping[int, str] | None = None,
    ) -> None:
        self._vertices = vertices
        self.adj = adj
        self.frontier = frontier
        self.labels = labels
        self._adjsets = dict(zip(adj, map(frozenset, adj.values())))
        self.twins = None

    @classmethod
    def _with_sets(
        cls,
        adj: Mapping[int, tuple[int, ...]],
        frontier: frozenset[int],
        adjsets: Mapping[int, Set[int]],
        vertex_set: Set[int],
        twins: TwinClasses | None,
        vertices: tuple[int, ...] | None = None,
        labels: Mapping[int, str] | None = None,
    ) -> "FiniteGraph":
        """The graph with these fields, for a caller that already holds
        the neighbour sets and the vertex set: a Region, or from_edges
        with the sets it filled.  They are not built again; the graph
        keeps ``adjsets`` as its own, so the caller must not change
        them after.  Without ``vertices``, the sorted vertices wait for
        a read."""
        G = cls.__new__(cls)
        G._vertices = vertices
        G.adj = adj
        G.frontier = frontier
        G.labels = labels
        G._adjsets = adjsets
        G.twins = twins
        G.vertex_set = vertex_set
        return G

    @staticmethod
    def from_edges(
        vertices: Iterable[int],
        edges: Iterable[Edge],
        labels: Mapping[int, str] | None = None,
    ) -> "FiniteGraph":
        """Build a graph, validating simplicity and endpoint membership."""
        vset = set()
        for v in vertices:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"vertex ids must be integers, got {v!r}")
            if v in vset:
                raise InputError(f"duplicate vertex id {v}")
            vset.add(v)
        nbrs: dict[int, set[int]] = {v: set() for v in vset}
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InputError(f"edge must be a pair, got {e!r}") from None
            # exact types first, as that test is cheap; True and 1.0 equal
            # vertex ids, so membership alone would let them in
            if (type(u) is not int or type(v) is not int) and not all(
                isinstance(x, int) and not isinstance(x, bool) for x in (u, v)
            ):
                raise InputError(f"edge endpoints must be integer ids, got {e!r}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            try:
                nbrs[u].add(v)
                nbrs[v].add(u)
            except KeyError:
                raise InputError(
                    f"edge ({u}, {v}) has an endpoint outside the vertex set"
                ) from None
        if labels is not None:
            unknown = set(labels) - vset
            if unknown:
                raise InputError(f"labels for unknown vertices: {sorted(unknown)}")
        vertices = tuple(sorted(vset))
        # the neighbour sets filled above become the graph's own
        return FiniteGraph._with_sets(
            {v: tuple(sorted(nbrs[v])) for v in vertices},
            frozenset(),
            nbrs,
            frozenset(vertices),
            None,
            vertices=vertices,
            labels=dict(labels) if labels is not None else None,
        )

    @property
    def vertices(self) -> tuple[int, ...]:
        vertices = self._vertices
        if vertices is None:
            vertices = self._vertices = tuple(sorted(self.adj))
        return vertices

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self.adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def adjacent(self, u: int, v: int) -> bool:
        try:
            return v in self._adjsets[u]
        except KeyError:
            raise InputError(f"unknown vertex {u}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: int) -> bool:
        return v in self._adjsets

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def twin_of(self) -> Mapping[int, int] | None:
        """Each vertex's closed-twin class (equal N[v]), named by its
        first vertex in id order, or None without twins.  A class is keyed
        by N[v] as a tuple: the sorted row with v put in place by bisection."""
        vertices, adj, first = self.vertices, self.adj, {}
        named = [
            first.setdefault(row[: (i := bisect(row, v))] + (v,) + row[i:], v)
            for v, row in zip(vertices, map(adj.__getitem__, vertices))
        ]
        return dict(zip(vertices, named)) if len(first) < len(named) else None

    @cached_property
    def twin_quotient(
        self,
    ) -> tuple[Sequence[int], Mapping[int, Sequence[int]], Mapping[int, int] | None]:
        """The quotient of the graph by its closed-twin classes (equal N[v]).

        The first vertex of each class in id order, the quotient
        adjacency (for each of them, the first vertices of the
        neighbouring classes, in adjacency order) and the class sizes.
        Without twins that is ``vertices``, ``adj`` and None.  Built once
        per graph from ``twin_of``; every finite check reads it.
        """
        of, adj = self.twin_of, self.adj
        if of is None:
            return self.vertices, adj, None
        # counted in vertex order, so its keys are the classes in id order
        size = Counter(of.values())
        # a class next to r lies wholly in N(r), its first vertex too
        is_first = size.__contains__
        quotient = {r: tuple(filter(is_first, adj[r])) for r in size}
        return list(size), quotient, size

    def edges(self) -> list[Edge]:
        """All edges as canonical pairs, sorted."""
        out = []
        for u in self.vertices:
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def induced(self, keep: Iterable[int]) -> "FiniteGraph":
        """Induced subgraph on ``keep`` (ids must exist)."""
        kset = frozenset(keep)
        missing = kset - self.vertex_set
        if missing:
            raise InputError(f"unknown vertices: {sorted(missing)}")
        return FiniteGraph(
            vertices=tuple(sorted(kset)),
            adj={v: tuple(w for w in self.adj[v] if w in kset) for v in sorted(kset)},
            frontier=self.frontier & kset,
            labels={v: s for v, s in self.labels.items() if v in kset}
            if self.labels is not None
            else None,
        )

    def is_connected(self) -> bool:
        """Whether the graph is connected, read from ``twin_quotient``:
        each closed-twin class is a clique, so the graph is connected
        exactly when its quotient is."""
        centers, quotient, _ = self.twin_quotient
        if not centers:
            return True
        seen = {centers[0]}
        queue = [centers[0]]
        for x in queue:
            for w in quotient[x]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(centers)


# ---------------------------------------------------------------------------
# lazy graphs


class LazyGraph:
    """Locally finite infinite graph behind a pair of pure oracles.

    ``neighbor_oracle(v)`` returns the full sorted neighbour tuple of
    ``v``, and the cache of those tuples holds at most
    MAX_CACHED_NEIGHBORS entries; ``escape_oracle(F, v)`` decides whether ``v`` lies in an
    infinite component of ``G - F`` for finite ``F`` not containing
    ``v``.  Both must be pure, which lets this wrapper memoize them;
    shared concurrent reads are safe in the usual CPython sense.

    ``end_rays`` optionally names the ends of the graph and provides,
    for each, a ray ``t -> vertex`` converging to it (the shipped
    double-ray families expose ``left`` and ``right``).  ``descriptor``
    carries the construction recipe when the graph came from a family
    generator, so traces can be re-verified from serialized form.
    ``representatives``, set only by the double-ray family constructor,
    is a tuple of ranges of vertex ids, in increasing order, such that
    every vertex of G is the image of one of their ids under an
    automorphism of G, which carries each vertex's oracle row onto its
    image's.  A run decides the local conditions for all of G on them,
    and with them the neighbour oracle's symmetry: they vouch for it,
    so the run's regions check it on no ball of their own.  None means
    no such set is known.
    """

    def __init__(
        self,
        neighbor_oracle: Callable[[int], tuple[int, ...]],
        escape_oracle: Callable[[frozenset[int], int], bool],
        root: int,
        end_rays: Mapping[str, Callable[[int], int]] | None = None,
        descriptor: Mapping[str, object] | None = None,
        representatives: tuple[range, ...] | None = None,
    ) -> None:
        self._neighbor_oracle = neighbor_oracle
        self._escape_oracle = escape_oracle
        self.root = root
        self.end_rays = dict(end_rays) if end_rays else {}
        self.descriptor = dict(descriptor) if descriptor is not None else None
        self.representatives = representatives
        self._nbr_cache: dict[int, tuple[int, ...]] = {}
        self._esc_cache: dict[tuple[frozenset[int], int], bool] = {}
        self._held = 0

    def neighbors(self, v: int) -> tuple[int, ...]:
        cached = self._nbr_cache.get(v)
        if cached is None:
            cached = tuple(self._neighbor_oracle(v))
            if v in cached:
                raise InvariantViolation(f"neighbor oracle reports a self-loop at {v}")
            self._held += len(cached)
            if self._held > MAX_CACHED_NEIGHBORS:
                raise InputError(
                    f"the graph's neighbour cache would hold over "
                    f"{MAX_CACHED_NEIGHBORS} entries"
                )
            self._nbr_cache[v] = cached
        return cached

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def escapes(self, blocked: frozenset[int], v: int) -> bool:
        """Whether ``v`` lies in an infinite component of ``G - blocked``."""
        if v in blocked:
            raise InputError(f"escape query for a blocked vertex {v}")
        key = (blocked, v)
        cached = self._esc_cache.get(key)
        if cached is None:
            cached = bool(self._escape_oracle(blocked, v))
            self._esc_cache[key] = cached
        return cached


GraphLike = FiniteGraph | LazyGraph


# ---------------------------------------------------------------------------
# cycles


class Cycle(Record):
    """Oriented cycle given by its vertex order.

    The orientation is semantic: ``succ``/``pred`` define the successor
    map that the extension operators rely on.  At least three distinct
    vertices are required.  ``vertex_set`` is built with the cycle and
    answers ``in``; the position index behind ``index``/``succ``/``pred``
    is built on the first of those calls, so a cycle that is only
    stored, compared or tested for membership never builds it.  A cycle
    a live cycle freezes (``_of``) builds its vertex set on the first
    read too.
    """

    _fields = ("order",)
    # the instance dict holds the vertex set and the cached index
    __slots__ = _fields + ("__dict__",)

    def __init__(self, order: tuple[int, ...]) -> None:
        if len(order) < 3:
            raise InputError("a cycle needs at least three vertices")
        vertex_set = frozenset(order)
        if len(vertex_set) < len(order):
            seen: set[int] = set()
            for v in order:
                if v in seen:
                    raise InputError(f"repeated vertex {v} in cycle")
                seen.add(v)
        self.order = order
        self.vertex_set = vertex_set

    @classmethod
    def _of(cls, order: tuple[int, ...]) -> "Cycle":
        """The cycle of ``order``, for a caller (a live cycle) that
        knows it repeats no vertex: nothing is checked or built."""
        C = cls.__new__(cls)
        C.order = order
        return C

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, v: int) -> bool:
        return v in self.vertex_set

    @cached_property
    def _index(self) -> dict[int, int]:
        return dict(zip(self.order, range(len(self.order))))

    def index(self, v: int) -> int:
        """Position of v in ``order``."""
        try:
            return self._index[v]
        except KeyError:
            raise InputError(f"vertex {v} not on cycle") from None

    def succ(self, v: int) -> int:
        try:
            i = self._index[v]
        except KeyError:
            raise InputError(f"vertex {v} not on cycle") from None
        return self.order[(i + 1) % len(self.order)]

    def pred(self, v: int) -> int:
        try:
            i = self._index[v]
        except KeyError:
            raise InputError(f"vertex {v} not on cycle") from None
        return self.order[i - 1]

    def edges(self) -> list[Edge]:
        """Cycle edges as canonical pairs in traversal order."""
        order = self.order
        return [
            (u, v) if u <= v else (v, u)
            for u, v in zip(order, order[1:] + order[:1])
        ]


class CycleReport(Record):
    """Outcome of :func:`verify_cycle`."""

    __slots__ = _fields = ("ok", "reason", "is_hamiltonian")

    def __init__(
        self, ok: bool, reason: str | None = None, is_hamiltonian: bool = False
    ) -> None:
        self.ok = ok
        self.reason = reason
        self.is_hamiltonian = is_hamiltonian


def verify_cycle(G: GraphLike, C: Cycle) -> CycleReport:
    """Check that ``C`` is a genuine cycle of ``G``.

    Validates pairwise-distinct vertices (already enforced by
    :class:`Cycle`), consecutive adjacency under the cycle's
    orientation, and reports whether the cycle spans a finite ``G``.
    """
    order = C.order
    pairs = zip(order, order[1:] + order[:1])
    if isinstance(G, FiniteGraph):
        adjsets = G._adjsets
        for u, v in pairs:
            nbrs = adjsets.get(u)
            if nbrs is None:
                return CycleReport(False, f"vertex {u} not in graph")
            if v not in nbrs:
                return CycleReport(False, f"consecutive cycle vertices {u}, {v} not adjacent")
        return CycleReport(True, None, C.vertex_set == G.vertex_set)
    for u, v in pairs:
        if not G.adjacent(u, v):
            return CycleReport(False, f"consecutive cycle vertices {u}, {v} not adjacent")
    return CycleReport(True, None, False)


# ---------------------------------------------------------------------------
# traversals


def neighborhood_rings(
    G: GraphLike, X: Iterable[int], k: int
) -> tuple[frozenset[int], ...]:
    """The ``k`` rings around the set ``X``: for d = 1 .. k, the
    vertices at distance d from X (empty once the search runs out).

    Finitely many neighbour queries on a lazy graph, asked ring by ring
    and in id order within a ring, so a caller that needs several
    neighbourhoods of one set searches once.
    """
    if k < 0:
        raise InputError("neighbourhood depth must be non-negative")
    xset = set(X)
    if isinstance(G, FiniteGraph):
        for v in xset:
            if not G.has_vertex(v):
                raise InputError(f"unknown vertex {v}")
    seen = set(xset)
    ring = sorted(xset)
    rings = []
    for _ in range(k):
        nxt: set[int] = set()
        for u in ring:
            for w in G.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        rings.append(frozenset(nxt))
        ring = sorted(nxt)
    return tuple(rings)


def neighborhood_k(G: GraphLike, X: Iterable[int], k: int) -> frozenset[int]:
    """Vertices at distance between 1 and ``k`` from the set ``X``: the
    union of its rings (see :func:`neighborhood_rings`).  ``X`` itself
    is excluded, matching the convention used by the separator
    machinery.
    """
    return frozenset().union(*neighborhood_rings(G, X, k))


# The widest ball and the longest component search: a guard against
# runaway queries on adversarial oracles.
BALL_RADIUS_MAX = 64


# The most neighbour entries one Region holds.  An entry costs about
# 60 bytes with its frozenset, so a region at the budget holds about
# 0.25 GB; GZ80 at depth 4 holds 745,680 entries.  A lazy graph's
# cache also holds the rows of ball frontiers and of the verifier's
# searches, so it may hold twice as many, which a run's region refuses
# first.
MAX_REGION_NEIGHBORS = 4 * 10**6
MAX_CACHED_NEIGHBORS = 2 * MAX_REGION_NEIGHBORS

# The most vertex ids a trace stores in its cycles and K0 sets.  Both
# grow with the depth, so the trace grows with its square: GZ2 and GZ3
# at depth 100 store 161,608 and 241,809 ids, GZ4 at depth 40 52,172.
# With the trace written out, `infham --out` peaks at about 64 bytes
# per stored id on 64-bit CPython 3.11 (GZ2 at depth 700, GZ3 at 600,
# GZ4 at 500: 7.9 to 8.7 million ids, 509 to 552 MB), so a run at the
# budget stays near half of a 1 GiB address-space limit.  A run that
# would store more is refused before the iteration that passes the
# budget is kept.
MAX_TRACE_IDS = 8 * 10**6


class TwinClasses:
    """The closed-twin classes (equal N[v]) of the vertices a Region has
    seen interior to one of its balls.

    A vertex is keyed by its closed neighbourhood, its row in G plus
    itself, so these are the classes of G: a fact about one graph, kept
    by one region and never shared.  ``of`` maps each vertex classified
    to its class, named by the class's first vertex classified, and
    ``size`` each class to its number of members.

    Twins are neighbours, so twins not in X lie at equal distance from
    X, and a twin in X lies beside twins at distance 1.  So in a ball of
    radius >= 2 the class of an interior vertex is wholly interior:
    classified, counted in full and named by an interior vertex.  A
    frontier vertex has a truncated row in the ball; its G-twins lie on
    the frontier with it and are its twins in the ball too, and one not
    classified is a class of its own.
    """

    __slots__ = ("of", "size", "_nbrs", "_sets", "_keys", "_rows")

    def __init__(
        self, nbrs: Mapping[int, tuple[int, ...]], sets: Mapping[int, frozenset[int]]
    ) -> None:
        self.of: dict[int, int] = {}
        self.size: dict[int, int] = {}
        self._nbrs, self._sets = nbrs, sets
        self._keys: dict[frozenset[int], int] = {}
        self._rows: dict[int, tuple[int, ...]] = {}

    def add(self, vertices: Iterable[int]) -> None:
        """Classify ``vertices``, whose rows the region holds."""
        of, size, keys, sets = self.of, self.size, self._keys, self._sets
        for v in vertices:
            c = of[v] = keys.setdefault(sets[v].union((v,)), v)
            size[c] = size.get(c, 0) + 1

    def row(self, c: int, adj: Mapping[int, tuple[int, ...]]) -> tuple[int, ...]:
        """The classes next to class ``c``, in the order of c's row, a
        vertex not classified standing for itself.  A class's row is its
        row in G, kept once all its neighbours are classified; a vertex
        not classified takes its row in ``adj``, the ball's."""
        got = self._rows.get(c)
        if got is not None:
            return got
        of = self.of
        nbrs = self._nbrs[c] if c in of else adj[c]
        got = tuple(dict.fromkeys(filter(c.__ne__, [of.get(w, w) for w in nbrs])))
        if c in of and all(map(of.__contains__, nbrs)):
            self._rows[c] = got
        return got


class Region:
    """A vertex set X that only grows, with the graph around it.

    The region keeps the distance from X of every vertex within
    ``reach`` of it: ``dist`` maps each such vertex to its distance and
    ``layers[d]`` holds the vertices at distance d, so ``layers[0]`` is
    X, whose smallest vertex is ``least``, and ``layers[1]`` is N(X).
    ``grown`` holds the vertices the last grow() added to X (all of X
    before the first).  ``nbrs`` holds the neighbour tuple of
    every vertex closer than ``reach``, and ``sets`` the same as
    frozensets; ``held`` counts their entries, which may not pass
    MAX_REGION_NEIGHBORS.  ``twins`` holds the closed-twin classes of
    the vertices interior to its balls (see TwinClasses); a ball of
    radius >= 2 carries them for the ball checks.

    ``decided`` says that both local conditions and the neighbour
    oracle's symmetry were decided for all of G on its representatives
    (see infinite.decide_by_period), as a run does first.  No ball is
    then checked for either condition, so the region keeps no twin
    classes (``twins`` is None) and checks no symmetry.

    As X grows, distances only fall: grow() runs a breadth-first search
    from the gained vertices that stops wherever no label improves.
    ball(r) extends the labels outward when r exceeds ``reach`` and
    returns what ``ball(G, X, r)`` returns, reading the interior's
    neighbour tuples off ``nbrs``; unless ``decided``, it checks the
    neighbour oracle's symmetry only on the pairs whose ends are
    interior for the first time.  ``radius`` is the radius of the last
    ball handed out.  Per call, work is bounded by what X gained and by
    the shell of layers between X and the frontier, not by the size of
    X: no pass, Python or set operation, runs over X or the whole ball,
    but for a ball at a new radius or one whose tables are copied.
    """

    def __init__(self, G: GraphLike, X: Iterable[int], decided: bool = False) -> None:
        X = sorted(set(X))
        self.G = G
        self.decided = decided
        self.dist: dict[int, int] = dict.fromkeys(X, 0)
        self.layers: list[set[int]] = [set(X)]
        self.least = X[0] if X else None
        self.grown: set[int] = set(X)
        self.reach = 0
        self.nbrs: dict[int, tuple[int, ...]] = {}
        self.sets: dict[int, frozenset[int]] = {}
        self.held = 0
        self.twins = None if decided else TwinClasses(self.nbrs, self.sets)
        # vertices interior to some ball handed out, and the pairs
        # (v, w) with w listed by v but v not by w found at them; X's
        # vertices gained since the last ball of radius >= 1, which are
        # the only ones of X that can be interior for the first time
        self._interior: set[int] = set()
        self._asymmetric: list[Edge] = []
        self._new_x: set[int] = set(X)
        # the radius of the last ball, its tables (vertex set, adjacency
        # rows, neighbour sets), its frontier rows and a weak reference
        # to it
        self.radius = -1
        self._members: set[int] = set()
        self._adj: dict[int, tuple[int, ...]] = {}
        self._sets: dict[int, frozenset[int]] = {}
        self._frontier_rows: dict[int, tuple[int, ...]] = {}
        self._handed: Callable[[], FiniteGraph | None] = lambda: None

    def _fetch(self, u: int) -> tuple[int, ...]:
        row = self.nbrs.get(u)
        if row is None:
            row = self.G.neighbors(u)
            self.held += len(row)
            if self.held > MAX_REGION_NEIGHBORS:
                raise InputError(
                    f"the region around the cycle would hold over "
                    f"{MAX_REGION_NEIGHBORS} neighbour entries"
                )
            self.nbrs[u] = row
            self.sets[u] = frozenset(row)
        return row

    def extend(self, radius: int) -> None:
        """Label every vertex within ``radius`` of X."""
        dist, layers = self.dist, self.layers
        while self.reach < radius:
            d = self.reach + 1
            ring: set[int] = set()
            for u in sorted(layers[-1]):
                for w in self._fetch(u):
                    if w not in dist:
                        dist[w] = d
                        ring.add(w)
            layers.append(ring)
            self.reach = d

    def grow(self, gained: Iterable[int]) -> None:
        """Add ``gained`` to X and lower the labels around it."""
        dist, layers, reach = self.dist, self.layers, self.reach
        queue: deque[int] = deque()
        self.grown = set()
        for v in sorted(gained):
            d = dist.get(v)
            if d == 0:
                continue
            self.grown.add(v)
            if d is not None:
                layers[d].discard(v)
            dist[v] = 0
            layers[0].add(v)
            self._new_x.add(v)
            if self.least is None or v < self.least:
                self.least = v
            queue.append(v)
        while queue:
            u = queue.popleft()
            d = dist[u] + 1
            if d > reach:
                continue
            for w in self._fetch(u):
                old = dist.get(w)
                if old is None or old > d:
                    if old is not None:
                        layers[old].discard(w)
                    dist[w] = d
                    layers[d].add(w)
                    queue.append(w)

    def ball(self, radius: int) -> FiniteGraph:
        """The ball of ``radius`` around X: equal to ``ball(G, X, radius)``.

        The ball's tables (its vertex set, rows and neighbour sets) are
        the region's own, handed out without a copy.  At the radius of
        the last ball the ball only gains vertices, and of its old ones
        only the frontier's rows change, so the tables are updated in
        place from X's gains, the shell of layers 1 .. radius - 1 and
        the frontier.  While the last ball handed out is still alive
        they are copied first, so that it does not change; a new radius
        starts new tables."""
        _check_ball_radius(radius)
        layers = self.layers
        if not layers[0]:
            raise InputError("ball needs a non-empty center")
        self.extend(radius)
        shell = set().union(*layers[1:radius])
        new_x = set()
        if radius:
            new_x, self._new_x = self._new_x, new_x
        if not self.decided:
            if (len(layers[0]) + len(shell)) // 4 > len(self._interior):
                # most of the interior is fresh: its set difference, built
                # as set difference builds it then
                fresh = set().union(*layers[:radius]) - self._interior
            else:
                fresh = shell.union(new_x) - self._interior
            self._interior |= fresh
            # in id order, so the oracle's first calls come in that order
            fresh = sorted(fresh)
            self.twins.add(fresh)
            self._check_symmetry(fresh, radius)
        dist, outer = self.dist, radius + 1
        rows = {
            v: tuple(w for w in self.G.neighbors(v) if dist.get(w, outer) < outer)
            for v in sorted(layers[radius])
        }
        adj, sets, members = self._adj, self._sets, self._members
        if radius != self.radius:
            self.radius = radius
            adj, sets, members = {}, {}, set()
            inside = layers[0].union(shell) if radius else shell
        else:
            if self._handed() is not None:
                adj, sets, members = adj.copy(), sets.copy(), members.copy()
            # the old frontier's vertices that are interior now, and the
            # interior vertices new to the ball
            old = self._frontier_rows
            inside = {v for v in shell.union(new_x) if v in old or v not in adj}
        self._adj, self._sets, self._members = adj, sets, members
        self._frontier_rows = rows
        members.update(inside, rows)
        adj.update(zip(inside, map(self.nbrs.get, inside)))
        adj.update(rows)
        sets.update(zip(inside, map(self.sets.get, inside)))
        sets.update(zip(rows, map(frozenset, rows.values())))
        B = FiniteGraph._with_sets(
            adj, frozenset(rows), sets, members, self.twins if radius >= 2 else None
        )
        self._handed = weakref.ref(B)
        return B

    def _check_symmetry(self, fresh: list[int], radius: int) -> None:
        """Raise at the first pair (v, w) interior to the ball of
        ``radius``, in id and adjacency order, where v lists w but w does
        not list v: the pair a whole-ball scan names.  Each vertex's list
        is compared with its neighbours' once, when it is first interior
        (it is in ``fresh``, in id order); the asymmetric pairs found are
        kept, and raised once both ends are interior in one ball, which a
        smaller radius than before may delay.  A neighbour's list is read
        as its set when the region holds it, so a pair costs O(1)."""
        nbrs, sets, asymmetric = self.nbrs, self.sets, self._asymmetric
        for x in fresh:
            for w in nbrs[x]:
                row = sets.get(w)
                if x not in (self.G.neighbors(w) if row is None else row):
                    asymmetric.append((x, w))
        d = self.dist.get
        bad = [
            (v, w) for v, w in asymmetric if d(v, radius) < radius > d(w, radius)
        ]
        if bad:
            # neighbour tuples are sorted, so adjacency order is id order
            v, w = min(bad)
            raise InvariantViolation(
                f"neighbor oracle is asymmetric on pair ({v}, {w})"
            )


def _check_ball_radius(radius: int) -> None:
    if radius < 0:
        raise InputError("ball radius must be non-negative")
    if radius > BALL_RADIUS_MAX:
        raise InputError(
            f"ball radius {radius} exceeds the radius cap {BALL_RADIUS_MAX}"
        )


def ball(G: LazyGraph, center: int | Iterable[int], radius: int) -> FiniteGraph:
    """Induced subgraph on ``center`` and everything within ``radius``.

    ``center`` may be a single vertex or a set of sources.  Vertices at
    distance exactly ``radius`` form the frontier: they are present, and
    edges among ball members are complete, but their own neighbour lists
    extend beyond the ball.  The radius is capped at
    ``BALL_RADIUS_MAX`` as a guard against runaway queries on
    adversarial oracles.

    Symmetry of the neighbour oracle is validated on every edge with
    both endpoints interior.  This is the ball of a fresh
    :class:`Region` grown from ``center``.
    """
    _check_ball_radius(radius)
    if isinstance(center, int):
        center = (center,)
    return Region(G, center).ball(radius)


def _components_within(
    adj: Mapping[int, tuple[int, ...]], keep: Iterable[int]
) -> list[frozenset[int]]:
    """Connected components of the subgraph ``adj`` induces on ``keep``,
    ordered by smallest member."""
    unseen = set(keep)
    out: list[frozenset[int]] = []
    for start in sorted(unseen):
        if start not in unseen:
            continue
        comp = {start}
        unseen.discard(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in unseen:
                    unseen.discard(w)
                    comp.add(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


# ---------------------------------------------------------------------------
# serialization


def dumps_json(obj: object) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=1)``.

    With ``indent`` set, ``json`` encodes in pure Python; this walks the
    lists, tuples and str-keyed dicts itself and writes a list of plain
    ints with one ``%`` format, so a trace's long id arrays cost C time
    and no call per id.  A plain int is written as ``%d`` writes it,
    which is ``int.__repr__``, and a plain str, value or key, by
    ``encode_basestring_ascii``, as ``json`` writes them.
    """
    return _dumps_at(obj, "\n")


def _ids_format(n: int, nl: str) -> str:
    """The %-format of a list of n plain ints as :func:`dumps_json`
    writes it where each line starts with ``nl``."""
    if not n:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("%d," + inner) * (n - 1) + "%d" + nl + "]"


def _dumps_at(x: object, nl: str) -> str:
    """``x`` encoded as if nested where each line starts with ``nl``."""
    t = type(x)
    if t is int:
        return int.__repr__(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        if set(map(type, x)) == {int}:
            # one format for the whole list, not a call per item
            return _ids_format(len(x), nl) % tuple(x)
        inner = nl + " "
        items = [_dumps_at(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict and set(map(type, x)) <= {str}:
        if not x:
            return "{}"
        inner = nl + " "
        items = [
            encode_basestring_ascii(k) + ": " + _dumps_at(x[k], inner)
            for k in sorted(x)
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    # scalars, other keys and subclasses; json escapes every newline
    # inside a string, so each raw one starts a line of the structure
    return json.dumps(x, sort_keys=True, indent=1).replace("\n", nl)


GRAPH_JSON_KEYS = {"vertices", "edges", "labels"}


def graph_to_json_obj(G: FiniteGraph) -> dict:
    obj: dict = {
        "vertices": list(G.vertices),
        "edges": [list(e) for e in G.edges()],
    }
    if G.labels is not None:
        obj["labels"] = {str(v): G.labels[v] for v in sorted(G.labels)}
    return obj


def graph_from_json_obj(obj: object) -> FiniteGraph:
    if not isinstance(obj, dict):
        raise InputError("graph JSON must be an object")
    unknown = set(obj) - GRAPH_JSON_KEYS
    if unknown:
        raise InputError(f"unknown graph JSON keys: {sorted(unknown)}")
    try:
        vertices = obj["vertices"]
        edges = obj["edges"]
    except KeyError as exc:
        raise InputError(f"graph JSON missing key {exc}") from None
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise InputError("graph JSON: 'vertices' and 'edges' must be arrays")
    labels_raw = obj.get("labels")
    labels: dict[int, str] | None = None
    if labels_raw is not None:
        if not isinstance(labels_raw, dict):
            raise InputError("graph JSON: 'labels' must be an object")
        labels = {}
        for k, s in labels_raw.items():
            # int() reads "00", " 0" and "+0" as 0 too
            try:
                v = int(k)
            except ValueError:
                v = None
            if str(v) != k:
                raise InputError(f"label key {k!r} is not a canonical integer id")
            if not isinstance(s, str):
                raise InputError(f"label of vertex {k} must be a string, got {s!r}")
            labels[v] = s
    return FiniteGraph.from_edges(vertices, edges, labels=labels)


def cycle_to_json_obj(C: Cycle) -> list[int]:
    return list(C.order)


def ids_from_json_obj(obj: object, what: str) -> tuple[int, ...]:
    """A JSON array of vertex ids; anything but plain integers is refused."""
    if not isinstance(obj, list) or not (
        set(map(type, obj)) <= {int}
        or all(isinstance(v, int) and not isinstance(v, bool) for v in obj)
    ):
        raise InputError(f"{what} JSON must be an array of integer ids")
    return tuple(obj)


def cycle_from_json_obj(obj: object) -> Cycle:
    return Cycle(ids_from_json_obj(obj, "cycle"))


def graph_to_dot(
    G: FiniteGraph, highlight: Iterable[Edge] = (), name: str = "G"
) -> str:
    """Graphviz source for the graph, optionally bolding a set of edges;
    each label is quoted, with its backslashes and double quotes escaped."""
    hset = {canonical_edge(*e) for e in highlight}
    lines = [f"graph {name} {{"]
    for v in G.vertices:
        if G.labels is not None and v in G.labels:
            label = G.labels[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in G.edges():
        attr = " [color=red, penwidth=2.0]" if (u, v) in hset else ""
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
