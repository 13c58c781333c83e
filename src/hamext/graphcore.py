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
rather than answer wrongly.

All public containers are deterministic: vertices ascending, neighbour
lists ascending, components ordered by smallest member.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from .errors import InputError, InvariantViolation

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Order an undirected edge as a ``(min, max)`` pair."""
    return (u, v) if u <= v else (v, u)


# ---------------------------------------------------------------------------
# finite graphs


@dataclass(frozen=True)
class FiniteGraph:
    """Immutable simple undirected graph.

    ``adj`` maps every vertex to its sorted neighbour tuple.  ``frontier``
    is non-empty only for graphs produced by :func:`ball`: it marks the
    vertices whose neighbour lists may be truncated by the exploration
    radius.  ``labels`` optionally carries human-readable vertex names
    (family generators use coordinate labels); it never affects equality
    of the combinatorial data callers should rely on.
    """

    vertices: tuple[int, ...]
    adj: Mapping[int, tuple[int, ...]]
    frontier: frozenset[int] = frozenset()
    labels: Mapping[int, str] | None = None
    _adjsets: Mapping[int, frozenset[int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_adjsets", {v: frozenset(nbrs) for v, nbrs in self.adj.items()}
        )

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
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise InputError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
            nbrs[u].add(v)
            nbrs[v].add(u)
        if labels is not None:
            unknown = set(labels) - vset
            if unknown:
                raise InputError(f"labels for unknown vertices: {sorted(unknown)}")
        return FiniteGraph(
            vertices=tuple(sorted(vset)),
            adj={v: tuple(sorted(nbrs[v])) for v in sorted(vset)},
            labels=dict(labels) if labels is not None else None,
        )

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

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edges(self) -> list[Edge]:
        """All edges as canonical pairs, sorted."""
        out = []
        for u in self.vertices:
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(len(self.adj[v]) for v in self.vertices) // 2

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
        if not self.vertices:
            return True
        return len(components(self)) == 1


# ---------------------------------------------------------------------------
# lazy graphs


class LazyGraph:
    """Locally finite infinite graph behind a pair of pure oracles.

    ``neighbor_oracle(v)`` returns the full sorted neighbour tuple of
    ``v``; ``escape_oracle(F, v)`` decides whether ``v`` lies in an
    infinite component of ``G - F`` for finite ``F`` not containing
    ``v``.  Both must be pure, which lets this wrapper memoize them;
    shared concurrent reads are safe in the usual CPython sense.

    ``end_rays`` optionally names the ends of the graph and provides,
    for each, a ray ``t -> vertex`` converging to it (the shipped
    double-ray families expose ``left`` and ``right``).  ``descriptor``
    carries the construction recipe when the graph came from a family
    generator, so traces can be re-verified from serialized form.
    """

    def __init__(
        self,
        neighbor_oracle: Callable[[int], tuple[int, ...]],
        escape_oracle: Callable[[frozenset[int], int], bool],
        root: int,
        end_rays: Mapping[str, Callable[[int], int]] | None = None,
        descriptor: Mapping[str, object] | None = None,
    ) -> None:
        self._neighbor_oracle = neighbor_oracle
        self._escape_oracle = escape_oracle
        self.root = root
        self.end_rays = dict(end_rays) if end_rays else {}
        self.descriptor = dict(descriptor) if descriptor is not None else None
        self._nbr_cache: dict[int, tuple[int, ...]] = {}
        self._esc_cache: dict[tuple[frozenset[int], int], bool] = {}

    def neighbors(self, v: int) -> tuple[int, ...]:
        cached = self._nbr_cache.get(v)
        if cached is None:
            cached = tuple(self._neighbor_oracle(v))
            if any(w == v for w in cached):
                raise InvariantViolation(f"neighbor oracle reports a self-loop at {v}")
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


@dataclass(frozen=True)
class Cycle:
    """Oriented cycle given by its vertex order.

    The orientation is semantic: ``succ``/``pred`` define the successor
    map that the extension operators rely on.  At least three distinct
    vertices are required.
    """

    order: tuple[int, ...]
    _index: Mapping[int, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if len(self.order) < 3:
            raise InputError("a cycle needs at least three vertices")
        idx = dict(zip(self.order, range(len(self.order))))
        if len(idx) < len(self.order):
            seen: set[int] = set()
            for v in self.order:
                if v in seen:
                    raise InputError(f"repeated vertex {v} in cycle")
                seen.add(v)
        object.__setattr__(self, "_index", idx)

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, v: int) -> bool:
        return v in self._index

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.order)

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
        n = len(self.order)
        return [
            canonical_edge(self.order[i], self.order[(i + 1) % n]) for i in range(n)
        ]

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())


@dataclass(frozen=True)
class CycleReport:
    """Outcome of :func:`verify_cycle`."""

    ok: bool
    reason: str | None = None
    is_hamiltonian: bool = False


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


def distances_from(G: FiniteGraph, sources: Iterable[int]) -> dict[int, int]:
    """BFS distances from a source set within a finite graph."""
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in sorted(set(sources)):
        if not G.has_vertex(s):
            raise InputError(f"unknown source vertex {s}")
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        for w in G.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def neighborhood_k(G: GraphLike, X: Iterable[int], k: int) -> frozenset[int]:
    """Vertices at distance between 1 and ``k`` from the set ``X``.

    Finitely many neighbour queries on a lazy graph; ``X`` itself is
    excluded, matching the convention used by the separator machinery.
    """
    if k < 0:
        raise InputError("neighbourhood depth must be non-negative")
    xset = set(X)
    if not xset:
        return frozenset()
    if isinstance(G, FiniteGraph):
        for v in xset:
            if not G.has_vertex(v):
                raise InputError(f"unknown vertex {v}")
    seen = set(xset)
    ring = sorted(xset)
    found: set[int] = set()
    for _ in range(k):
        nxt: set[int] = set()
        for u in ring:
            for w in G.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        found |= nxt
        ring = sorted(nxt)
        if not ring:
            break
    return frozenset(found)


DEFAULT_BALL_RADIUS_MAX = 64


def _ball_radius_cap() -> int:
    import os

    raw = os.environ.get("HAMEXT_BALL_RADIUS_MAX")
    if raw is None:
        return DEFAULT_BALL_RADIUS_MAX
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"HAMEXT_BALL_RADIUS_MAX must be an integer, got {raw!r}") from None
    if cap < 0:
        raise InputError("HAMEXT_BALL_RADIUS_MAX must be non-negative")
    return cap


def ball(G: LazyGraph, center: int | Iterable[int], radius: int) -> FiniteGraph:
    """Induced subgraph on ``center`` and everything within ``radius``.

    ``center`` may be a single vertex or a set of sources.  Vertices at
    distance exactly ``radius`` form the frontier: they are present, and
    edges among ball members are complete, but their own neighbour lists
    extend beyond the ball.  Exploration is capped by the
    ``HAMEXT_BALL_RADIUS_MAX`` environment variable as a guard against
    runaway queries on adversarial oracles.

    Symmetry of the neighbour oracle is validated on every edge with
    both endpoints interior.
    """
    if radius < 0:
        raise InputError("ball radius must be non-negative")
    cap = _ball_radius_cap()
    if radius > cap:
        raise InputError(
            f"ball radius {radius} exceeds HAMEXT_BALL_RADIUS_MAX={cap}"
        )
    if isinstance(center, int):
        center = (center,)
    cset = sorted(set(center))
    if not cset:
        raise InputError("ball needs a non-empty center")
    dist = {v: 0 for v in cset}
    ring = list(cset)
    for d in range(1, radius + 1):
        nxt = []
        for u in ring:
            for w in G.neighbors(u):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        ring = sorted(nxt)
    members = frozenset(dist)
    adj = {}
    for v in sorted(members):
        adj[v] = tuple(w for w in G.neighbors(v) if w in members)
    for v, nbrs in adj.items():
        if dist[v] >= radius:
            continue
        for w in nbrs:
            if dist[w] < radius and v not in adj[w]:
                raise InvariantViolation(
                    f"neighbor oracle is asymmetric on pair ({v}, {w})"
                )
    frontier = frozenset(v for v in members if dist[v] == radius)
    return FiniteGraph(vertices=tuple(sorted(members)), adj=adj, frontier=frontier)


def components(
    G: FiniteGraph, removed: Iterable[int] = ()
) -> list[frozenset[int]]:
    """Connected components of ``G - removed``, ordered by smallest member."""
    rset = frozenset(removed)
    missing = rset - G.vertex_set
    if missing:
        raise InputError(f"cannot remove unknown vertices: {sorted(missing)}")
    unseen = set(G.vertices) - rset
    out: list[frozenset[int]] = []
    for start in G.vertices:
        if start not in unseen:
            continue
        comp = {start}
        unseen.discard(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in G.adj[u]:
                if w in unseen:
                    unseen.discard(w)
                    comp.add(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


# ---------------------------------------------------------------------------
# serialization

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
            try:
                labels[int(k)] = str(s)
            except ValueError:
                raise InputError(f"label key {k!r} is not an integer id") from None
    return FiniteGraph.from_edges(vertices, [tuple(e) for e in edges], labels=labels)


def cycle_to_json_obj(C: Cycle) -> list[int]:
    return list(C.order)


def ids_from_json_obj(obj: object, what: str) -> tuple[int, ...]:
    """A JSON array of vertex ids; anything but plain integers is refused."""
    if not isinstance(obj, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in obj
    ):
        raise InputError(f"{what} JSON must be an array of integer ids")
    return tuple(obj)


def cycle_from_json_obj(obj: object) -> Cycle:
    return Cycle(ids_from_json_obj(obj, "cycle"))


def graph_to_dot(
    G: FiniteGraph, highlight: Iterable[Edge] = (), name: str = "G"
) -> str:
    """Graphviz source for the graph, optionally bolding a set of edges."""
    hset = {canonical_edge(*e) for e in highlight}
    lines = [f"graph {name} {{"]
    for v in G.vertices:
        if G.labels is not None and v in G.labels:
            lines.append(f'  {v} [label="{G.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in G.edges():
        attr = " [color=red, penwidth=2.0]" if (u, v) in hset else ""
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
