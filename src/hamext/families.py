"""Example-family generators, finite and infinite.

The finite families are lexicographic products of a cycle with a
complete graph, and an alternating construction that glues four-vertex
star fibers (class A) to complete fibers (class B) around an even
cycle.  The infinite variants replace the cycle by a double ray.

Vertex ids follow documented bijections from (fiber, inner) coordinates:

* finite products: ``id = fiber * n + inner``;
* the alternating family: fibers are laid out consecutively, class A
  fibers contributing 4 ids and class B fibers ``n`` ids;
* double-ray families: the fiber index is folded to a non-negative
  integer by the zigzag map ``f >= 0 -> 2f``, ``f < 0 -> -2f - 1`` and
  the id is ``zigzag(f) * width + inner`` with a fixed per-family width.

Class A fibers sit on even fiber indices, and inner index 0 is the star
center.  Escape oracles for the double-ray families are exact and walk
no graph.  Edges stay inside a fiber or join consecutive fibers, and
consecutive fibers are completely joined, so a free vertex reaches every
free vertex of both neighbouring fibers and only a fully blocked fiber
stops it: ``v`` escapes ``F`` iff no fiber on one of the two sides of
``v``'s fiber is fully blocked.  The answer comes from per-fiber blocked
counts in O(|F|).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from .errors import InputError
from .graphcore import MAX_REGION_NEIGHBORS, FiniteGraph, LazyGraph

# The most vertices and the most edges a finite generator builds.  An
# edge costs about 500 bytes on its way into a FiniteGraph and out as
# JSON, so a graph at the budget peaks near 0.5 GB.
MAX_FINITE_EDGES = 10**6


def _within_budget(what: str, vertices: int, edges: int) -> None:
    """Refuse a graph larger than MAX_FINITE_EDGES, from its counts,
    before anything of it is allocated."""
    if max(vertices, edges) > MAX_FINITE_EDGES:
        raise InputError(
            f"{what} would have {vertices} vertices and {edges} edges; "
            f"at most {MAX_FINITE_EDGES} of each are built"
        )


# ---------------------------------------------------------------------------
# small building blocks


def complete_graph(n: int) -> FiniteGraph:
    if n < 1:
        raise InputError("complete graph needs at least one vertex")
    return FiniteGraph.from_edges(
        range(n), [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def cycle_graph(q: int) -> FiniteGraph:
    if q < 3:
        raise InputError("cycle graph needs at least three vertices")
    return FiniteGraph.from_edges(range(q), [(i, (i + 1) % q) for i in range(q)])


# ---------------------------------------------------------------------------
# lexicographic product


def lexicographic_product(G: FiniteGraph, H: FiniteGraph) -> FiniteGraph:
    """Graph on V(G) x V(H); (u1,h1)(u2,h2) is an edge iff u1u2 is an
    edge of G, or u1 = u2 and h1h2 is an edge of H.

    Ids are ``index(u) * |V(H)| + index(h)`` over the sorted vertex
    orders, labelled ``"u:h"`` with the original ids.
    """
    if not G.vertices or not H.vertices:
        raise InputError("lexicographic product needs non-empty factors")
    ng, nh = len(G.vertices), len(H.vertices)
    eg, eh = (sum(map(len, F.adj.values())) // 2 for F in (G, H))
    _within_budget("the lexicographic product", ng * nh, eg * nh * nh + ng * eh)
    gidx = {u: i for i, u in enumerate(G.vertices)}
    hidx = {h: i for i, h in enumerate(H.vertices)}
    ids = {}
    labels = {}
    for u in G.vertices:
        for h in H.vertices:
            vid = gidx[u] * nh + hidx[h]
            ids[(u, h)] = vid
            labels[vid] = f"{u}:{h}"
    edges = []
    for u1, u2 in G.edges():
        for h1 in H.vertices:
            for h2 in H.vertices:
                edges.append((ids[(u1, h1)], ids[(u2, h2)]))
    for u in G.vertices:
        for h1, h2 in H.edges():
            edges.append((ids[(u, h1)], ids[(u, h2)]))
    return FiniteGraph.from_edges(ids.values(), edges, labels=labels)


# ---------------------------------------------------------------------------
# finite families


def gen_G(q: int, n: int) -> FiniteGraph:
    """Ring-of-cliques family: cycle of length q, complete fibers of
    size n, consecutive fibers completely joined.  Every vertex has
    degree 3n - 1.  Vertex id = fiber * n + inner.
    """
    if q < 3:
        raise InputError("gen_G requires q >= 3")
    if n < 2:
        raise InputError("gen_G requires n >= 2")
    # n(n-1)/2 edges inside each fiber, n^2 to the next one
    _within_budget(f"G({q},{n})", q * n, q * (n * (n - 1) // 2 + n * n))
    return lexicographic_product(cycle_graph(q), complete_graph(n))


def _h_fiber_size(f: int, n: int) -> int:
    return 4 if f % 2 == 0 else n


def gen_H(q: int, n: int) -> FiniteGraph:
    """Alternating star/clique family over a cycle of length 2q.

    Even fibers are class A (a 4-vertex star: inner 0 the center, 1..3
    the leaves), odd fibers are class B (complete on n vertices), and
    consecutive fibers are completely joined.
    """
    if q < 2:
        raise InputError("gen_H requires q >= 2")
    if n < 2:
        raise InputError("gen_H requires n >= 2")
    # per pair of fibers: a star, a clique, and 4n edges to each neighbour
    _within_budget(f"H({q},{n})", q * (4 + n), q * (3 + n * (n - 1) // 2 + 8 * n))
    fibers = 2 * q
    offsets = []
    total = 0
    for f in range(fibers):
        offsets.append(total)
        total += _h_fiber_size(f, n)

    def vid(f: int, i: int) -> int:
        return offsets[f] + i

    labels = {}
    edges = []
    for f in range(fibers):
        size = _h_fiber_size(f, n)
        for i in range(size):
            labels[vid(f, i)] = f"{f}:{i}"
        if f % 2 == 0:
            edges.extend((vid(f, 0), vid(f, leaf)) for leaf in (1, 2, 3))
        else:
            edges.extend(
                (vid(f, i), vid(f, j)) for i in range(size) for j in range(i + 1, size)
            )
        g = (f + 1) % fibers
        for i in range(size):
            for j in range(_h_fiber_size(g, n)):
                edges.append((vid(f, i), vid(g, j)))
    return FiniteGraph.from_edges(range(total), edges, labels=labels)


# ---------------------------------------------------------------------------
# double-ray (infinite) families


def zigzag(f: int) -> int:
    return 2 * f if f >= 0 else -2 * f - 1


def unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def _make_double_ray_family(
    fiber_size: Callable[[int], int],
    fiber_edges: Callable[[int], list[tuple[int, int]] | None],
    width: int,
    descriptor: Mapping[str, object],
    period: int | None = None,
) -> LazyGraph:
    """Shared machinery: fibers indexed by all integers, consecutive
    fibers completely joined, inner structure per fiber.

    ``period`` is a p such that ``fiber_size(f)`` and ``fiber_edges(f)``
    depend only on f mod p.  Shifting every fiber by p is then an
    automorphism, so every vertex is the image of one in fibers 0 ..
    p - 1, and the graph lists those as its representatives.

    ``fiber_edges(f)`` lists the inner edges of fiber f, or is None for
    a complete fiber, whose inner neighbours come from its index range
    without any edge list.  Each fiber's ids are one range, so a
    neighbour tuple is up to three ranges, sorted.  Every vertex of a
    complete fiber has the same closed neighbourhood: it is sorted once
    per fiber, and a vertex's neighbours are that tuple without it.  A
    row longer than MAX_REGION_NEIGHBORS is refused before it is built."""

    def encode(f: int, i: int) -> int:
        return zigzag(f) * width + i

    def fiber(f: int) -> range:
        base = zigzag(f) * width
        return range(base, base + fiber_size(f))

    def decode(v: int) -> tuple[int, int]:
        if v < 0:
            raise InputError(f"invalid vertex id {v}")
        f = unzigzag(v // width)
        i = v % width
        if i >= fiber_size(f):
            raise InputError(f"invalid vertex id {v} (inner index out of range)")
        return f, i

    # zigzag(f) of a complete fiber f -> its sorted closed neighbourhood,
    # the position of the fiber's first id in it, and the fiber's size
    closed: dict[int, tuple[tuple[int, ...], int, int]] = {}

    def neighbors(v: int) -> tuple[int, ...]:
        z, i = divmod(v, width)
        entry = closed.get(z)
        if entry is None or i >= entry[2]:
            # a fiber not kept yet, a star fiber, or an id past the kept
            # fiber's size, which decode refuses
            f, i = decode(v)
            base = v - i
            inner = fiber_edges(f)
            own = fiber_size(f) - 1 if inner is None else sum(i in e for e in inner)
            length = fiber_size(f - 1) + own + fiber_size(f + 1)
            if length > MAX_REGION_NEIGHBORS:
                raise InputError(
                    f"vertex {v} has {length} neighbours, over the "
                    f"{MAX_REGION_NEIGHBORS} neighbour entries a run may hold"
                )
            if inner is not None:
                out = [*fiber(f - 1), *fiber(f + 1)]
                out += [base + b for a, b in inner if a == i]
                out += [base + a for a, b in inner if b == i]
                out.sort()
                return tuple(out)
            near = tuple(sorted([*fiber(f - 1), *fiber(f), *fiber(f + 1)]))
            entry = closed[z] = near, near.index(base), fiber_size(f)
        near, at, _ = entry
        at += i
        return near[:at] + near[at + 1 :]

    def escapes(blocked: frozenset[int], v: int) -> bool:
        # the fiber-count rule of the module docstring; each blocked id
        # is decoded inline, and one that decode refuses is handed to
        # it, in the set's order, for its message
        f, _ = decode(v)
        if not blocked:
            return True
        counts: dict[int, int] = {}
        for b in blocked:
            z, i = divmod(b, width)
            g = (z >> 1) ^ -(z & 1)  # unzigzag(z)
            if b < 0 or i >= fiber_size(g):
                decode(b)
            counts[g] = counts.get(g, 0) + 1
        full = [g for g, c in counts.items() if c == fiber_size(g)]
        return not (any(g < f for g in full) and any(g > f for g in full))

    return LazyGraph(
        neighbor_oracle=neighbors,
        escape_oracle=escapes,
        root=encode(0, 0),
        end_rays={
            "left": lambda t: encode(-t, 0),
            "right": lambda t: encode(t, 0),
        },
        descriptor=descriptor,
        representatives=(
            None if period is None else tuple(map(fiber, range(period)))
        ),
    )


def gen_G_inf(n: int) -> LazyGraph:
    """Double-ray-of-cliques family: complete fibers of size n over the
    integers.  Id bijection: ``zigzag(f) * n + i``."""
    if n < 2:
        raise InputError("gen_G_inf requires n >= 2")
    return _make_double_ray_family(
        fiber_size=lambda f: n,
        fiber_edges=lambda f: None,
        width=n,
        descriptor={"family": "GZn", "params": {"n": n}},
        period=1,
    )


def gen_H_inf(n: int) -> LazyGraph:
    """Alternating star/clique fibers over the integers; even fibers are
    class A stars.  Id bijection: ``zigzag(f) * max(4, n) + i``."""
    if n < 2:
        raise InputError("gen_H_inf requires n >= 2")
    star = [(0, 1), (0, 2), (0, 3)]
    return _make_double_ray_family(
        fiber_size=lambda f: _h_fiber_size(f, n),
        fiber_edges=lambda f: star if f % 2 == 0 else None,
        width=max(4, n),
        descriptor={"family": "HZn", "params": {"n": n}},
        period=2,
    )


# ---------------------------------------------------------------------------
# descriptors and coordinate helpers

_INFINITE_FAMILIES = {"GZn": gen_G_inf, "HZn": gen_H_inf}
_FINITE_FAMILIES = {"Gqn": gen_G, "H2qn": gen_H}


def _infinite_family(desc: Mapping[str, object]) -> str:
    """The descriptor's family name, refused unless it is a known string."""
    family = desc.get("family")
    if not isinstance(family, str):
        raise InputError(f"descriptor family must be a string, got {family!r}")
    if family not in _INFINITE_FAMILIES:
        raise InputError(f"unknown infinite family {family!r}")
    return family


def descriptor_to_lazy(desc: Mapping[str, object]) -> LazyGraph:
    """Rebuild an infinite family from its descriptor JSON object."""
    if not isinstance(desc, Mapping):
        raise InputError("descriptor must be a JSON object")
    family = _infinite_family(desc)
    params = desc.get("params")
    if not isinstance(params, Mapping) or "n" not in params:
        raise InputError("descriptor params must contain n")
    n = params["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError("descriptor parameter n must be an integer")
    return _INFINITE_FAMILIES[family](n)


def family_width(desc: Mapping[str, object]) -> int:
    family = _infinite_family(desc)
    n = int(desc["params"]["n"])  # type: ignore[index, arg-type]
    return n if family == "GZn" else max(4, n)


def fiber_vertices(desc: Mapping[str, object], f: int) -> tuple[int, ...]:
    """All vertex ids of one fiber of an infinite family."""
    width = family_width(desc)
    family = desc["family"]
    n = int(desc["params"]["n"])  # type: ignore[index, arg-type]
    size = n if family == "GZn" else _h_fiber_size(f, n)
    return tuple(zigzag(f) * width + i for i in range(size))


def fiber_of(desc: Mapping[str, object], v: int) -> int:
    """The fiber of vertex id ``v`` of an infinite family."""
    return unzigzag(v // family_width(desc))


def fiber_window(desc: Mapping[str, object], half_width: int) -> frozenset[int]:
    """Vertex ids of fibers -half_width .. half_width."""
    if half_width < 0:
        raise InputError("window half-width must be non-negative")
    out: set[int] = set()
    for f in range(-half_width, half_width + 1):
        out.update(fiber_vertices(desc, f))
    return frozenset(out)
