"""Example-family generators, finite and infinite.

Every family is a sequence of fibers, each a complete graph or a
four-vertex star, with consecutive fibers completely joined.  One table
gives each double-ray family's fibers for its parameter n: the ids per
fiber (its width), the size of fiber f, its inner edges and a period p
such that fiber f looks like fiber f mod p.  GZn has complete fibers of
size n; HZn alternates stars (class A, on even fibers, inner index 0 the
centre) with complete fibers of size n (class B).  The finite families
close q periods of those fibers into a cycle: G(q,n) is q fibers of
GZn, H(q,n) is 2q fibers of HZn.

Vertex ids follow documented bijections from (fiber, inner) coordinates:

* finite rings: fibers are laid out consecutively from id 0, fiber f
  labelled ``"f:i"``, so G(q,n) has ``id = fiber * n + inner``;
* double-ray families: the fiber index is folded to a non-negative
  integer by the zigzag map ``f >= 0 -> 2f``, ``f < 0 -> -2f - 1`` and
  the id is ``zigzag(f) * width + inner``.

Escape oracles for the double-ray families are exact and walk no graph.
A free vertex reaches every free vertex of both neighbouring fibers and
only a fully blocked fiber stops it: ``v`` escapes ``F`` iff no fiber on
one of the two sides of ``v``'s fiber is fully blocked.  The answer
comes from per-fiber blocked counts in O(|F|).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from itertools import accumulate, combinations, product

from .errors import InputError
from .graphcore import MAX_REGION_NEIGHBORS, MAX_TRACE_IDS, FiniteGraph, LazyGraph

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
# finite rings


def _ring(family: str, q: int, n: int) -> FiniteGraph:
    """q periods of a double ray's fibers around a cycle, consecutive
    fibers completely joined.  Fibers take consecutive ids from 0, and
    vertex i of fiber f is labelled ``"f:i"``."""
    maker, name, least_q, ray = RINGS[family]
    if q < least_q:
        raise InputError(f"{maker.__name__} requires q >= {least_q}")
    if n < 2:
        raise InputError(f"{maker.__name__} requires n >= 2")
    _, size, inner, period = DOUBLE_RAYS[ray][1](n)
    # one period's vertices, and its fibers' inner edges and edges to the
    # next fiber, q times
    per_edges = sum(
        size(f) * (size(f) - 1) // 2 if inner(f) is None else len(inner(f))
        for f in range(period)
    ) + sum(size(f) * size(f + 1) for f in range(period))
    per_vertices = sum(map(size, range(period)))
    _within_budget(f"{name}({q},{n})", q * per_vertices, q * per_edges)
    starts = list(accumulate(map(size, range(q * period)), initial=0))
    fibers = [range(a, b) for a, b in zip(starts, starts[1:])]
    labels = {
        v: f"{f}:{i}" for f, ids in enumerate(fibers) for i, v in enumerate(ids)
    }
    edges: list[tuple[int, int]] = []
    for f, ids in enumerate(fibers):
        pairs = inner(f)
        if pairs is None:
            edges += combinations(ids, 2)
        else:
            edges += [(ids[a], ids[b]) for a, b in pairs]
        edges += product(ids, fibers[(f + 1) % len(fibers)])
    return FiniteGraph.from_edges(range(starts[-1]), edges, labels=labels)


def gen_G(q: int, n: int) -> FiniteGraph:
    """Ring of cliques G(q,n): q complete fibers of size n around a
    cycle.  Every vertex has degree 3n - 1.  Vertex id = fiber * n +
    inner."""
    return _ring("Gqn", q, n)


def gen_H(q: int, n: int) -> FiniteGraph:
    """H(q,n): 2q fibers around a cycle, alternating a 4-vertex star
    (even fibers, inner 0 the centre) and a complete fiber of size n."""
    return _ring("H2qn", q, n)


# ---------------------------------------------------------------------------
# double-ray (infinite) families


def zigzag(f: int) -> int:
    return 2 * f if f >= 0 else -2 * f - 1


def unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def _make_double_ray_family(
    fiber_size: Callable[[int], int],
    fiber_edges: Callable[[int], Sequence[tuple[int, int]] | None],
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
    return descriptor_to_lazy({"family": "GZn", "params": {"n": n}})


def gen_H_inf(n: int) -> LazyGraph:
    """Alternating star/clique fibers over the integers; even fibers are
    class A stars.  Id bijection: ``zigzag(f) * max(4, n) + i``."""
    return descriptor_to_lazy({"family": "HZn", "params": {"n": n}})


# ---------------------------------------------------------------------------
# the family table

_STAR = ((0, 1), (0, 2), (0, 3))

# double-ray family -> its generator, and its layout for n: the ids per
# fiber (width), the size of fiber f, the inner edges of fiber f (None
# for a complete fiber) and a period p, such that fiber f looks like
# fiber f mod p
DOUBLE_RAYS = {
    "GZn": (gen_G_inf, lambda n: (n, lambda f: n, lambda f: None, 1)),
    "HZn": (
        gen_H_inf,
        lambda n: (
            max(4, n),
            lambda f: n if f % 2 else 4,
            lambda f: None if f % 2 else _STAR,
            2,
        ),
    ),
}

# finite family -> its generator, the graph's name in messages, the
# least number q of periods, and the double ray whose periods it closes
# into a cycle
RINGS = {"Gqn": (gen_G, "G", 3, "GZn"), "H2qn": (gen_H, "H", 2, "HZn")}


# ---------------------------------------------------------------------------
# descriptors and coordinate helpers


def _layout(desc: Mapping[str, object]) -> tuple:
    """The family and n of a double-ray descriptor, then its layout,
    ``(family, n, width, fiber_size, fiber_edges, period)``.  Every
    reader of a descriptor goes through here, so each refuses what
    descriptor_to_lazy refuses, with its message."""
    if not isinstance(desc, Mapping):
        raise InputError("descriptor must be a JSON object")
    family = desc.get("family")
    if not isinstance(family, str):
        raise InputError(f"descriptor family must be a string, got {family!r}")
    if family not in DOUBLE_RAYS:
        raise InputError(f"unknown infinite family {family!r}")
    params = desc.get("params")
    if not isinstance(params, Mapping) or "n" not in params:
        raise InputError("descriptor params must contain n")
    n = params["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError("descriptor parameter n must be an integer")
    maker, layout = DOUBLE_RAYS[family]
    if n < 2:
        raise InputError(f"{maker.__name__} requires n >= 2")
    return (family, n, *layout(n))


def descriptor_to_lazy(desc: Mapping[str, object]) -> LazyGraph:
    """Rebuild an infinite family from its descriptor JSON object."""
    family, n, width, size, inner, period = _layout(desc)
    descriptor = {"family": family, "params": {"n": n}}
    return _make_double_ray_family(size, inner, width, descriptor, period)


def family_width(desc: Mapping[str, object]) -> int:
    return _layout(desc)[2]


def _ids_within_budget(what: str, ids: int) -> None:
    """Refuse a list of more than MAX_TRACE_IDS vertex ids, from its
    count, before any id of it is built."""
    if ids > MAX_TRACE_IDS:
        raise InputError(
            f"{what} would hold {ids} vertex ids; at most {MAX_TRACE_IDS} are listed"
        )


def fiber_vertices(desc: Mapping[str, object], f: int) -> tuple[int, ...]:
    """All vertex ids of one fiber of an infinite family; a fiber of
    more than MAX_TRACE_IDS ids is refused before any is built."""
    _, _, width, size, _, _ = _layout(desc)
    _ids_within_budget(f"fiber {f}", size(f))
    base = zigzag(f) * width
    return tuple(range(base, base + size(f)))


def fiber_of(desc: Mapping[str, object], v: int) -> int:
    """The fiber of vertex id ``v`` of an infinite family."""
    return unzigzag(v // family_width(desc))


def fiber_window(desc: Mapping[str, object], half_width: int) -> frozenset[int]:
    """Vertex ids of fibers -half_width .. half_width.  A window of more
    than MAX_TRACE_IDS ids is refused before any is built.  The ids are
    counted from one period p, with no loop over the fibers: fiber r,
    for r = 0 .. p - 1, is as large as each fiber f of the window with
    f = r mod p."""
    if half_width < 0:
        raise InputError("window half-width must be non-negative")
    _, _, _, size, _, period = _layout(desc)
    ids = sum(
        size(r) * ((half_width - r) // period - (-half_width - 1 - r) // period)
        for r in range(period)
    )
    _ids_within_budget(f"the window of fibers -{half_width} .. {half_width}", ids)
    out: set[int] = set()
    for f in range(-half_width, half_width + 1):
        out.update(fiber_vertices(desc, f))
    return frozenset(out)
