"""Generator families and their frozen structural identities.

The ring-of-cliques family has uniform degree 3n-1.  The alternating
star/clique family has three distinct degrees; its degree condition
holds exactly when n is large enough to cover the cross-fiber cases.
"""

import hashlib
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from hamext import families
from hamext.errors import InputError, InvariantViolation
from hamext.families import (
    MAX_FINITE_EDGES,
    _make_double_ray_family,
    descriptor_to_lazy,
    family_width,
    fiber_of,
    fiber_vertices,
    fiber_window,
    gen_G,
    gen_G_inf,
    gen_H,
    gen_H_inf,
    unzigzag,
    zigzag,
)
from hamext.graphcore import LazyGraph, ball, dumps_json, graph_to_json_obj


def test_gen_G_small_sizes():
    G = gen_G(3, 2)  # collapses to the complete graph on 6 vertices
    assert len(G.vertices) == 6 and len(G.edges()) == 15
    G = gen_G(4, 2)
    assert len(G.vertices) == 8 and len(G.edges()) == 20
    G = gen_G(5, 2)
    assert len(G.vertices) == 10 and len(G.edges()) == 25


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (5, 3), (6, 4), (8, 2)])
def test_gen_G_degree_identity(q, n):
    G = gen_G(q, n)
    assert len(G.vertices) == q * n
    assert all(G.degree(v) == 3 * n - 1 for v in G.vertices)


def test_gen_G_labels():
    G = gen_G(3, 2)
    assert G.labels[0] == "0:0"
    assert G.labels[5] == "2:1"


def test_gen_G_rejects_small_params():
    with pytest.raises(InputError):
        gen_G(2, 2)
    with pytest.raises(InputError):
        gen_G(3, 1)


def test_gen_H_sizes():
    H = gen_H(2, 6)
    assert len(H.vertices) == 20 and len(H.edges()) == 132
    assert sorted({H.degree(v) for v in H.vertices}) == [13, 15]
    H = gen_H(3, 5)
    assert len(H.vertices) == 27 and len(H.edges()) == 159


def test_gen_H_degree_identities():
    # star-fiber centers: 3 + 2n; star-fiber leaves: 1 + 2n;
    # clique-fiber vertices: (n - 1) + 8
    H = gen_H(3, 7)
    degs = sorted({H.degree(v) for v in H.vertices})
    assert degs == [7 + 7, 2 * 7 + 1, 2 * 7 + 3]


def test_gen_H_rejects_small_params():
    with pytest.raises(InputError):
        gen_H(1, 4)
    with pytest.raises(InputError):
        gen_H(2, 1)


@pytest.mark.parametrize(
    "make, q, n, digest",
    [
        (gen_G, 9, 20, "9fb6bddfd9b79bca2986a3ce0325f672"),
        (gen_G, 500, 4, "095f4abb7febbca5d9e5813e199cda1c"),
        (gen_G, 30, 3, "0777baa6c46ff762a2a7e246e4bb30d2"),
        (gen_H, 3, 5, "277c3e22ef8c7b193234247afc62f642"),
        (gen_H, 40, 7, "4717549dacda4061e730a5d0f1f13df4"),
    ],
)
def test_finite_generators_keep_their_bytes(make, q, n, digest):
    # the md5 of the JSON that `gen` prints, ids, edges and labels, as
    # recorded before both rings were built from the fiber layout table
    text = dumps_json(graph_to_json_obj(make(q, n)))
    assert hashlib.md5(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "ring, ray, period", [(gen_G, gen_G_inf, 1), (gen_H, gen_H_inf, 2)]
)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_rings_are_the_double_rays_cyclic_quotients(ring, ray, period, n):
    # each ring vertex's row, in (fiber, inner) coordinates, is the row of
    # the same vertex of the double ray with fibers taken mod the ring's
    q = 4
    G, lazy = ring(q, n), ray(n)
    fibers = q * period
    width = family_width(lazy.descriptor)

    def ring_coordinates(v):
        f, i = G.labels[v].split(":")
        return int(f), int(i)

    def ray_coordinates(v):
        return unzigzag(v // width) % fibers, v % width

    for v in G.vertices:
        f, i = ring_coordinates(v)
        row = lazy.neighbors(zigzag(f) * width + i)
        want = sorted(map(ray_coordinates, row))
        assert sorted(map(ring_coordinates, G.neighbors(v))) == want, (f, i)


def test_finite_generators_refuse_graphs_over_the_budget():
    # refused from the counts alone: building these would take terabytes
    for make in (gen_G, gen_H):
        with pytest.raises(InputError, match="at most 1000000"):
            make(10**8, 100)
    assert MAX_FINITE_EDGES == 10**6


def test_budget_counts_match_the_graphs_built(monkeypatch):
    # with the budget set to a graph's exact size it is built, one less
    # and it is refused
    cases = [
        (lambda: gen_G(5, 3), gen_G(5, 3)),
        (lambda: gen_G(3, 4), gen_G(3, 4)),
        (lambda: gen_H(3, 5), gen_H(3, 5)),
        (lambda: gen_H(2, 2), gen_H(2, 2)),
    ]
    for make, G in cases:
        size = max(len(G.vertices), len(G.edges()))
        monkeypatch.setattr(families, "MAX_FINITE_EDGES", size)
        assert make() == G
        monkeypatch.setattr(families, "MAX_FINITE_EDGES", size - 1)
        with pytest.raises(InputError):
            make()
        monkeypatch.undo()


@given(st.integers(min_value=-200, max_value=200))
def test_zigzag_round_trip(f):
    z = zigzag(f)
    assert z >= 0
    assert unzigzag(z) == f


def test_zigzag_is_bijective_on_window():
    zs = {zigzag(f) for f in range(-50, 51)}
    assert zs == set(range(101))


def test_infinite_family_fibers():
    G = gen_G_inf(2)
    # width-2 ids: fiber = unzigzag(v // 2)
    assert unzigzag(G.root // 2) == 0
    assert [unzigzag(v // 2) for v in (2, 3, 4, 5)] == [-1, -1, 1, 1]
    assert fiber_vertices(G.descriptor, 1) == (4, 5)
    assert fiber_vertices(G.descriptor, -1) == (2, 3)
    assert fiber_window(G.descriptor, 1) == frozenset({0, 1, 2, 3, 4, 5})


def test_infinite_neighbor_structure():
    G = gen_G_inf(2)
    # fiber partner plus both full adjacent fibers
    assert G.neighbors(0) == (1, 2, 3, 4, 5)
    H = gen_H_inf(3)
    assert H.neighbors(H.root) == (1, 2, 3, 4, 5, 6, 8, 9, 10)
    # leaves of a star fiber are pairwise non-adjacent
    assert not H.adjacent(1, 2)
    with pytest.raises(InputError):
        G.neighbors(-1)


def test_complete_fibers_need_no_edge_list():
    # the generators hold nothing that grows with n
    import tracemalloc

    tracemalloc.start()
    try:
        gen_G_inf(10**9)
        gen_H_inf(10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("make, star_fibers", [(gen_G_inf, False), (gen_H_inf, True)])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_complete_fibers_match_edge_lists(make, star_fibers, n):
    lazy = make(n)
    width = max(4, n) if star_fibers else n

    def size(f):
        return 4 if star_fibers and f % 2 == 0 else n

    def edges(f):
        if star_fibers and f % 2 == 0:
            return [(0, 1), (0, 2), (0, 3)]
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    listed = _make_double_ray_family(size, edges, width, lazy.descriptor)
    for v in ball(lazy, lazy.root, 4).vertices:
        assert lazy.neighbors(v) == listed.neighbors(v)


def reference_double_ray_neighbors(fiber_size, fiber_edges, width):
    """The double-ray neighbour oracle as it was before fibers became id
    ranges: one ``encode`` call per neighbour, then one sort."""

    def encode(f, i):
        return zigzag(f) * width + i

    def decode(v):
        if v < 0:
            raise InputError(f"invalid vertex id {v}")
        f = unzigzag(v // width)
        i = v % width
        if i >= fiber_size(f):
            raise InputError(f"invalid vertex id {v} (inner index out of range)")
        return f, i

    def neighbors(v):
        f, i = decode(v)
        inner = fiber_edges(f)
        if inner is None:
            out = [encode(f, j) for j in range(fiber_size(f)) if j != i]
        else:
            out = [encode(f, b) for a, b in inner if a == i]
            out += [encode(f, a) for a, b in inner if b == i]
        for g in (f - 1, f + 1):
            out.extend(encode(g, j) for j in range(fiber_size(g)))
        return tuple(sorted(out))

    return neighbors


def _oracle_outcome(oracle, v):
    try:
        return oracle(v)
    except InputError as exc:
        return "InputError", str(exc)


@pytest.mark.parametrize("make, star_fibers", [(gen_G_inf, False), (gen_H_inf, True)])
@pytest.mark.parametrize("n", [2, 3, 5, 20])
def test_range_oracle_matches_per_neighbour_encoding(make, star_fibers, n):
    width = max(4, n) if star_fibers else n

    def size(f):
        return 4 if star_fibers and f % 2 == 0 else n

    def edges(f):
        return [(0, 1), (0, 2), (0, 3)] if star_fibers and f % 2 == 0 else None

    oracle = make(n)._neighbor_oracle
    reference = reference_double_ray_neighbors(size, edges, width)
    # negative ids and, on HZn, star-fiber ids past inner index 3 are invalid
    for v in range(-3, 2000):
        assert _oracle_outcome(oracle, v) == _oracle_outcome(reference, v), v


def frozen_range_neighbors(fiber_size, fiber_edges, width):
    """The double-ray neighbour oracle as it was before each complete
    fiber kept one sorted closed neighbourhood: up to three id ranges,
    merged and sorted on every call."""

    def fiber(f):
        base = zigzag(f) * width
        return range(base, base + fiber_size(f))

    def decode(v):
        if v < 0:
            raise InputError(f"invalid vertex id {v}")
        f = unzigzag(v // width)
        i = v % width
        if i >= fiber_size(f):
            raise InputError(f"invalid vertex id {v} (inner index out of range)")
        return f, i

    def neighbors(v):
        f, i = decode(v)
        out = [*fiber(f - 1), *fiber(f + 1)]
        inner = fiber_edges(f)
        if inner is None:
            out += fiber(f)
            out.remove(v)
        else:
            base = v - i
            out += [base + b for a, b in inner if a == i]
            out += [base + a for a, b in inner if b == i]
        out.sort()
        return tuple(out)

    return neighbors


@pytest.mark.parametrize(
    "make, n",
    [(gen_G_inf, 2), (gen_G_inf, 3), (gen_G_inf, 5), (gen_G_inf, 40),
     (gen_H_inf, 2), (gen_H_inf, 3)],
)
def test_closed_neighbourhood_oracle_matches_range_formula(make, n):
    star_fibers = make is gen_H_inf
    width = max(4, n) if star_fibers else n

    def size(f):
        return 4 if star_fibers and f % 2 == 0 else n

    def edges(f):
        return [(0, 1), (0, 2), (0, 3)] if star_fibers and f % 2 == 0 else None

    reference = frozen_range_neighbors(size, edges, width)
    # every slot of fibers -20..20: on HZn with n < 4 the slots of a
    # clique fiber past n are ids no fiber holds
    ids = [zigzag(f) * width + i for f in range(-20, 21) for i in range(width)]
    ids.append(-1)
    # a fresh oracle per order: a fiber's neighbourhood is first built
    # for its first, its last or a middle vertex
    for order in (ids, ids[::-1], random.Random(n).sample(ids, len(ids))):
        oracle = make(n)._neighbor_oracle
        for v in order:
            assert _oracle_outcome(oracle, v) == _oracle_outcome(reference, v), v


def test_invalid_ids_keep_their_messages():
    G = gen_G_inf(2)
    with pytest.raises(InputError, match=r"^invalid vertex id -1$"):
        G.neighbors(-1)
    # HZ2 has width 4 and two-vertex clique fibers: id 11 is slot 3 of
    # fiber 1, whose vertices are 8 and 9; refused before and after the
    # fiber's neighbourhood is built
    H = gen_H_inf(2)
    message = r"^invalid vertex id 11 \(inner index out of range\)$"
    with pytest.raises(InputError, match=message):
        H.neighbors(11)
    assert H.neighbors(8) == (0, 1, 2, 3, 9, 16, 17, 18, 19)
    with pytest.raises(InputError, match=message):
        H.neighbors(11)


def test_self_loop_oracle_is_refused():
    G = LazyGraph(lambda v: (v - 1, v, v + 1), lambda blocked, v: True, root=0)
    with pytest.raises(InvariantViolation, match="self-loop at 5"):
        G.neighbors(5)


def test_infinite_neighbor_symmetry_near_root():
    for G in (gen_G_inf(3), gen_H_inf(4)):
        B = ball(G, G.root, 3)
        for v in B.vertices:
            if v in B.frontier:
                continue
            for w in G.neighbors(v):
                assert v in G.neighbors(w)


def test_escape_oracle_scenarios():
    G = gen_G_inf(2)
    desc = G.descriptor
    both = frozenset(
        v for f in (-1, 1) for v in fiber_vertices(desc, f)
    )
    # fiber 0 is caged between two fully blocked fibers
    assert not G.escapes(both, 0)
    assert G.escapes(both, fiber_vertices(desc, 2)[0])
    assert G.escapes(both, fiber_vertices(desc, -2)[0])
    one_side = frozenset(fiber_vertices(desc, 1))
    assert G.escapes(one_side, 0)  # still free toward negative fibers
    half = frozenset({fiber_vertices(desc, 1)[0], fiber_vertices(desc, -1)[0]})
    assert G.escapes(half, 0)  # holes in the wall


def test_escape_agrees_with_ball_reachability():
    # brute-force cross-check inside a radius-7 ball
    G = gen_G_inf(3)
    desc = G.descriptor
    blocked = frozenset(
        v for f in (-2, -1, 0, 1, 2) for v in fiber_vertices(desc, f)
    )
    B = ball(G, G.root, 7)
    far = {v for v in B.vertices if abs(unzigzag(v // 3)) >= 6}
    for v in sorted(B.vertex_set - blocked):
        if abs(unzigzag(v // 3)) > 4:
            continue
        reach = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in B.neighbors(u):
                if w not in reach and w not in blocked:
                    reach.add(w)
                    stack.append(w)
        assert G.escapes(blocked, v) == bool(reach & far)


def test_descriptor_round_trip():
    for make, name in ((gen_G_inf, "GZn"), (gen_H_inf, "HZn")):
        G = make(3)
        assert G.descriptor["family"] == name
        H = descriptor_to_lazy(G.descriptor)
        assert H.neighbors(H.root) == G.neighbors(G.root)
    with pytest.raises(InputError):
        descriptor_to_lazy({"family": "nope", "params": {"n": 2}})
    with pytest.raises(InputError):
        descriptor_to_lazy({"family": "GZn", "params": {}})


# descriptors that name no graph: each coordinate helper and generator
# refuses them with descriptor_to_lazy's message
REFUSED_DESCRIPTORS = [{"family": "GZn"}, {"family": "HZn", "params": {}}] + [
    {"family": family, "params": {"n": n}}
    for family in ("GZn", "HZn")
    for n in (0, 1, -2, "3", 2.5, True)
]


@pytest.mark.parametrize("desc", REFUSED_DESCRIPTORS, ids=repr)
def test_coordinate_helpers_refuse_what_descriptor_to_lazy_refuses(desc):
    with pytest.raises(InputError) as refused:
        descriptor_to_lazy(desc)
    message = f"^{re.escape(str(refused.value))}$"
    readers = [
        family_width,
        lambda d: fiber_of(d, 5),
        lambda d: fiber_vertices(d, 1),
        lambda d: fiber_window(d, 2),
    ]
    if "n" in desc.get("params", {}):
        make = {"GZn": gen_G_inf, "HZn": gen_H_inf}[desc["family"]]
        readers.append(lambda d: make(d["params"]["n"]))
    for read in readers:
        with pytest.raises(InputError, match=message):
            read(desc)


def _walk_escapes(G, blocked, v):
    """Reference escape oracle by graph walk: a DFS from v that escapes
    once it leaves the fiber span of the blocked set."""
    width = family_width(G.descriptor)

    def fiber(u):
        return unzigzag(u // width)

    if not blocked:
        return True
    span = [fiber(b) for b in blocked]
    lo, hi = min(span), max(span)
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        if not lo <= fiber(u) <= hi:
            return True
        for w in G.neighbors(u):
            if w not in blocked and w not in seen:
                seen.add(w)
                stack.append(w)
    return False


@pytest.mark.parametrize(
    "make, n", [(gen_G_inf, 2), (gen_G_inf, 3), (gen_H_inf, 2), (gen_H_inf, 3)]
)
def test_fiber_count_escape_matches_graph_walk(make, n):
    G = make(n)
    desc = G.descriptor
    rng = random.Random(20 + n)
    fibers = {f: fiber_vertices(desc, f) for f in range(-9, 10)}
    seen_cases = Counter()
    for _ in range(400):
        # each fiber of a random window is fully blocked, partly
        # blocked or free
        lo = rng.randint(-6, 2)
        blocked = set()
        full = []
        for f in range(lo, lo + rng.randint(1, 5)):
            mode = rng.random()
            if mode < 0.3:
                blocked.update(fibers[f])
                full.append(f)
            elif mode < 0.7:
                blocked.update(rng.sample(fibers[f], rng.randint(1, len(fibers[f]) - 1)))
        blocked = frozenset(blocked)
        span = [f for f in fibers if set(fibers[f]) & blocked]
        for f in range(-9, 10):
            for v in fibers[f]:
                if v in blocked:
                    continue
                want = _walk_escapes(G, blocked, v)
                assert G.escapes(blocked, v) == want, (sorted(blocked), v)
                sides = (any(g < f for g in full), any(g > f for g in full))
                seen_cases[sides] += 1
                if f - 1 in full or f + 1 in full:
                    seen_cases["next to a full fiber"] += 1
                if not blocked or not min(span) <= f <= max(span):
                    seen_cases["outside the span"] += 1
                seen_cases[want] += 1
    # every shape of the rule was exercised, both verdicts included
    for case in ((True, True), (True, False), (False, True), (False, False),
                 "next to a full fiber", "outside the span", True, False):
        assert seen_cases[case] > 0, case


def test_fiber_count_escape_edge_cases():
    G = gen_G_inf(2)
    desc = G.descriptor
    left, right = fiber_vertices(desc, -2), fiber_vertices(desc, 1)
    walled = frozenset(left + right)
    # v right next to a full fiber on each side, and outside the span
    for f, want in ((-1, False), (0, False), (-3, True), (2, True), (7, True)):
        for v in fiber_vertices(desc, f):
            assert G.escapes(walled, v) is want
            assert _walk_escapes(G, walled, v) is want
    # a wall with one hole lets everything out
    assert G.escapes(frozenset(left + right[:1]), 0)
    # v outside the span of a partial blocked set
    assert G.escapes(frozenset(right[:1]), fiber_vertices(desc, -5)[0])
    # invalid ids still raise, the queried vertex first
    with pytest.raises(InputError):
        G.escapes(frozenset(), -1)
    with pytest.raises(InputError):
        G.escapes(frozenset({-1}), 0)
    with pytest.raises(InputError, match="id -2"):
        G.escapes(frozenset({-3}), -2)
    with pytest.raises(InputError):
        gen_H_inf(2).escapes(frozenset({6}), 0)  # inner 2 of a 2-vertex fiber


def frozen_decode_escapes(fiber_size, width):
    """The double-ray escape oracle as it was before it decoded blocked
    ids inline: one decode call per id, counted per fiber."""

    def decode(v):
        if v < 0:
            raise InputError(f"invalid vertex id {v}")
        f = unzigzag(v // width)
        i = v % width
        if i >= fiber_size(f):
            raise InputError(f"invalid vertex id {v} (inner index out of range)")
        return f, i

    def escapes(blocked, v):
        f, _ = decode(v)
        if not blocked:
            return True
        counts = {}
        for b in blocked:
            g = decode(b)[0]
            counts[g] = counts.get(g, 0) + 1
        full = [g for g, c in counts.items() if c == fiber_size(g)]
        return not (any(g < f for g in full) and any(g > f for g in full))

    return escapes


@pytest.mark.parametrize(
    "make, n", [(gen_G_inf, 2), (gen_G_inf, 3), (gen_H_inf, 2), (gen_H_inf, 3)]
)
def test_inline_escape_oracle_matches_decoding_one(make, n):
    G = make(n)
    oracle, desc = G._escape_oracle, G.descriptor
    width = family_width(desc)
    reference = frozen_decode_escapes(
        lambda f: len(fiber_vertices(desc, f)), width
    )
    fibers = {f: fiber_vertices(desc, f) for f in range(-8, 9)}
    valid = [v for ids in fibers.values() for v in ids]
    # ids no vertex has: negative ones, and on HZ2 and HZ3 the slots of
    # a clique fiber past n
    invalid = [-1, -2, -width - 1] + [
        zigzag(f) * width + i
        for f in range(-8, 9)
        for i in range(len(fibers[f]), width)
    ]
    rng = random.Random(90 + n)
    seen = Counter()
    for _ in range(600):
        blocked = set()
        for f in range(rng.randint(-7, 3), rng.randint(-3, 8)):
            if rng.random() < 0.4:
                blocked.update(fibers[f])
            else:
                blocked.update(rng.sample(fibers[f], rng.randint(0, len(fibers[f]))))
        blocked.update(rng.sample(invalid, rng.choice((0, 0, 0, 1, 2))))
        blocked = frozenset(blocked)
        v = rng.choice(valid) if rng.random() < 0.95 else rng.choice(invalid)
        want = _oracle_outcome(lambda u: reference(blocked, u), v)
        got = _oracle_outcome(lambda u: oracle(blocked, u), v)
        assert got == want, (sorted(blocked), v)
        if isinstance(want, bool):
            seen[want] += 1
        else:
            seen["empty slot" if "inner index" in want[1] else "negative id"] += 1
    # both verdicts, and refusals of negative ids and of empty slots
    assert len(seen) == 3 + (make is gen_H_inf), seen
    assert min(seen.values()) > 10, seen


# ---------------------------------------------------------------------------
# fibers too wide to hold


def test_fiber_helpers_refuse_id_lists_over_the_trace_budget():
    # gen accepts GZn with n = 10**9; a fiber of it, or a window, holds
    # more ids than a trace may store, and both are refused from the
    # layout's counts before any id is built
    import time
    import tracemalloc

    desc = {"family": "GZn", "params": {"n": 10**9}}
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(InputError, match="fiber -1 would hold 1000000000 "):
            fiber_vertices(desc, -1)
        with pytest.raises(InputError, match="-2 .. 2 would hold 5000000000 "):
            fiber_window(desc, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 64 * 1024


@pytest.mark.parametrize("family", ["GZn", "HZn"])
@pytest.mark.parametrize("n", [2, 5])
def test_window_id_count_is_exact(monkeypatch, family, n):
    # the count from one period's fiber sizes is the window's size: a
    # budget of exactly that passes, one id less is refused
    desc = {"family": family, "params": {"n": n}}
    for half_width in range(6):
        ids = len(fiber_window(desc, half_width))
        monkeypatch.setattr(families, "MAX_TRACE_IDS", ids)
        assert len(fiber_window(desc, half_width)) == ids
        monkeypatch.setattr(families, "MAX_TRACE_IDS", ids - 1)
        with pytest.raises(InputError, match=f"would hold {ids} vertex ids"):
            fiber_window(desc, half_width)
        monkeypatch.undo()


def test_rows_over_the_budget_are_refused_before_they_are_built():
    # a row of 3 * 10**8 entries would exhaust memory; the oracle refuses
    # it from the fiber sizes, as input, before building it
    with pytest.raises(InputError, match="vertex 0 has 299999999 neighbours"):
        gen_G_inf(10**8).neighbors(0)
    # the star centre of HZn's fiber 0: both neighbouring fibers and its leaves
    with pytest.raises(InputError, match="vertex 0 has 200000003 neighbours"):
        gen_H_inf(10**8).neighbors(0)
    from hamext.infinite import hamilton_sequence

    with pytest.raises(InputError, match="299999999 neighbours"):
        hamilton_sequence(gen_G_inf(10**8), 1)


def test_the_neighbour_cache_is_refused_past_its_budget(monkeypatch):
    # a GZ2 trace read as a GZ10 one: every id lies in fiber 0 or 1, whose
    # rows hold 29 entries, so the verifier's third row passes a budget of 60
    from hamext import graphcore
    from hamext.infinite import hamilton_sequence
    from hamext.trace import SequenceTrace
    from hamext.verify import verify_hc_extract

    obj = json.loads(hamilton_sequence(gen_G_inf(2), 3).to_json())
    obj["descriptor"]["params"]["n"] = 10
    trace = SequenceTrace.from_json_obj(obj)
    monkeypatch.setattr(graphcore, "MAX_CACHED_NEIGHBORS", 60)
    with pytest.raises(InputError, match="neighbour cache would hold over 60 entries"):
        verify_hc_extract(trace)
    G = gen_G_inf(10)
    assert len(G.neighbors(0)) + len(G.neighbors(1)) == 58
    with pytest.raises(InputError, match="over 60 entries"):
        G.neighbors(2)
