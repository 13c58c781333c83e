import pytest

import hamext.infinite as infinite
from hamext.errors import InputError, InvariantViolation
from hamext.families import fiber_vertices, gen_G, gen_G_inf, gen_H_inf
from hamext.graphcore import BALL_RADIUS_MAX, Cycle, FiniteGraph, LazyGraph
from hamext.oracle import random_star_clawfree
from hamext.structure import decompose, minimal_ray_blocker
from hamext.verify import component_walk
from separators import (
    minimal_separators,
    verify_complete_attachment,
    verify_two_components,
)


def four_cycle_on_home_fibers(G):
    a, b = fiber_vertices(G.descriptor, 0)[:2]
    c, d = fiber_vertices(G.descriptor, 1)[:2]
    return Cycle((a, c, b, d))


def test_blocker_on_width_two_family():
    G = gen_G_inf(2)
    C = four_cycle_on_home_fibers(G)
    S = minimal_ray_blocker(G, C)
    want = set(fiber_vertices(G.descriptor, -1)) | set(fiber_vertices(G.descriptor, 2))
    assert S == frozenset(want)
    # decompose refuses a blocker that does not block or is not minimal
    decompose(G, C.order, S)
    assert not any(G.escapes(S, v) for v in C.order)
    # inclusion-minimal: every vertex is load-bearing
    for s in S:
        assert any(G.escapes(S - {s}, v) for v in C.order)


def test_decompose_after_blocker_asks_the_oracle_only_about_pieces(monkeypatch):
    # minimal_ray_blocker probes from the least vertex of C, as decompose
    # does, so decompose's blocking and minimality queries are answered
    # from the cache: the oracle is asked only whether a piece escapes
    base = gen_G_inf(2)
    calls = []

    def oracle(blocked, v):
        calls.append((blocked, v))
        return base._escape_oracle(blocked, v)

    G = LazyGraph(
        base.neighbors, oracle, base.root, base.end_rays, base.descriptor,
        base.representatives,
    )
    asked = []

    def recording(G, X, script_S, **kw):
        start = len(calls)
        decomp = decompose(G, X, script_S, **kw)
        asked.append((frozenset(X), frozenset(script_S), calls[start:]))
        return decomp

    monkeypatch.setattr(infinite, "decompose", recording)
    infinite.hamilton_sequence(G, 12)
    assert len(asked) == 12
    for X, S, queries in asked:
        assert queries
        for blocked, v in queries:
            assert blocked == S and v not in X and v not in S


def test_blocker_on_width_three_family():
    G = gen_G_inf(3)
    desc = G.descriptor
    order = []
    for v0, v1 in zip(fiber_vertices(desc, 0), fiber_vertices(desc, 1)):
        order += [v0, v1]
    C = Cycle(tuple(order))
    S = minimal_ray_blocker(G, C)
    want = set(fiber_vertices(desc, -1)) | set(fiber_vertices(desc, 2))
    assert S == frozenset(want)
    assert len(S) == 6


def test_blocker_rejects_finite_graph():
    finite = FiniteGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    G = LazyGraph(
        finite.neighbors, lambda blocked, v: False, root=0
    )
    with pytest.raises(InputError, match="not infinite"):
        minimal_ray_blocker(G, Cycle((0, 1, 2, 3)))


def test_blocker_rejects_broken_cycle():
    G = gen_G_inf(2)
    with pytest.raises(InputError):
        minimal_ray_blocker(G, Cycle((0, 1, 8)))


def test_decompose_width_two():
    G = gen_G_inf(2)
    desc = G.descriptor
    C = four_cycle_on_home_fibers(G)
    S = minimal_ray_blocker(G, C)
    D = decompose(G, C.order, S)
    assert D.k == 2
    assert D.finite_component == frozenset(C.order)
    assert D.parts[0] == frozenset(fiber_vertices(desc, -1))
    assert D.parts[1] == frozenset(fiber_vertices(desc, 2))
    assert D.script_S == S
    # the parts partition the blocker
    assert frozenset().union(*D.parts) == D.script_S
    assert sum(len(p) for p in D.parts) == len(D.script_S)
    # each infinite component is handed out as its piece in the ball
    left, right = D.infinite_components
    assert type(left) is type(right) is frozenset
    assert left | right <= D.ball.vertex_set
    assert fiber_vertices(desc, -2)[0] in left
    assert fiber_vertices(desc, 3)[0] in right
    assert fiber_vertices(desc, 3)[0] not in left
    assert min(S) not in left


def test_decompose_pieces_enumerate():
    G = gen_G_inf(2)
    C = four_cycle_on_home_fibers(G)
    D = decompose(G, C.order, minimal_ray_blocker(G, C))
    left = D.infinite_components[0]
    # fibers -5..-2 lie in the negative-side piece, the separator fiber
    # -1 does not
    for f in (-5, -4, -3, -2):
        assert all(v in left for v in fiber_vertices(G.descriptor, f))
    assert not any(v in left for v in fiber_vertices(G.descriptor, -1))


def test_decompose_rejects_one_sided_blocker():
    G = gen_G_inf(2)
    C = four_cycle_on_home_fibers(G)
    one_side = frozenset(fiber_vertices(G.descriptor, 2))
    with pytest.raises(InputError, match="not ray-blocking"):
        decompose(G, C.order, one_side)


def test_decompose_rejects_bloated_blocker():
    G = gen_G_inf(2)
    C = four_cycle_on_home_fibers(G)
    S = minimal_ray_blocker(G, C)
    fat = S | {fiber_vertices(G.descriptor, 3)[0]}
    with pytest.raises(InputError, match="not inclusion-minimal"):
        decompose(G, C.order, fat)


def test_decompose_rejects_overlap_and_empty():
    G = gen_G_inf(2)
    C = four_cycle_on_home_fibers(G)
    S = minimal_ray_blocker(G, C)
    with pytest.raises(InputError):
        decompose(G, C.order, S | {C.order[0]})
    with pytest.raises(InputError):
        decompose(G, (), S)


def test_decompose_stress_family_with_claws():
    # the alternating family is not claw-free, and decompose refuses it
    G = gen_H_inf(6)
    desc = G.descriptor
    X = tuple(fiber_vertices(desc, 0)) + tuple(fiber_vertices(desc, 1))
    S = set(fiber_vertices(desc, -1)) | set(fiber_vertices(desc, 2))
    with pytest.raises(InputError, match="claw"):
        decompose(G, X, S)


def test_two_components_on_path():
    P3 = FiniteGraph.from_edges(range(3), [(0, 1), (1, 2)])
    v = verify_two_components(P3, {1})
    assert v.ok and v.component_count == 2
    assert v.components == (frozenset({0}), frozenset({2}))


def test_two_components_on_ring_of_cliques():
    G = gen_G(6, 2)
    seps = minimal_separators(G, max_size=4)
    assert seps  # fiber pairs do separate the ring
    for S in seps:
        v = verify_two_components(G, S)
        assert v.ok, f"separator {sorted(S)} gave {v.component_count} components"


def test_two_components_rejects_claw():
    star = FiniteGraph.from_edges(range(4), [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(InputError, match="claw"):
        verify_two_components(star, {0})


def test_two_components_rejects_non_minimal():
    P5 = FiniteGraph.from_edges(range(5), [(i, i + 1) for i in range(4)])
    with pytest.raises(InputError, match="not inclusion-minimal"):
        verify_two_components(P5, {1, 3})
    with pytest.raises(InputError, match="does not separate"):
        verify_two_components(P5, {0})


def test_complete_attachment_on_path():
    P3 = FiniteGraph.from_edges(range(3), [(0, 1), (1, 2)])
    assert verify_complete_attachment(P3, {1}).ok


def test_complete_attachment_on_ring_of_cliques():
    G = gen_G(6, 2)
    for S in minimal_separators(G, max_size=4):
        assert verify_complete_attachment(G, S).ok


def test_separator_regressions_on_corpus():
    """Verified statements stay verified on sampled claw-free graphs."""
    checked = 0
    for seed in range(120):
        G = random_star_clawfree(seed)
        if len(G.vertices) > 12:
            continue
        for S in minimal_separators(G, max_size=5):
            assert verify_two_components(G, S).ok
            assert verify_complete_attachment(G, S).ok
            checked += 1
    assert checked > 50


def test_empty_set_never_blocks_rays():
    G = gen_G_inf(2)
    assert G.escapes(frozenset(), 0)


def test_component_walk_search_is_capped():
    G = gen_G_inf(2)
    desc = G.descriptor
    C = four_cycle_on_home_fibers(G)
    S = minimal_ray_blocker(G, C)
    far = fiber_vertices(desc, -8)[0]
    beyond = fiber_vertices(desc, -BALL_RADIUS_MAX - 8)[0]
    # the two components as a ball of radius 2 sees them: it holds
    # fibers -2..3, and fiber -8 is six hops out
    seen = frozenset(v for f in range(-2, 4) for v in fiber_vertices(desc, f))
    left, right = (
        component_walk(G, S, frozenset(fiber_vertices(desc, f)), (seen,))
        for f in (-2, 3)
    )
    # fiber -(cap + 8) is cap + 6 hops out
    for walk in (left, right):
        with pytest.raises(InputError, match="search cap 64$"):
            walk(beyond)
    assert left(far)
    assert not right(far)
