import pytest

from hamext.conditions import check_star, is_claw_free
from hamext.errors import InputError, SamplingExhausted
from hamext.families import gen_G
from hamext.graphcore import FiniteGraph, verify_cycle
from hamext.oracle import hamilton_oracle, random_star_clawfree
from separators import components, minimal_separators


def complete(n):
    return FiniteGraph.from_edges(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return FiniteGraph.from_edges(range(10), edges)


def test_oracle_finds_cycle_in_complete_graph():
    G = complete(6)
    C = hamilton_oracle(G)
    assert C is not None
    report = verify_cycle(G, C)
    assert report.ok and report.is_hamiltonian


def test_oracle_refuses_star_and_path():
    star = FiniteGraph.from_edges(range(4), [(0, 1), (0, 2), (0, 3)])
    assert hamilton_oracle(star) is None
    P5 = FiniteGraph.from_edges(range(5), [(i, i + 1) for i in range(4)])
    assert hamilton_oracle(P5) is None


def test_oracle_refuses_petersen():
    # the classic hypohamiltonian example; exercises the full search
    assert hamilton_oracle(petersen()) is None


def test_oracle_handles_ring_of_cliques():
    for q, n in [(5, 2), (4, 3), (7, 3)]:
        G = gen_G(q, n)
        if len(G.vertices) > 22:
            continue
        C = hamilton_oracle(G)
        assert C is not None
        assert verify_cycle(G, C).is_hamiltonian


def test_oracle_size_bound():
    with pytest.raises(InputError):
        hamilton_oracle(complete(23))
    assert hamilton_oracle(complete(10), bound=12) is not None


def test_oracle_tiny_graphs():
    assert hamilton_oracle(complete(2)) is None
    assert hamilton_oracle(FiniteGraph.from_edges([0], [])) is None


def test_minimal_separators_frozen_cases():
    P4 = FiniteGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    assert minimal_separators(P4) == [frozenset({1}), frozenset({2})]
    C4 = FiniteGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert minimal_separators(C4) == [frozenset({0, 2}), frozenset({1, 3})]
    assert minimal_separators(complete(5)) == []
    spider = FiniteGraph.from_edges(range(4), [(0, 1), (0, 2), (0, 3)])
    assert minimal_separators(spider) == [frozenset({0})]


def test_minimal_separators_every_member_sees_every_component():
    G = gen_G(5, 2)
    for S in minimal_separators(G, max_size=4):
        comps = components(G, removed=S)
        assert len(comps) >= 2
        for s in S:
            for comp in comps:
                assert any(G.adjacent(s, v) for v in comp)


def test_minimal_separators_size_guard():
    with pytest.raises(InputError):
        minimal_separators(complete(17))


def test_sampler_is_deterministic():
    a = random_star_clawfree(11)
    b = random_star_clawfree(11)
    assert a.vertices == b.vertices and a.edges() == b.edges()
    c = random_star_clawfree(12)
    assert (a.vertices, a.edges()) != (c.vertices, c.edges())


def test_sampler_output_contract():
    for seed in range(25):
        G = random_star_clawfree(seed)
        assert 4 <= len(G.vertices) <= 14
        assert G.is_connected()
        assert is_claw_free(G).claw_free
        assert check_star(G).holds


def test_sampler_bounds():
    with pytest.raises(InputError):
        random_star_clawfree(0, bound=15)
    with pytest.raises(SamplingExhausted):
        random_star_clawfree(0, attempts=0)
