import random
from functools import cached_property
from itertools import combinations, product

import pytest

from hamext import conditions
from hamext.errors import FrontierContamination, InputError, InvariantViolation
from hamext.families import gen_G, gen_G_inf, gen_H, gen_H_inf
from hamext.extension import extend_to_hamilton
from hamext.graphcore import FiniteGraph, ball, verify_cycle
from hamext.oracle import random_star_clawfree
from hamext.conditions import (
    ChainVerdict,
    ClawVerdict,
    StarVerdict,
    _RankTable,
    _chain_on_classes,
    _claw_at,
    _claw_near,
    _star_fails_near,
    _star_scan_at,
    check_star,
    check_star_ball,
    check_ungl_kette,
    claw_free_on_ball,
    induced_paths_3,
    is_claw_free,
)
from separators import components
from wholeball import distances_from


def star_k13():
    return FiniteGraph.from_edges(range(4), [(0, 1), (0, 2), (0, 3)])


def bull():
    # triangle with two horns; claw-free but fails the degree condition
    return FiniteGraph.from_edges(range(5), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])


def test_induced_paths_on_path_graph():
    P4 = FiniteGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    assert induced_paths_3(P4) == [(0, 1, 2), (1, 2, 3)]


def test_induced_paths_on_complete_graph():
    K4 = FiniteGraph.from_edges(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert induced_paths_3(K4) == []


def test_star_fails_on_k13():
    v = check_star(star_k13())
    assert not v.holds
    assert v.witness == (1, 0, 2)
    assert (v.lhs, v.rhs) == (2, 4)
    obj = v.to_json_obj()
    assert obj["witness"] == [1, 0, 2]
    assert obj["degree_sum"] == 2 and obj["union_size"] == 4


def test_star_fails_on_bull():
    v = check_star(bull())
    assert not v.holds and v.witness == (0, 1, 3)


def test_star_holds_on_ring_of_cliques():
    for q in range(3, 9):
        for n in range(2, 5):
            assert check_star(gen_G(q, n)).holds


def test_star_identity_at_q5():
    # at ring length 5 both sides of the inequality are tight multiples of n
    for n in (2, 3, 4):
        G = gen_G(5, n)
        for u, v, w in induced_paths_3(G):
            assert G.degree(u) + G.degree(w) == 6 * n - 2
            nu = set(G.neighbors(u)) | set(G.neighbors(v)) | set(G.neighbors(w))
            assert len(nu) == 5 * n


def test_star_boundary_for_alternating_family():
    for q in (2, 3):
        for n in (6, 7):
            assert check_star(gen_H(q, n)).holds
    v = check_star(gen_H(3, 5))
    assert not v.holds
    assert v.witness == (1, 4, 10)
    assert (v.lhs, v.rhs) == (22, 23)


def test_claw_detection():
    v = is_claw_free(star_k13())
    assert not v.claw_free
    assert v.witness == (0, (1, 2, 3))
    assert is_claw_free(bull()).claw_free
    assert is_claw_free(gen_G(5, 3)).claw_free
    # alternating family always has a claw at a star-fiber center
    w = is_claw_free(gen_H(2, 6))
    assert not w.claw_free
    center, leaves = w.witness
    assert center == 0 and leaves == (1, 2, 3)


def test_claw_verdict_json():
    obj = is_claw_free(star_k13()).to_json_obj()
    assert obj == {"claw_free": False, "witness": {"center": 0, "leaves": [1, 2, 3]}}


def test_ring_of_cliques_clawfree_sweep():
    for q in range(3, 9):
        for n in range(2, 5):
            assert is_claw_free(gen_G(q, n)).claw_free


def test_star_ball_on_infinite_families():
    G = gen_G_inf(2)
    assert check_star_ball(G, G.root, 5).holds
    H6 = gen_H_inf(6)
    assert check_star_ball(H6, H6.root, 5).holds
    H3 = gen_H_inf(3)
    v = check_star_ball(H3, H3.root, 5)
    assert not v.holds and v.scope == "ball"
    with pytest.raises(InputError):
        check_star_ball(G, G.root, 2)


def test_claw_free_on_ball_rejects_frontier_center():
    G = gen_G_inf(2)
    B = ball(G, G.root, 2)
    frontier_vertex = min(B.frontier)
    with pytest.raises(FrontierContamination):
        claw_free_on_ball(B, [frontier_vertex])
    interior = sorted(B.vertex_set - B.frontier)
    assert claw_free_on_ball(B, interior).claw_free


def test_chain_condition_on_ring_of_cliques():
    for q, n in [(5, 2), (5, 3), (6, 4)]:
        v = check_ungl_kette(gen_G(q, n))
        assert v.holds


def test_chain_condition_requires_star():
    with pytest.raises(InputError):
        check_ungl_kette(bull())


def test_chain_condition_counts():
    # on the q=5, n=2 ring: for any induced path u v w the middle vertex
    # contributes exactly n private neighbours and u, w share at least n
    G = gen_G(5, 2)
    for u, v, w in induced_paths_3(G):
        nu, nv, nw = (set(G.neighbors(x)) for x in (u, v, w))
        private = nv - nu - nw
        common = nu & nw
        assert len(common) >= len(private) >= 2


# ---------------------------------------------------------------------------
# differential tests: the mask detectors against the set-based scans they
# replaced, kept here as the reference


def ref_star_at(G, u, v, w):
    lhs = G.degree(u) + G.degree(w)
    return lhs, len(set(G.adj[u]) | set(G.adj[v]) | set(G.adj[w]))


def ref_check_star(G):
    for u, v, w in induced_paths_3(G):
        lhs, rhs = ref_star_at(G, u, v, w)
        if lhs < rhs:
            return StarVerdict(False, witness=(u, v, w), lhs=lhs, rhs=rhs)
    return StarVerdict(True)


def ref_check_star_ball(G, center, radius):
    if isinstance(center, int):
        center = (center,)
    B = ball(G, center, radius)
    dist = distances_from(B, set(center))
    eligible = {v for v in B.vertices if dist[v] <= radius - 2}
    for v in sorted(eligible):
        nbrs = B.adj[v]
        for a_pos, u in enumerate(nbrs):
            if u not in eligible:
                continue
            for w in nbrs[a_pos + 1 :]:
                if w not in eligible or B.adjacent(u, w):
                    continue
                lhs, rhs = ref_star_at(B, u, v, w)
                if lhs < rhs:
                    return StarVerdict(
                        False, witness=(u, v, w), lhs=lhs, rhs=rhs, scope="ball"
                    )
    return StarVerdict(True, scope="ball")


def ref_claw_at(G, v):
    nbrs = G.adj[v]
    for i, a in enumerate(nbrs):
        for j in range(i + 1, len(nbrs)):
            b = nbrs[j]
            if G.adjacent(a, b):
                continue
            for c in nbrs[j + 1 :]:
                if not G.adjacent(a, c) and not G.adjacent(b, c):
                    return (a, b, c)
    return None


def ref_claw_scan(G, centers):
    for v in centers:
        leaves = ref_claw_at(G, v)
        if leaves is not None:
            return ClawVerdict(False, witness=(v, leaves))
    return ClawVerdict(True)


def assert_same_verdicts(G):
    assert check_star(G) == ref_check_star(G)
    assert is_claw_free(G) == ref_claw_scan(G, G.vertices)


def relabel(G, rng):
    ids = list(range(len(G.vertices)))
    rng.shuffle(ids)
    perm = dict(zip(G.vertices, ids))
    return FiniteGraph.from_edges(ids, [(perm[u], perm[v]) for u, v in G.edges()])


def test_detectors_match_set_scans_on_corpus():
    for seed in range(60):
        assert_same_verdicts(random_star_clawfree(seed))


def test_detectors_match_set_scans_on_family_grids():
    rng = random.Random(3)
    failing = 0
    for q in range(3, 9):
        for n in range(2, 5):
            for G in (gen_G(q, n), relabel(gen_G(q, n), rng)):
                assert_same_verdicts(G)
    for q in (2, 3, 4):
        for n in range(2, 8):
            for G in (gen_H(q, n), relabel(gen_H(q, n), rng)):
                assert_same_verdicts(G)
                failing += not check_star(G).holds
    assert check_star(gen_H(3, 5)) == StarVerdict(False, witness=(1, 4, 10), lhs=22, rhs=23)
    assert failing > 0


def test_detectors_match_set_scans_on_random_graphs():
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(2000):
        n = rng.randint(1, 16)
        p = rng.uniform(0.05, 0.95)
        ids = rng.sample(range(-40, 40), n)
        edges = [
            (ids[i], ids[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        if n > 3 and rng.random() < 0.3:
            # isolate a few vertices
            lonely = set(rng.sample(ids, rng.randint(1, 3)))
            edges = [e for e in edges if not lonely & set(e)]
        G = FiniteGraph.from_edges(ids, edges)
        assert_same_verdicts(G)
        outcomes.add((G.is_connected(), check_star(G).holds, is_claw_free(G).claw_free))
    # every combination of connected, degree condition and claw-free occurs
    assert len(outcomes) == 8


@pytest.mark.parametrize(
    "family, n, claw_at_root",
    [("GZn", 2, False), ("GZn", 3, False), ("HZn", 2, True)],
)
def test_ball_detectors_match_set_scans(family, n, claw_at_root):
    G = gen_G_inf(n) if family == "GZn" else gen_H_inf(n)
    near = max(ball(G, G.root, 1).vertices)
    far = tuple(sorted(ball(G, G.root, 5).frontier)[:2])
    for radius in (3, 4, 5, 7):
        for center in (G.root, (G.root, near), far):
            assert check_star_ball(G, center, radius) == ref_check_star_ball(
                G, center, radius
            )
        B = ball(G, G.root, radius)
        interior = sorted(B.vertex_set - B.frontier)
        assert claw_free_on_ball(B, interior) == ref_claw_scan(B, interior)
        assert claw_free_on_ball(B, interior[1:]) == ref_claw_scan(B, interior[1:])
    v = claw_free_on_ball(ball(G, G.root, 3), [G.root])
    assert v.claw_free is not claw_at_root


@pytest.mark.parametrize("q", [100, 1000])
def test_rank_table_masks_stay_narrow(q):
    # a neighbourhood spans a few BFS layers whatever |V| is; masks over
    # plain id ranks would be up to 4q bits wide here
    G = relabel(gen_G(q, 4), random.Random(q))
    for table in (_RankTable(G.vertices, G.adj), _RankTable(*G.twin_quotient)):
        assert max(m.bit_length() for m in table.bits.values()) <= 32


# ---------------------------------------------------------------------------
# closed-twin classes: the finite checks visit one centre per class


def blow_up(base, sizes, ids):
    """G0[K_s]: vertex i of the base graph becomes a clique of sizes[i]
    vertices, and the cliques of adjacent base vertices are joined."""
    fibers, pos = [], 0
    for s in sizes:
        fibers.append(ids[pos : pos + s])
        pos += s
    edges = [(a, b) for f in fibers for i, a in enumerate(f) for b in f[i + 1 :]]
    edges += [(a, b) for i, j in base for a in fibers[i] for b in fibers[j]]
    return edges


def with_shuffled_adjacency(G, rng):
    """G with every neighbour tuple in a random order."""
    adj = {v: tuple(rng.sample(G.adj[v], len(G.adj[v]))) for v in G.vertices}
    return FiniteGraph(vertices=G.vertices, adj=adj)


def test_twin_classes_of_blow_ups():
    for q in (4, 10, 100):
        G = relabel(gen_G(q, 4), random.Random(q))
        centers, quotient, size = G.twin_quotient
        assert len(centers) == q and sorted(size.values()) == [4] * q
        # each class is named by its smallest id, and neighbours in the
        # quotient are classes again
        assert list(centers) == sorted(centers)
        assert all(set(quotient[v]) <= set(centers) for v in centers)
    # the star fibers' leaves have equal open but not closed neighbourhoods
    for q, n in ((2, 5), (3, 6)):
        centers, _, size = gen_H(q, n).twin_quotient
        assert len(centers) == 5 * q
        assert sorted(size.values()) == [1] * 4 * q + [n] * q


def test_twin_free_graphs_keep_the_per_vertex_table():
    rng = random.Random(8)
    for q in (9, 40, 300):
        ids = list(range(q))
        rng.shuffle(ids)
        C = FiniteGraph.from_edges(
            range(q), [(ids[i], ids[(i + d) % q]) for i in range(q) for d in (1, 2, 3)]
        )
        assert C.twin_quotient == (C.vertices, C.adj, None)
        plain = _RankTable(C.vertices, C.adj)
        for table in (
            _RankTable(*C.twin_quotient),
            _RankTable(C.vertices, C.adj, dict.fromkeys(C.vertices, 1)),
        ):
            assert (table.rank, table.lo, table.bits) == (plain.rank, plain.lo, plain.bits)


def assert_masks_flag_exactly(G):
    """The mask tests over the classes flag a centre exactly when the
    exact scans find a failure there, so no flagged centre is scanned
    in vain."""
    centers, quotient, size = G.twin_quotient
    star, claw = _RankTable(centers, quotient, size), _RankTable(centers, quotient)
    for v in centers:
        fails = _star_scan_at(G, v, G.adj[v]) is not None
        assert _star_fails_near(star, v, quotient[v]) is fails
        assert _claw_near(claw, v) is (_claw_at(G, v) is not None)


def test_detectors_match_set_scans_on_blow_ups():
    rng = random.Random(10)
    outcomes = set()
    with_twins = 0
    for i in range(2000):
        k = rng.randint(1, 7)
        p = rng.uniform(0.2, 0.9)
        base = [(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < p]
        sizes = [rng.randint(1, 4) for _ in range(k)]
        ids = rng.sample(range(-60, 61), sum(sizes))
        edges = blow_up(base, sizes, ids)
        # break some twins
        for _ in range(rng.randint(0, min(3, len(edges)))):
            edges.pop(rng.randrange(len(edges)))
        G = FiniteGraph.from_edges(ids, edges)
        if i % 4 == 0:
            G = with_shuffled_adjacency(G, rng)
        assert_same_verdicts(G)
        if i % 4 == 1:
            assert_masks_flag_exactly(G)
        with_twins += G.twin_quotient[2] is not None
        outcomes.add((check_star(G).holds, is_claw_free(G).claw_free))
    assert len(outcomes) == 4
    assert 1000 < with_twins < 2000
    for q in (2, 3, 4):
        for n in range(2, 8):
            G = relabel(gen_H(q, n), rng)
            assert_same_verdicts(G)
            assert_same_verdicts(with_shuffled_adjacency(G, rng))


def test_first_failing_class_is_named_by_its_smallest_id():
    # K_{1,3}[K_2] fails the degree condition and has claws only at the
    # centre class {0, 4}; neighbour tuples run in descending id order,
    # so 4 comes before 0 in every adjacency list
    ids = [4, 0, 7, 1, 6, 2, 5, 3]
    G = FiniteGraph.from_edges(ids, blow_up([(0, 1), (0, 2), (0, 3)], [2] * 4, ids))
    G = FiniteGraph(
        vertices=G.vertices, adj={v: G.adj[v][::-1] for v in G.vertices}
    )
    assert G.adj[7].index(4) < G.adj[7].index(0)
    assert check_star(G) == ref_check_star(G) == StarVerdict(
        False, witness=(7, 0, 6), lhs=6, rhs=8
    )
    assert is_claw_free(G) == ref_claw_scan(G, G.vertices) == ClawVerdict(
        False, witness=(0, (7, 6, 5))
    )


# ---------------------------------------------------------------------------
# the chain check over class triples, against the per-path scan it replaced


def ref_chain_scan(G):
    """check_ungl_kette's scan before it ran over closed-twin classes:
    every induced path, three neighbour sets each."""
    for u, v, w in induced_paths_3(G):
        nu, nv, nw = set(G.adj[u]), set(G.adj[v]), set(G.adj[w])
        common = len(nu & nw)
        private = len(nv - (nu | nw))
        if not (common >= private >= 2):
            return ChainVerdict(False, witness=(u, v, w), common=common, private=private)
    return ChainVerdict(True)


def ref_check_ungl_kette(G):
    if not ref_check_star(G).holds:
        return "refused"
    return ref_chain_scan(G)


def chain_outcome(G):
    try:
        return check_ungl_kette(G)
    except InputError:
        return "refused"


def test_chain_matches_path_scan_on_blow_ups_and_corpus(monkeypatch):
    # the class triples must flag exactly the graphs with a failing path,
    # so the per-path scan runs only then
    scans = []
    monkeypatch.setattr(
        conditions, "_chain_scan", lambda G: scans.append(G) or ref_chain_scan(G)
    )
    rng = random.Random(11)
    outcomes = set()
    for i in range(600):
        k = rng.randint(1, 7)
        p = rng.uniform(0.3, 0.95)
        base = [(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < p]
        sizes = [rng.randint(1, 4) for _ in range(k)]
        ids = rng.sample(range(-60, 61), sum(sizes))
        edges = blow_up(base, sizes, ids)
        if edges and i % 2:
            # break some twins
            edges.pop(rng.randrange(len(edges)))
        G = FiniteGraph.from_edges(ids, edges)
        if i % 3 == 0:
            G = with_shuffled_adjacency(G, rng)
        expected = ref_check_ungl_kette(G)
        assert chain_outcome(G) == expected
        # the class triples alone, on graphs the degree condition refuses too
        scans.clear()
        verdict = _chain_on_classes(G)
        assert verdict == ref_chain_scan(G)
        assert scans == ([] if verdict.holds else [G])
        outcomes.add(expected == "refused")
    assert outcomes == {True, False}
    for seed in range(40):
        G = random_star_clawfree(seed)
        for H in (G, relabel(G, rng)):
            assert chain_outcome(H) == ref_check_ungl_kette(H) == ChainVerdict(True)
    for q, n in ((3, 5), (4, 7), (2, 6)):
        G = relabel(gen_H(q, n), rng)
        assert chain_outcome(G) == ref_check_ungl_kette(G)
        assert _chain_on_classes(G) == ref_chain_scan(G)


def test_chain_failure_is_the_first_failing_path():
    # the claw fails the chain at its first induced path, as the scan does
    v = _chain_on_classes(star_k13())
    assert v == ChainVerdict(False, witness=(1, 0, 2), common=1, private=3)
    assert v.to_json_obj() == {
        "holds": False,
        "witness": [1, 0, 2],
        "common_endpoint_neighbors": 1,
        "private_middle_neighbors": 3,
    }
    v = _chain_on_classes(bull())
    assert v == ref_chain_scan(bull()) and not v.holds


def test_chain_scan_refuses_a_graph_with_no_failing_path():
    # _chain_on_classes calls the scan only for a failing class triple,
    # which stands for a failing path; a scan that finds none is a bug
    K3 = FiniteGraph.from_edges(range(3), [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(InvariantViolation, match="^a failing class triple stands for no failing path$"):
        conditions._chain_scan(K3)


# ---------------------------------------------------------------------------
# the closed-twin quotient is built once per graph and shared


def test_finite_checks_share_one_quotient(monkeypatch):
    built = []
    cached = FiniteGraph.__dict__["twin_quotient"]
    assert isinstance(cached, cached_property)
    original = cached.func

    def counting(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(cached, "func", counting)
    for F in (relabel(gen_G(12, 5), random.Random(3)), random_star_clawfree(4)):
        # a fresh copy, whose quotient nothing has asked for yet
        G = FiniteGraph.from_edges(F.vertices, F.edges())
        built.clear()
        assert is_claw_free(G).claw_free
        assert check_star(G).holds
        assert G.is_connected()
        assert check_ungl_kette(G).holds
        extend_to_hamilton(G)
        assert len(built) == 1 and built[0] is G


def test_quotient_connectivity_matches_components():
    rng = random.Random(12)
    seen = set()
    for i in range(800):
        k = rng.randint(1, 8)
        p = rng.uniform(0.05, 0.6)
        base = [(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < p]
        sizes = [rng.randint(1, 4) for _ in range(k)]
        lonely = rng.randint(0, 2)
        ids = rng.sample(range(-80, 81), sum(sizes) + lonely)
        edges = blow_up(base, sizes, ids)
        if edges and i % 2:
            edges.pop(rng.randrange(len(edges)))
        G = FiniteGraph.from_edges(ids, edges)
        if i % 3 == 0:
            G = with_shuffled_adjacency(G, rng)
        connected = len(components(G)) <= 1
        assert G.is_connected() is connected
        seen.add((connected, lonely > 0, G.twin_quotient[2] is not None))
    # with and without twins: connected, and disconnected with and
    # without isolated vertices (blow_up leaves the extra ids isolated)
    assert len(seen) == 6
    assert FiniteGraph.from_edges([], []).is_connected()
    assert FiniteGraph.from_edges([5], []).is_connected()
    assert not FiniteGraph.from_edges([5, 7], []).is_connected()


# ---------------------------------------------------------------------------
# exhaustive sweep: the finite checks against the reference scans on every
# small graph, and on every small blow-up with classes of unequal sizes


def sweep_graphs(order):
    """Every labelled graph on 1 .. ``order`` vertices, then every blow-up
    of every labelled graph on 1 .. ``order`` - 2 vertices, each vertex a
    clique of 1, 2 or 3 twins; a blow-up's ids are shuffled, so the class
    named first is not always the first class built."""
    for n in range(1, order + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            yield FiniteGraph.from_edges(range(n), edges)
    rng = random.Random(25)
    for k in range(1, order - 1):
        pairs = list(combinations(range(k), 2))
        for bits in range(1 << len(pairs)):
            base = [p for i, p in enumerate(pairs) if bits >> i & 1]
            for sizes in product((1, 2, 3), repeat=k):
                ids = rng.sample(range(sum(sizes)), sum(sizes))
                yield FiniteGraph.from_edges(ids, blow_up(base, sizes, ids))


def sweep_count(order):
    labelled = sum(2 ** (n * (n - 1) // 2) for n in range(1, order + 1))
    blown = sum(2 ** (k * (k - 1) // 2) * 3**k for k in range(1, order - 1))
    return labelled + blown


# of the swept graphs, by order, the connected ones on at least three
# vertices that meet the degree condition, each of which has a Hamilton
# cycle
HAMILTONIAN_IN_SWEEP = {5: 187, 6: 4149}


def test_finite_checks_match_scans_on_every_small_graph(request):
    # --sweep-order (tests/conftest.py) sets the order: 5 by default,
    # 1,336 graphs; 6 runs 39,288
    order = request.config.getoption("--sweep-order")
    count = cycles = 0
    outcomes = set()
    for G in sweep_graphs(order):
        star, claw = check_star(G), is_claw_free(G)
        assert star == ref_check_star(G)
        assert claw == ref_claw_scan(G, G.vertices)
        assert chain_outcome(G) == ref_check_ungl_kette(G)
        outcomes.add((star.holds, claw.claw_free, G.twin_quotient[2] is not None))
        count += 1
        if star.holds and len(G.vertices) >= 3 and G.is_connected():
            assert verify_cycle(G, extend_to_hamilton(G)).is_hamiltonian
            cycles += 1
    assert count == sweep_count(order)
    assert cycles == HAMILTONIAN_IN_SWEEP.get(order, cycles)
    # with twins and without: both conditions fail, the degree condition
    # fails on a claw-free graph, and both hold (on five vertices, a claw
    # always fails the degree condition)
    both = {(False, False), (False, True), (True, True)}
    assert {(*o, twins) for o in both for twins in (False, True)} <= outcomes
    print(f"\nswept {count} graphs of order <= {order}; built {cycles} Hamilton cycles")


def class_path(sizes):
    """The blow-up of the path U-V-W by class sizes ``sizes``, ids in
    class order."""
    ids = list(range(sum(sizes)))
    return FiniteGraph.from_edges(ids, blow_up([(0, 1), (1, 2)], sizes, ids))


def test_class_sizes_on_the_bound():
    # sizes (1, 2, 1): d(v) = 3 = 2 * (|V| + |U| - 2) + 1, and the
    # condition holds with equality, d(u) + d(w) = 4 = |N(u) | N(v) | N(w)|
    G = class_path((1, 2, 1))
    assert check_star(G) == ref_check_star(G) == StarVerdict(True)
    assert (G.degree(0), G.degree(1)) == (2, 3)
    # sizes (2, 1, 2): d(v) = 4 > 3 and the condition fails, 4 < 5
    G = class_path((2, 1, 2))
    want = StarVerdict(False, witness=(0, 2, 3), lhs=4, rhs=5)
    assert check_star(G) == ref_check_star(G) == want
    assert is_claw_free(G) == ClawVerdict(True)


# ---------------------------------------------------------------------------
# centres certified by their class sizes build no rank table


@pytest.fixture
def tables_built(monkeypatch):
    built = []

    class Counting(_RankTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(conditions, "_RankTable", Counting)
    return built


# the finite benchmark's shapes (perfbench/workloads.py): G(q, n) for the
# rings and the dense short rings
BENCHMARK_SHAPES = ((100, 4), (400, 3), (500, 4), (14, 12), (11, 16), (9, 20))


@pytest.mark.parametrize("q, n", BENCHMARK_SHAPES)
def test_benchmark_shapes_build_no_rank_table(q, n, tables_built):
    # relabelled as the benchmark does: ids and edge order shuffled
    rng = random.Random(q * n)
    G = gen_G(q, n)
    perm = rng.sample(range(q * n), q * n)
    edges = [(perm[u], perm[v]) for u, v in G.edges()]
    rng.shuffle(edges)
    G = FiniteGraph.from_edges(range(q * n), edges)
    assert is_claw_free(G).claw_free
    assert check_star(G).holds
    assert tables_built == []


@pytest.mark.parametrize("n", [2, 3])
def test_period_decision_builds_no_rank_table(n, tables_built):
    from hamext.infinite import decide_by_period

    assert decide_by_period(gen_G_inf(n))
    assert tables_built == []


def test_centres_left_still_build_a_table(tables_built):
    # H(3, 5): the star fibers' leaves are classes of one vertex
    G = gen_H(3, 5)
    assert check_star(G) == StarVerdict(False, witness=(1, 4, 10), lhs=22, rhs=23)
    assert len(tables_built) == 1
    assert not is_claw_free(G).claw_free
    assert len(tables_built) == 2
    # without twins, every vertex is a centre, as before
    tables_built.clear()
    C = FiniteGraph.from_edges(range(9), [(i, (i + d) % 9) for i in range(9) for d in (1, 2)])
    assert C.twin_quotient[2] is None
    assert check_star(C) == ref_check_star(C)
    assert is_claw_free(C) == ref_claw_scan(C, C.vertices)
    assert [len(args[0]) for args in tables_built] == [9, 9]
