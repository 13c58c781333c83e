"""Extension operators: hand-built witness instances first, then the
constructor on generated and sampled graphs."""

import hashlib
import json
import random

import pytest

from hamext.errors import InputError, InvariantViolation
from hamext.extension import (
    Extension,
    LiveCycle,
    apply_extension,
    extend_to_hamilton,
    extension_sequence,
    find_extension,
    find_initial_cycle,
    iter_extensions,
    saturate,
)
from hamext.families import fiber_window, gen_G, gen_G_inf, gen_H
from hamext.graphcore import Cycle, FiniteGraph, canonical_edge, verify_cycle
from hamext.oracle import hamilton_oracle, random_star_clawfree
from cycles import edge_set


def k4():
    return FiniteGraph.from_edges(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_kind_one_in_k4():
    C = Cycle((0, 1, 2))
    e = find_extension(k4(), C, 3)
    assert e.kind == "I" and e.target == 3 and e.u == 0
    D = apply_extension(C, e)
    assert D.order == (0, 3, 1, 2)
    assert verify_cycle(k4(), D).is_hamiltonian


def test_kind_two_engineered():
    # v=4 touches the 4-cycle only at 0 and owns a private neighbour 5
    # adjacent to succ(0)=1, so only the two-vertex rewiring applies
    G = FiniteGraph.from_edges(
        range(6), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (1, 5)]
    )
    C = Cycle((0, 1, 2, 3))
    e = find_extension(G, C, 4)
    assert e == Extension("II", target=4, u=0, x=5)
    D = apply_extension(C, e)
    assert D.order == (0, 4, 5, 1, 2, 3)
    assert verify_cycle(G, D).is_hamiltonian
    # two vertices in, one edge out, three edges in
    assert len(D) == len(C) + 2
    assert len(edge_set(D) - edge_set(C)) == 3


def test_kind_three_engineered():
    # v=6 sees anchors 0 and 3 on a 6-cycle; the chord (1,4) joins the
    # two successors, and no outside helper exists, forcing kind III
    G = FiniteGraph.from_edges(
        range(7),
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (0, 6), (3, 6)],
    )
    C = Cycle((0, 1, 2, 3, 4, 5))
    e = find_extension(G, C, 6)
    assert e == Extension("III", target=6, u=0, y=3)
    D = apply_extension(C, e)
    assert D.order == (6, 3, 2, 1, 4, 5, 0)
    assert verify_cycle(G, D).ok
    assert len(D) == len(C) + 1
    removed = edge_set(C) - edge_set(D)
    added = edge_set(D) - edge_set(C)
    assert len(removed) == 2 and len(added) == 3


def test_kind_three_rejects_degenerate_anchors():
    C = Cycle((0, 1, 2, 3))
    with pytest.raises(InputError):
        apply_extension(C, Extension("III", target=9, u=0, y=1))
    with pytest.raises(InputError):
        apply_extension(C, Extension("III", target=9, u=1, y=0))


def test_extension_dataclass_validation():
    with pytest.raises(InputError):
        Extension("IV", target=1, u=0)
    with pytest.raises(InputError):
        Extension("II", target=1, u=0)
    with pytest.raises(InputError):
        Extension("III", target=1, u=0)


def test_find_extension_input_errors():
    G = k4()
    C = Cycle((0, 1, 2))
    with pytest.raises(InputError):
        find_extension(G, C, 0)
    lonely = FiniteGraph.from_edges(range(5), [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(InputError):
        find_extension(lonely, C, 3)


def test_find_extension_exhaustion_is_invariant_violation():
    # v only reaches the cycle at 0, nothing helps at succ(0)
    G = FiniteGraph.from_edges(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    with pytest.raises(InvariantViolation) as err:
        find_extension(G, Cycle((0, 1, 2, 3)), 4)
    assert err.value.context["target"] == 4


def test_apply_rejects_stale_witnesses():
    C = Cycle((0, 1, 2))
    with pytest.raises(InputError):
        apply_extension(C, Extension("I", target=1, u=0))
    with pytest.raises(InputError):
        apply_extension(C, Extension("I", target=5, u=7))
    with pytest.raises(InputError):
        apply_extension(C, Extension("II", target=5, u=0, x=2))


def test_sequence_trivial_when_spanning():
    G = k4()
    C = Cycle((0, 1, 2, 3))
    assert list(iter_extensions(G, C)) == []
    assert saturate(G, C) is C


def test_sequence_reaches_hamilton_cycle():
    G = gen_G(4, 2)
    C0 = find_initial_cycle(G)
    seq = [C0] + [C.freeze() for _, C in iter_extensions(G, C0)]
    assert verify_cycle(G, seq[-1]).is_hamiltonian
    for a, b in zip(seq, seq[1:]):
        assert a.vertex_set < b.vertex_set
        assert len(b) - len(a) in (1, 2)


def test_sequence_with_neighborhood_filter():
    # saturating the fixed neighbourhood of the seed leaves the seed
    # buried: none of its vertices can still see an off-cycle vertex
    G = gen_G(6, 2)
    C0 = find_initial_cycle(G)
    fixed = {v for u in C0.order for v in G.neighbors(u)} - C0.vertex_set
    for _, live in iter_extensions(G, C0, target_filter=fixed.__contains__):
        pass
    final = live.freeze()
    assert fixed <= final.vertex_set
    for u in C0.order:
        assert set(G.neighbors(u)) <= final.vertex_set


# ---------------------------------------------------------------------------
# the heap-driven loop against the rescan loop it replaced


def reference_apply(C, e):
    """The tuple-slicing rewiring that LiveCycle.apply replaced."""
    v = e.target
    order = C.order
    pos_u = order.index(e.u)
    if e.kind == "I":
        return Cycle(order[: pos_u + 1] + (v,) + order[pos_u + 1 :])
    if e.kind == "II":
        return Cycle(order[: pos_u + 1] + (v, e.x) + order[pos_u + 1 :])
    y = e.y
    up = C.succ(e.u)
    arc = []
    w = up
    while True:
        arc.append(w)
        if w == y:
            break
        w = C.succ(w)
    rest = []
    w = C.succ(y)
    while True:
        rest.append(w)
        if w == e.u:
            break
        w = C.succ(w)
    return Cycle((v, *reversed(arc), *rest))


def reference_steps(G, C0, target_filter=None):
    """The rescan loop iter_extensions replaced: every step collects all
    admissible targets afresh and rebuilds the cycle.  Returns the
    (extension, cycle) pairs."""
    steps = []
    C = C0
    while True:
        on = C.vertex_set
        candidates = sorted(
            v
            for u in C.order
            for v in G.neighbors(u)
            if v not in on and (target_filter is None or target_filter(v))
        )
        if not candidates:
            return steps
        e = find_extension(G, C, candidates[0])
        C = reference_apply(C, e)
        steps.append((e, C))


def relabelled_G(q, n, seed):
    G = gen_G(q, n)
    perm = list(G.vertices)
    random.Random(seed).shuffle(perm)
    return FiniteGraph.from_edges(G.vertices, [(perm[u], perm[v]) for u, v in G.edges()])


def assert_same_steps(G, C0, target_filter=None):
    expected = reference_steps(G, C0, target_filter)
    got = [(e, C.freeze()) for e, C in iter_extensions(G, C0, target_filter)]
    assert got == expected
    assert [C.order for _, C in got] == [C.order for _, C in expected]
    return [e.kind for e, _ in got]


def test_iter_extensions_matches_rescan_loop_on_corpus():
    for seed in range(60):
        G = random_star_clawfree(seed)
        assert_same_steps(G, find_initial_cycle(G))


def test_iter_extensions_matches_rescan_loop_with_filter():
    G = gen_G(6, 2)
    C0 = find_initial_cycle(G)
    fixed = {v for u in C0.order for v in G.neighbors(u)} - C0.vertex_set
    assert_same_steps(G, C0, fixed.__contains__)
    assert extension_sequence(G, C0, fixed.__contains__) == [C0] + [
        C for _, C in reference_steps(G, C0, fixed.__contains__)
    ]


def test_iter_extensions_matches_rescan_loop_through_kind_three():
    G = relabelled_G(40, 3, seed=27)
    kinds = assert_same_steps(G, find_initial_cycle(G))
    assert "III" in kinds and "II" in kinds


def test_run_cycle_step_is_the_edge_swap():
    # the edges the infinite run's live cycle reads off each step, as
    # the finite loop takes them through all three kinds, are exactly
    # what separates consecutive edge sets; each lost edge keeps its
    # orientation on the start cycle, and the predecessors follow
    from hamext.infinite import _RunCycle

    G = relabelled_G(40, 3, seed=27)
    prev = start = find_initial_cycle(G)
    replay = _RunCycle(start)
    kinds = set()
    for e, live in iter_extensions(G, prev):
        replay.apply(e)
        removed, added = replay.step
        C = live.freeze()
        assert replay.order == C.order
        assert all(replay.pred(C.succ(v)) == v for v in C.order)
        assert set(removed) == edge_set(prev) - edge_set(C)
        assert set(added) == edge_set(C) - edge_set(prev)
        if replay.kept:
            assert all(start.succ(a) == b for a, b in replay.lost.values())
        kinds.add(e.kind)
        prev = C
    assert kinds == {"I", "II", "III"}


class CountingGraph:
    """A FiniteGraph that counts its neighbors() calls."""

    def __init__(self, G):
        self.G = G
        self.calls = 0

    def neighbors(self, v):
        self.calls += 1
        return self.G.neighbors(v)

    def adjacent(self, u, v):
        return self.G.adjacent(u, v)


def test_iter_extensions_reads_each_neighbourhood_boundedly_often():
    # the rescan loop reads every cycle vertex's neighbours on every
    # step, Theta(|V|^2) calls; the heap-driven loop reads each absorbed
    # vertex once plus what find_extension asks for
    G = gen_G(300, 4)
    counted = CountingGraph(G)
    for _, live in iter_extensions(counted, find_initial_cycle(G)):
        pass
    assert len(live) == len(G.vertices)
    assert counted.calls <= 4 * len(G.vertices)


# sha256 of the JSON list of extend_to_hamilton(G).order on the
# benchmark's six shapes G(q, n), relabelled with seed 1; a change to
# the extension loop must leave every order as it is
GOLDEN_ORDERS = {
    (100, 4): "2d1b778fd934810e223c87174a4d6279fd405f851c63b5bf3990095dba52ad84",
    (400, 3): "2853105cf019686acc61e66c02533a2a634945743574ebcabdff3c8e32076414",
    (500, 4): "79fd4c282a9719d67bbcedfce5ea5189f881e8b272bf8e4b39e79347c8d33c2a",
    (14, 12): "1db689c9d8c7755f6dc31864d65a592b00c3d199e777532639d0ddf6c7bed56e",
    (11, 16): "bb029dbe954d124965686719800fd552d855ece5b70c3d402719b3d425c717bc",
    (9, 20): "aaef87a2164eedbed84f25820eb31ce17e8be8922b24c156bed89566be52a55b",
}


@pytest.mark.parametrize("q, n", sorted(GOLDEN_ORDERS))
def test_extend_to_hamilton_order_golden(q, n):
    C = extend_to_hamilton(relabelled_G(q, n, seed=1))
    digest = hashlib.sha256(json.dumps(C.order).encode()).hexdigest()
    assert digest == GOLDEN_ORDERS[(q, n)]


def test_initial_cycle_prefers_triangle():
    assert find_initial_cycle(gen_G(6, 2)).order == (0, 1, 2)
    C4 = FiniteGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(find_initial_cycle(C4)) == 4
    tree = FiniteGraph.from_edges(range(3), [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        find_initial_cycle(tree)


def test_extend_to_hamilton_triangle():
    G = FiniteGraph.from_edges(range(3), [(0, 1), (1, 2), (0, 2)])
    assert extend_to_hamilton(G).vertex_set == {0, 1, 2}


@pytest.mark.parametrize("q,n", [(4, 2), (5, 2), (3, 3), (6, 2)])
def test_extend_to_hamilton_ring_of_cliques(q, n):
    G = gen_G(q, n)
    C = extend_to_hamilton(G)
    assert verify_cycle(G, C).is_hamiltonian
    assert hamilton_oracle(G) is not None


def test_extend_to_hamilton_tolerates_claws():
    # the alternating family has claws at star centers; the finite
    # constructor needs only the degree condition
    G = gen_H(2, 6)
    C = extend_to_hamilton(G)
    assert verify_cycle(G, C).is_hamiltonian


def test_extend_to_hamilton_respects_seed():
    G = gen_G(5, 2)
    seed = Cycle((0, 1, 2))
    C = extend_to_hamilton(G, seed=seed)
    assert verify_cycle(G, C).is_hamiltonian
    with pytest.raises(InputError):
        extend_to_hamilton(G, seed=Cycle((0, 1, 4)))


def test_extend_to_hamilton_preconditions():
    with pytest.raises(InputError):
        extend_to_hamilton(FiniteGraph.from_edges(range(2), [(0, 1)]))
    split = FiniteGraph.from_edges(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(InputError):
        extend_to_hamilton(split)
    bull = FiniteGraph.from_edges(range(5), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    with pytest.raises(InputError):
        extend_to_hamilton(bull)


def test_search_order_contract_on_corpus():
    # kind II must only appear when neither kind I nor III fits the target
    for seed in range(40):
        G = random_star_clawfree(seed)
        C = find_initial_cycle(G)
        on = C.vertex_set
        for v in sorted(G.vertex_set - on):
            anchors = [u for u in G.neighbors(v) if u in on]
            if not anchors:
                continue
            e = find_extension(G, C, v)
            has_kind_one = any(G.adjacent(v, C.succ(u)) for u in anchors)
            if e.kind != "I":
                assert not has_kind_one
            if e.kind == "II":
                assert not has_kind_one


def test_corpus_hamiltonicity():
    for seed in range(60):
        G = random_star_clawfree(seed)
        C = extend_to_hamilton(G)
        assert verify_cycle(G, C).is_hamiltonian
        if len(G.vertices) <= 12:
            assert hamilton_oracle(G) is not None


# ---------------------------------------------------------------------------
# the finder against the one it replaced, which asked the cycle for each
# membership and successor through its methods


def reference_find_extension(G, C, v):
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


def finder_outcome(finder, G, C, v):
    try:
        return finder(G, C, v)
    except (InputError, InvariantViolation) as err:
        return type(err).__name__, str(err), getattr(err, "context", None)


def assert_finders_agree_along_run(G, C0, targets, target_filter=None, frozen=True):
    """Compare the finders on every target, at C0 and at every cycle the
    extension loop passes through (live, and frozen when ``frozen``),
    up to where the loop fails.  Returns the outcome kinds seen."""
    seen = set()

    def compare(C):
        for v in targets:
            got = finder_outcome(find_extension, G, C, v)
            assert got == finder_outcome(reference_find_extension, G, C, v)
            seen.add(got.kind if isinstance(got, Extension) else got[0])

    compare(LiveCycle(C0))
    if frozen:
        compare(C0)
    try:
        for _, C in iter_extensions(G, C0, target_filter):
            compare(C)
            if frozen:
                compare(C.freeze())
    except InvariantViolation:
        pass
    return seen


def test_find_extension_matches_reference_on_finite_graphs():
    seen = set()
    graphs = [random_star_clawfree(seed) for seed in range(30)]
    graphs += [relabelled_G(40, 3, seed=27), relabelled_G(12, 4, seed=5), gen_H(2, 6)]
    rng = random.Random(31)
    while len(graphs) < 80:
        # graphs the degree condition need not hold on, so the finder can run dry
        n = rng.randint(5, 11)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        G = FiniteGraph.from_edges(range(n), edges)
        try:
            find_initial_cycle(G)
        except InputError:
            continue
        graphs.append(G)
    for G in graphs:
        # an id off the graph is refused by both
        targets = list(G.vertices) + [max(G.vertices) + 1]
        seen |= assert_finders_agree_along_run(G, find_initial_cycle(G), targets)
    assert {"I", "II", "III", "InputError", "InvariantViolation"} <= seen


def test_find_extension_matches_reference_on_gz2():
    G = gen_G_inf(2)
    window = fiber_window(G.descriptor, 8)
    targets = sorted(window.union(*map(G.neighbors, window)))
    seen = assert_finders_agree_along_run(
        G, Cycle((0, 2, 1, 3)), targets, window.__contains__, frozen=False
    )
    assert {"I", "InputError"} <= seen
