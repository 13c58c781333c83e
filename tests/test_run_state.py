"""The run state of hamilton_sequence: centres certified once, one ball
per iteration, the rim read once, and the kept stage D/E cut sets.

Each test compares the incremental machinery with a fresh, whole-ball
or whole-cycle computation of the same thing."""

import random
from collections import Counter

import pytest

import hamext.infinite as infinite
import hamext.structure as structure
from hamext.conditions import check_star_ball, claw_free_on_ball, star_on_ball
from hamext.errors import FrontierContamination, InputError, InvariantViolation
from hamext.extension import Extension, LiveCycle, apply_extension, find_extension
from hamext.families import _make_double_ray_family, gen_G_inf, gen_H_inf
from hamext.graphcore import (
    Cycle,
    FiniteGraph,
    LazyGraph,
    Region,
    TwinClasses,
    ball,
    canonical_edge,
    neighborhood_k,
)
from hamext.infinite import (
    SteinerTree,
    _CutBuilder,
    _initial_cycle,
    _saturate_initial,
    construct_cut1,
    hamilton_sequence,
    require_twice,
    steiner_tree_T,
)
from hamext.structure import decompose
from cycles import edge_set, live_following, remove_cycle_vertex, replace_arc
from test_infinite import rim_of
from wholeball import distances_from

RUNS = ((2, 8), (3, 8), (4, 5))


def layers_of(dist):
    """The distance layers star_on_ball reads, from a distance map."""
    layers = [set() for _ in range(max(dist.values()) + 1)]
    for v, d in dist.items():
        layers[d].add(v)
    return layers


# ---------------------------------------------------------------------------
# certified centres


def without_period(G):
    """G behind a LazyGraph that states no representatives, so that a
    run on it checks claws and the degree condition on every ball."""
    return LazyGraph(G.neighbors, G.escapes, G.root, G.end_rays, G.descriptor)


@pytest.mark.parametrize("n, depth", RUNS)
def test_run_state_verdicts_match_fresh_checks(monkeypatch, n, depth):
    # every ball check of a run, skipping its certified centres, gives
    # the verdict of a fresh check of the whole ball
    G = without_period(gen_G_inf(n))
    star_calls, claw_calls = [], []

    def recording_star(B, layers, limit, certified, **fresh):
        eligible = set().union(*layers[: limit + 1])
        unchecked = sum(1 for v in eligible if v not in certified)
        verdict = star_on_ball(B, layers, limit, certified, **fresh)
        center = sorted(layers[0])
        star_calls.append((center, limit, verdict, unchecked, len(eligible)))
        return verdict

    def recording_claw(B, centers, certified=None):
        centers = sorted(centers)
        unchecked = sum(1 for v in centers if v not in certified)
        verdict = claw_free_on_ball(B, centers, certified)
        interior = len(B.vertex_set - B.frontier)
        claw_calls.append((B, centers, verdict, unchecked, interior))
        return verdict

    monkeypatch.setattr(infinite, "star_on_ball", recording_star)
    monkeypatch.setattr(structure, "claw_free_on_ball", recording_claw)
    hamilton_sequence(G, depth)
    # the seed ball, then one ball per iteration
    assert len(star_calls) == len(claw_calls) == depth + 1
    for center, limit, verdict, _, _ in star_calls:
        assert verdict == check_star_ball(G, center, limit + 2)
    for B, centers, verdict, _, _ in claw_calls:
        assert verdict == claw_free_on_ball(B, centers)
    # from the second iteration on each ball checks only the annulus it
    # adds, which is the same size at every depth of GZn, and the claw
    # scan is handed only the centres that may be left, as many at every
    # depth: the layers short of the frontier and X's uncertified vertices
    for calls in (star_calls, claw_calls):
        unchecked = {call[-2] for call in calls[2:]}
        assert len(unchecked) == 1
        assert unchecked.pop() < calls[-1][-1] / 2
    assert len({len(call[1]) for call in claw_calls[2:]}) == 1


def test_certified_centres_skip_work():
    G = gen_G_inf(3)
    B = ball(G, G.root, 8)
    dist = distances_from(B, [G.root])
    certified: set[int] = set()
    assert star_on_ball(B, layers_of(dist), 6, certified).holds
    # only centres whose whole neighbourhood was eligible
    assert certified == {v for v, d in dist.items() if d <= 5}
    claws: set[int] = set()
    interior = B.vertex_set - B.frontier
    assert claw_free_on_ball(B, interior, claws).claw_free
    assert claws == interior
    # a certified centre is skipped: on HZ3 the scan moves on to the
    # next claw centre, and certifies only the centres before it
    H = gen_H_inf(3)
    B = ball(H, H.root, 4)
    interior = sorted(B.vertex_set - B.frontier)
    assert claw_free_on_ball(B, interior).witness[0] == H.root
    claws = {H.root}
    verdict = claw_free_on_ball(B, interior, claws)
    assert verdict == claw_free_on_ball(B, interior[1:])
    center = verdict.witness[0]
    assert claws == {v for v in interior if v < center}


def test_star_on_ball_refuses_a_close_frontier():
    G = gen_G_inf(2)
    B = ball(G, G.root, 5)
    layers = layers_of(distances_from(B, [G.root]))
    assert star_on_ball(B, layers, 3, set()).holds
    with pytest.raises(FrontierContamination, match="closer than 6"):
        star_on_ball(B, layers, 4, set())


def _defect_family(n, f0, kind):
    """GZn with fiber f0 replaced by one vertex (fails the degree
    condition) or by a four-vertex star (a claw)."""

    def size(f):
        if f != f0:
            return n
        return 1 if kind == "single" else 4

    def edges(f):
        if f == f0 and kind == "star":
            return [(0, 1), (0, 2), (0, 3)]
        return None

    return _make_double_ray_family(size, edges, max(4, n), {"family": "test"})


def protected_vertices(G, cycle_vertices):
    """The cycle vertices outside N(C) and N(N(C)), as whole sets."""
    nc = neighborhood_k(G, cycle_vertices, 1)
    return set(cycle_vertices) - nc - neighborhood_k(G, nc, 1)


def _reference_failure(G, depth):
    """Today's per-iteration checks, done in full every time: a fresh
    degree-condition ball and a claw scan of the whole interior."""
    seed = _initial_cycle(G, False)
    C = _saturate_initial(seed, ball(G, seed.vertex_set, infinite._SEED_RADIUS))
    for i in range(depth):
        if not protected_vertices(G, C.vertex_set):
            raise AssertionError("no protected vertex")
        try:
            decomp = decompose(G, C, Region(G, C.order), set())
            dist = distances_from(decomp.ball, C.vertex_set)
            star = check_star_ball(
                G, C.vertex_set, max(dist[s] for s in decomp.script_S) + 5
            )
            if not star.holds:
                raise InputError(
                    f"local degree condition fails near the cycle at "
                    f"{star.witness}"
                )
        except InputError as exc:
            return i, type(exc), str(exc)
        C, _ = construct_cut1(G, C, decomp, rim_of(decomp, C))
    return None


@pytest.mark.parametrize("kind", ["single", "star"])
@pytest.mark.parametrize("f0", [6, -6, 20, -20])
def test_defects_fail_where_full_checks_fail(monkeypatch, kind, f0):
    G = _defect_family(2, f0, kind)
    # it states no period, so the run checks its balls
    assert G.representatives is None and not infinite.decide_by_period(G)
    want = _reference_failure(G, 12)
    assert want is not None
    iterations = []
    blocker = structure.minimal_ray_blocker

    def counting_blocker(G, C, *rest):
        iterations.append(C)
        return blocker(G, C, *rest)

    monkeypatch.setattr(structure, "minimal_ray_blocker", counting_blocker)
    with pytest.raises(InputError) as info:
        hamilton_sequence(_defect_family(2, f0, kind), 12)
    assert (len(iterations) - 1, type(info.value), str(info.value)) == want
    if abs(f0) > 6:
        # found only after certified centres were skipped for a while
        assert want[0] >= 3
    assert ("claw" in want[2]) == (kind == "star")


@pytest.mark.parametrize("n", [2, 3])
def test_hz_seed_ball_is_refused_before_saturation(n):
    with pytest.raises(InputError, match=r"claw at 0 with leaves \(1, 2, 3\)"):
        hamilton_sequence(gen_H_inf(n), 3)


# ---------------------------------------------------------------------------
# the decided path


def _ball_work(monkeypatch, G, depth):
    """Per kind, the Region.ball calls, symmetry checks and twin-class
    additions of a run, split by whether decide_by_period made them."""
    calls, deciding = Counter(), []
    decide = infinite.decide_by_period

    def counted(kind, method):
        def counting(*args):
            calls[kind, bool(deciding)] += 1
            return method(*args)

        return counting

    def recording_decide(G):
        deciding.append(G)
        try:
            return decide(G)
        finally:
            deciding.pop()

    monkeypatch.setattr(infinite, "decide_by_period", recording_decide)
    monkeypatch.setattr(Region, "ball", counted("ball", Region.ball))
    monkeypatch.setattr(
        Region, "_check_symmetry", counted("symmetry", Region._check_symmetry)
    )
    monkeypatch.setattr(TwinClasses, "add", counted("twins", TwinClasses.add))
    hamilton_sequence(G, depth)
    return calls


@pytest.mark.parametrize("n, depth", [(2, 12), (8, 4)])
def test_decided_run_checks_and_classifies_only_in_the_decision(monkeypatch, n, depth):
    # the period decision checks the oracle's symmetry and classifies
    # twins on its own balls; the run's balls do neither
    calls = _ball_work(monkeypatch, gen_G_inf(n), depth)
    assert calls["ball", True] == calls["symmetry", True] == calls["twins", True] > 0
    assert calls["ball", False] > depth
    assert calls["symmetry", False] == calls["twins", False] == 0
    # behind a graph stating no period, every ball does both
    calls = _ball_work(monkeypatch, without_period(gen_G_inf(n)), depth)
    assert calls["ball", False] == calls["symmetry", False] == calls["twins", False]
    assert calls["ball", False] > depth and calls["ball", True] == 0


def test_asymmetric_row_at_a_representative_is_refused_by_the_decision(monkeypatch):
    # vertex 0 of GZ2's fiber 0 drops 2, of fiber -1, from its row, and 2
    # still lists 0: the decision refuses the pair before the run looks
    # for its seed cycle or grows its seed ball
    base = gen_G_inf(2)
    assert base.representatives == (range(0, 2),) and 2 in base.neighbors(0)

    def neighbors(v):
        return tuple(w for w in base.neighbors(v) if (v, w) != (0, 2))

    G = LazyGraph(
        neighbors, base.escapes, base.root, base.end_rays, base.descriptor,
        base.representatives,
    )
    grown = []
    monkeypatch.setattr(infinite, "_initial_cycle", lambda *args: grown.append(args))
    monkeypatch.setattr(infinite._RunState, "check_seed", lambda self: grown.append(self))
    for decide in (infinite.decide_by_period, lambda G: hamilton_sequence(G, 3)):
        with pytest.raises(InvariantViolation) as info:
            decide(G)
        assert str(info.value) == "neighbor oracle is asymmetric on pair (2, 0)"
    assert grown == []


# ---------------------------------------------------------------------------
# one rim per iteration


def test_rim_is_built_once_per_iteration(monkeypatch):
    calls = []
    rim = infinite._Rim

    def counting(*args):
        calls.append(args)
        return rim(*args)

    monkeypatch.setattr(infinite, "_Rim", counting)
    for n, depth in RUNS:
        calls.clear()
        hamilton_sequence(gen_G_inf(n), depth)
        assert len(calls) == depth


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rim_matches_lazy_graph_sets(n):
    G = gen_G_inf(n)
    trace = hamilton_sequence(G, 3)
    for C in trace.cycles[:3]:
        decomp = decompose(G, C, Region(G, C.order), set())
        rim = rim_of(decomp, C)
        nc = frozenset(w for v in C.order for w in G.neighbors(v)) - C.vertex_set
        second = frozenset(w for v in nc for w in G.neighbors(v)) - nc
        third = frozenset(w for v in second for w in G.neighbors(v)) - nc
        assert rim.near == nc | second | third
        assert rim.exposed == C.vertex_set & second
        assert rim.any_protected == (rim.exposed != C.vertex_set)


# ---------------------------------------------------------------------------
# connector trees


def _tree_by_piece(G, S_j, K_j):
    """The tree search asking the component's piece at every step."""
    required = set()
    layer, seen = set(S_j), set(S_j)
    for _ in range(3):
        nxt = set()
        for u in sorted(layer):
            for w in G.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        required |= {w for w in nxt if w in K_j}
        layer = nxt
    todo = sorted(required)
    tree_vertices, tree_edges = {todo[0]}, set()
    for goal in todo[1:]:
        if goal in tree_vertices:
            continue
        parent = {v: v for v in tree_vertices}
        ring = sorted(tree_vertices)
        while goal not in parent:
            nxt = []
            for u in ring:
                for w in G.neighbors(u):
                    if w not in parent and w in K_j:
                        parent[w] = u
                        nxt.append(w)
            assert nxt
            ring = sorted(nxt)
        v = goal
        while v not in tree_vertices:
            tree_vertices.add(v)
            tree_edges.add(canonical_edge(parent[v], v))
            v = parent[v]
    return SteinerTree(frozenset(tree_vertices), frozenset(tree_edges))


def test_tree_search_never_steps_through_the_separator():
    # 1-3-5-4-2 is a path in the component, and separator vertex 0
    # joins its two ends: the tree must take the long way round
    G = FiniteGraph.from_edges(
        range(6), [(0, 1), (0, 2), (1, 3), (3, 5), (5, 4), (4, 2)]
    )
    K = frozenset({1, 2, 3, 4, 5})
    tree = steiner_tree_T(G, {0}, K, frozenset({0}), neighborhood_k(G, {0}, 3))
    assert tree == _tree_by_piece(G, {0}, K)
    assert tree.vertices == K and tree.path(1, 2) == (1, 3, 5, 4, 2)


def test_trees_match_piece_membership(monkeypatch):
    checked = []
    steiner = infinite.steiner_tree_T

    def comparing(G, S_j, K_j, script_S, n3):
        tree = steiner(G, S_j, K_j, script_S, n3)
        assert tree == _tree_by_piece(G, S_j, K_j)
        checked.append(len(tree.vertices))
        return tree

    monkeypatch.setattr(infinite, "steiner_tree_T", comparing)
    for n, depth in RUNS:
        hamilton_sequence(gen_G_inf(n), depth)
    assert len(checked) == 2 * sum(depth for _, depth in RUNS)


def restarted_steiner_tree_T(G, S_j, K_j, script_S, n3):
    """steiner_tree_T with one search from the whole tree per goal, a
    goal next to the tree included; it searches from S_j for the
    required vertices, whatever ``n3`` the run hands it."""
    required = {w for w in neighborhood_k(G, S_j, 3) if w in K_j}
    todo = sorted(required)
    tree_vertices = {todo[0]}
    tree_edges = set()
    for goal in todo[1:]:
        if goal in tree_vertices:
            continue
        parent = {v: v for v in tree_vertices}
        ring = sorted(tree_vertices)
        found = False
        while not found:
            nxt = []
            for u in ring:
                for w in G.neighbors(u):
                    if w in parent or w in script_S:
                        continue
                    parent[w] = u
                    nxt.append(w)
                    if w == goal:
                        found = True
            if found:
                break
            assert nxt
            ring = sorted(nxt)
        v = goal
        while v not in tree_vertices:
            tree_vertices.add(v)
            u = parent[v]
            tree_edges.add(canonical_edge(u, v))
            v = u
    return SteinerTree(frozenset(tree_vertices), frozenset(tree_edges))


def recording_graph(G):
    """G with its neighbour oracle calls listed in ``G.calls``."""
    calls = []

    def oracle(v):
        calls.append(v)
        return G.neighbors(v)

    lazy = LazyGraph(oracle, G.escapes, G.root, G.end_rays, G.descriptor)
    lazy.calls = calls
    return lazy


@pytest.mark.parametrize(
    "n, depth, want", [(2, 32, (532, 225)), (3, 28, (699, 253)), (8, 4, (328, 77))]
)
def test_oracle_calls_of_a_build_are_pinned(n, depth, want):
    # the neighbour and escape oracle calls of a decided run, counted
    # past the graph's caches; a change to what an iteration reads must
    # leave both as they were
    base = gen_G_inf(n)
    calls = Counter()

    def neighbors(v):
        calls["neighbors"] += 1
        return base.neighbors(v)

    def escapes(blocked, v):
        calls["escapes"] += 1
        return base.escapes(blocked, v)

    G = LazyGraph(
        neighbors, escapes, base.root, base.end_rays, base.descriptor,
        base.representatives,
    )
    hamilton_sequence(G, depth)
    assert (calls["neighbors"], calls["escapes"]) == want


def _steiner_run(monkeypatch, n, depth, tree_of):
    G = recording_graph(gen_G_inf(n))
    trees = []

    def recording(*args):
        trees.append(tree_of(*args))
        return trees[-1]

    monkeypatch.setattr(infinite, "steiner_tree_T", recording)
    trace = hamilton_sequence(G, depth)
    return trees, G.calls, trace.to_json()


@pytest.mark.parametrize("n, depth", [(2, 12), (3, 8), (8, 4)])
def test_steiner_trees_match_restarted_search(monkeypatch, n, depth):
    # the same tree at every iteration, and the same neighbour oracle
    # calls in the same order over the whole run
    got = _steiner_run(monkeypatch, n, depth, steiner_tree_T)
    want = _steiner_run(monkeypatch, n, depth, restarted_steiner_tree_T)
    assert len(got[0]) == 2 * depth
    assert got == want


def test_steiner_search_for_a_goal_away_from_the_tree():
    # goal 2 lies four steps from the tree {1}, and 4 two steps from
    # {1, 2, 3, 5}; the tree and the oracle calls are the search's
    finite = FiniteGraph.from_edges(
        range(8), [(0, 1), (0, 2), (1, 3), (3, 5), (5, 4), (4, 2), (4, 6), (6, 7)]
    )
    K = frozenset(range(1, 8))
    runs = []
    for tree_of in (steiner_tree_T, restarted_steiner_tree_T):
        G = LazyGraph(finite.neighbors, lambda F, v: True, 0)
        G = recording_graph(G)
        n3 = neighborhood_k(G, {0}, 3)
        runs.append((tree_of(G, {0}, K, frozenset({0}), n3), G.calls))
    assert runs[0] == runs[1]
    tree = runs[0][0]
    assert tree.path(1, 2) == (1, 3, 5, 4, 2)


# ---------------------------------------------------------------------------
# kept stage D/E cut sets


def _recount(C, m):
    members = m.members
    return {e for e in edge_set(C) if (e[0] in members) != (e[1] in members)}


M_LABELS = ("initial M cut", "M cut")


def test_kept_cuts_equal_recount_at_every_check(monkeypatch):
    builders = []
    labels = Counter()
    stage = _CutBuilder.stage_absorb_separator

    def remembering_stage(self, cur):
        builders.append(self)
        return stage(self, cur)

    def recounting_require_twice(crossing, C, label, j):
        if label in M_LABELS:
            assert set(crossing) == _recount(C, builders[-1].msets[j])
            labels[label] += 1
        return require_twice(crossing, C, label, j)

    monkeypatch.setattr(_CutBuilder, "stage_absorb_separator", remembering_stage)
    monkeypatch.setattr(infinite, "require_twice", recounting_require_twice)
    for n, depth in RUNS:
        hamilton_sequence(gen_G_inf(n), depth)
    # GZ3 and GZ4 leave separator vertices for stage D to absorb
    assert labels["M cut"] > 0
    # every iteration's stage D checks each cut once as it starts, and
    # stage E reads the cuts as stage D last checked them
    assert len(builders) == sum(depth for _, depth in RUNS)
    assert labels["initial M cut"] == sum(b.k for b in builders)


def _rescan_stage_d(b, cur):
    """Reference for stage D: recount every cut over the whole cycle
    after each step."""

    def check(C, label):
        for j, m in enumerate(b.msets):
            require_twice(sorted(_recount(C, m)), C, label, j)

    check(cur, "initial M cut")
    rounds = 0
    while True:
        leftovers = sorted(b.script_S - cur.vertex_set)
        if not leftovers:
            return cur
        rounds += 1
        if rounds > len(b.script_S) + 1:
            raise InvariantViolation(
                "separator absorption failed to terminate", leftovers=leftovers
            )
        u = leftovers[0]
        nbrs_on = {w for w in b.B.neighbors(u) if w in cur.vertex_set}
        pair = next(
            (
                (a, cur.succ(a))
                for a in cur.order
                if a in nbrs_on and cur.succ(a) in nbrs_on
            ),
            None,
        )
        if pair is not None:
            w1, w2 = pair
            cur = apply_extension(cur, Extension("I", u, w1))
            b.update_msets(w1, w2, (u,))
        else:
            w1 = min(nbrs_on)
            aux = cur
            for w in sorted(nbrs_on - {w1}):
                wp, wm = aux.succ(w), aux.pred(w)
                if not b.B.adjacent(wp, wm):
                    raise InvariantViolation(
                        "claw-freeness did not close the shortcut",
                        around=w,
                        pair=(wm, wp),
                    )
                aux = remove_cycle_vertex(aux, w)
            e = find_extension(b.B, aux, u)
            if e.kind != "II" or e.u != w1:
                raise InvariantViolation(
                    "isolated separator vertex was not absorbed by the forced "
                    "two-vertex kind",
                    extension=e.to_json_obj(),
                )
            w2 = aux.succ(w1)
            h = e.x
            if h not in cur.vertex_set:
                if h not in b.script_S:
                    raise InvariantViolation(
                        f"fresh helper {h} is not a separator vertex", u=u
                    )
                cur = apply_extension(cur, Extension("II", u, w1, x=h))
            else:
                hp, hm = cur.succ(h), cur.pred(h)
                if not b.B.adjacent(hp, hm):
                    raise InvariantViolation(
                        "claw-freeness did not close the relocation shortcut",
                        around=h,
                    )
                cur = remove_cycle_vertex(cur, h)
                cur = replace_arc(cur, (w1, w2), (w1, u, h, w2))
            b.update_msets(w1, w2, (u, h))
        check(cur, "M cut")


def _without_edges(B, u, keep):
    """B with every edge at u dropped except those to ``keep``."""
    adj = {
        v: tuple(w for w in nbrs if u not in (v, w) or {v, w} - {u} <= keep)
        for v, nbrs in B.adj.items()
    }
    return FiniteGraph(vertices=B.vertices, adj=adj, frontier=B.frontier)


def _stages_d_and_e(b, cur, reference):
    try:
        if reference:
            out = _rescan_stage_d(b, cur)
            b.cuts = [_recount(out, m) for m in b.msets]
            out = live_following(b, out)
        else:
            out = live_following(b, cur)
            b.read_cuts(out)
            out = b.stage_absorb_separator(out)
        wits = b.check_output_clauses(out)
        return "ok", out.order, wits
    except (InvariantViolation, InputError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "context", None)


@pytest.mark.parametrize("n", [3, 4])
def test_stage_d_matches_rescan_loop(n):
    # same cycles and witnesses, or the same error at the same step with
    # the same context, on real inputs and on balls where the first
    # leftover separator vertex lost edges (which reaches the isolated
    # absorption) or an M set was given a wrong exclusion
    G = gen_G_inf(n)
    trace = hamilton_sequence(G, 2)
    rng = random.Random(n)
    seen = Counter()
    for C in trace.cycles[:2]:
        decomp = decompose(G, C, Region(G, C.order), set())
        rim = rim_of(decomp, C)
        b = _CutBuilder(G, C, decomp, rim)
        cur = b.stage_fill_finite()
        for j in range(b.k):
            cur = b.thread_part(cur, j)
        b.read_cuts(cur)
        # every trial starts stage D from this copy of stage C's cycle,
        # which the stages would otherwise rewire in place
        cur = b.stage_absorb_trees(cur).freeze()
        u = min(s for s in b.script_S if s not in cur)
        on = [w for w in b.B.neighbors(u) if w in cur]
        for trial in range(60):
            pair = [_CutBuilder(G, C, decomp, rim) for _ in range(2)]
            if trial % 3:
                keep = set(rng.sample(on, rng.randint(2, min(5, len(on)))))
                B = _without_edges(b.B, u, keep)
                for x in pair:
                    x.B = B
            if trial % 5 == 4:
                # a tree vertex inside the piece, so both its cycle
                # edges start crossing
                j = trial % b.k
                v = rng.choice(sorted(b.trees[j].vertices))
                for x in pair:
                    x.msets[j].discard((v,))
            isolated = []
            kept = pair[0]
            absorb = kept.absorb_isolated_separator_vertex

            def counting(*args, absorb=absorb):
                isolated.append(args[1])
                return absorb(*args)

            kept.absorb_isolated_separator_vertex = counting
            got = _stages_d_and_e(kept, cur, reference=False)
            want = _stages_d_and_e(pair[1], cur, reference=True)
            assert got == want
            key = got[0] if got[0] != "InvariantViolation" else got[1][:30]
            seen[(key, bool(isolated))] += 1
    assert seen[("ok", True)] and seen[("ok", False)]
    assert any("crossed" in key for key, _ in seen)


# ---------------------------------------------------------------------------
# work per iteration


@pytest.mark.parametrize("n, depth", [(2, 24), (3, 16)])
def test_iteration_work_does_not_read_the_whole_cycle(monkeypatch, n, depth):
    # from the second iteration on, an iteration builds one Cycle (the
    # trace's), reads no whole-cycle edge list, builds no live cycle
    # from a Cycle, and walks each end's ray only past what it gained
    G = gen_G_inf(n)
    counts = []

    def counting(key, func):
        def run(*args):
            if counts:
                counts[-1][key] += 1
            return func(*args)

        return run

    enlarge = infinite._RunState.enlarge

    def next_iteration(self, C):
        counts.append(Counter())
        return enlarge(self, C)

    monkeypatch.setattr(infinite._RunState, "enlarge", next_iteration)
    monkeypatch.setattr(Cycle, "__init__", counting("Cycle", Cycle.__init__))
    # the live cycle freezes itself through the constructor that builds
    # nothing, which counts as a Cycle too
    monkeypatch.setattr(Cycle, "_of", classmethod(counting("Cycle", Cycle._of.__func__)))
    monkeypatch.setattr(Cycle, "edges", counting("edges", Cycle.edges))
    monkeypatch.setattr(LiveCycle, "__init__", counting("live", LiveCycle.__init__))
    for name in G.end_rays:
        G.end_rays[name] = counting("ray", G.end_rays[name])
    hamilton_sequence(G, depth)
    assert len(counts) == depth and not hasattr(Cycle, "edges_outside")
    # the first iteration starts the live cycle from the saturated seed
    assert counts[0]["live"] == 1
    later = counts[1:]
    assert all(c["Cycle"] == 1 and c["edges"] == c["live"] == 0 for c in later)
    rays = [c["ray"] for c in later]
    assert max(rays[len(rays) // 2 :]) <= max(rays[: len(rays) // 2]) <= 4 * n + 4
