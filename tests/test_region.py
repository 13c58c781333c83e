"""The growing region of an infinite run.

Each test compares what the region, or a check that now reads only what
the cycle gained, hands out with a whole-ball or whole-cycle computation
of the same thing: the ball, the distance layers, the decomposition, and
the first failure of each incremental check, with its message and
context.  The flatness test counts the Python lines one iteration runs.
"""

import operator
import os
import random
import sys
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest

import hamext
import hamext.infinite as infinite
import hamext.structure as structure
from hamext.conditions import _claw_at, claw_free_on_ball
from hamext.errors import FrontierContamination, InputError, InvariantViolation
from hamext.extension import (
    Extension,
    LiveCycle,
    find_initial_cycle,
    iter_extensions,
)
from hamext.families import fiber_vertices, gen_G_inf, gen_H_inf
from hamext.graphcore import (
    Cycle,
    LazyGraph,
    Region,
    TwinClasses,
    ball,
    canonical_edge,
)
from hamext.infinite import _CutBuilder, hamilton_sequence
from hamext.oracle import random_star_clawfree
from hamext.structure import decompose, minimal_ray_blocker
from cycles import edge_set, rewire, rewired
from separators import components
from test_infinite import rim_of
from test_run_state import without_period
from wholeball import reference_ball


def assert_ball_matches(region, radius, B):
    want, dist = reference_ball(region.G, region.layers[0], radius)
    assert B == want
    assert dict(B._adjsets) == {v: frozenset(a) for v, a in want.adj.items()}
    assert {v: d for v, d in region.dist.items() if d <= radius} == dist
    for d, layer in enumerate(region.layers[: radius + 1]):
        assert layer == {v for v, e in dist.items() if e == d}


def decomp_key(decomp):
    return (
        decomp.script_S,
        decomp.k,
        decomp.parts,
        decomp.finite_component,
        decomp.infinite_components,
        decomp.ball,
    )


def checking_balls(monkeypatch, radii):
    """Make every ball a region hands out check itself against a
    whole-ball search; the radii asked for go to ``radii``."""
    region_ball = Region.ball

    def checked(self, radius):
        B = region_ball(self, radius)
        assert_ball_matches(self, radius, B)
        radii.append(radius)
        return B

    monkeypatch.setattr(Region, "ball", checked)


@pytest.mark.parametrize("n, depth", [(2, 10), (3, 8), (4, 5)])
def test_run_region_equals_fresh_balls_and_decompositions(monkeypatch, n, depth):
    G = without_period(gen_G_inf(n))
    radii = []
    checking_balls(monkeypatch, radii)
    seen = []
    run_decompose = infinite.decompose

    def comparing(G, C, region, certified, gained=None):
        got = run_decompose(G, C, region, certified, gained)
        assert region.layers[0] == C.vertex_set and not region.decided
        fresh = decompose(G, C, Region(G, C.order), set())
        assert decomp_key(got) == decomp_key(fresh)
        # the pieces are the components of the whole ball minus S
        pieces = components(got.ball, removed=got.script_S)
        assert got.finite_component in pieces
        assert set(got.infinite_components) <= set(pieces)
        seen.append(len(C))
        return got

    monkeypatch.setattr(infinite, "decompose", comparing)
    hamilton_sequence(G, depth)
    assert len(seen) == depth and seen == sorted(seen)


def pendant_family(length):
    """GZ2 with a path p1 .. p_length hanging off fibers 0 and 1: p1 is
    joined to all four of their vertices, and p_k has id -k.  The graph
    stays claw-free, and the path lies in the finite component of every
    cycle through fibers 0 and 1, so a ball around such a cycle must
    grow past the path's end."""
    G2 = gen_G_inf(2)
    attach = frozenset(
        fiber_vertices(G2.descriptor, 0) + fiber_vertices(G2.descriptor, 1)
    )

    def neighbors(v):
        if v < 0:
            k = -v
            out = [-(k + 1)] if k < length else []
            out += [-(k - 1)] if k > 1 else list(attach)
            return tuple(sorted(out))
        base = G2.neighbors(v)
        return tuple(sorted(base + (-1,))) if v in attach else base

    def escapes(blocked, v):
        core = frozenset(x for x in blocked if x >= 0)
        if v < 0:
            if any(-k in blocked for k in range(1, -v)):
                return False
            return any(a not in blocked and G2.escapes(core, a) for a in attach)
        return G2.escapes(core, v)

    return LazyGraph(neighbors, escapes, root=G2.root), sorted(attach)


def test_regrowth_and_a_smaller_radius_after_it(monkeypatch):
    G, (a, b, c, d) = pendant_family(10)
    radii = []
    checking_balls(monkeypatch, radii)
    cycles = [
        Cycle((a, c, b, d)),
        Cycle((a, -1, c, b, d)),
        # fiber 2 joins: vertices 8 and 9
        Cycle((a, -1, c, 8, 9, d, b)),
    ]
    region, certified = Region(G, cycles[0].order), set()
    for C in cycles:
        region.grow(C.vertex_set - region.layers[0])
        got = decompose(G, C, region, certified)
        assert got.script_S == minimal_ray_blocker(G, C, Region(G, C.order))
        assert decomp_key(got) == decomp_key(decompose(G, C, Region(G, C.order), set()))
        assert set(range(-10, 0)) <= got.finite_component
    # the run region's balls: 7, 9, 11 for the first cycle, then again
    # from 7 for each later one, each time after a fresh decompose's
    assert radii[:3] == [7, 9, 11]
    assert radii.count(7) == 6 and region.reach == 11


def test_resumed_end_walk_equals_the_walk_from_zero():
    # the pendant family's first cycle regrows its ball from radius 7 to
    # 11; then a smaller ball, of radius 7, around the next cycle, and a
    # ball of radius 11 again: the walk must start again from 0 after
    # the smaller ball and may resume after the larger one
    P, (a, b, c, d) = pendant_family(10)
    G = LazyGraph(
        P._neighbor_oracle, P._escape_oracle, P.root, gen_G_inf(2).end_rays
    )
    state = infinite._RunState(G, Cycle((a, c, b, d)), infinite.decide_by_period(G))
    region, resumed = state.region, Counter()
    for C, radius in (
        (Cycle((a, c, b, d)), None),
        (Cycle((a, -1, c, b, d)), 7),
        (Cycle((a, -1, c, 8, 9, d, b)), 11),
    ):
        region.grow(C.vertex_set - region.layers[0])
        decomp = decompose(G, C, region, state.claw_certified)
        if radius is not None:
            B = region.ball(radius)
            pieces = tuple(p & B.vertex_set for p in decomp.infinite_components)
            decomp = SimpleNamespace(ball=B, infinite_components=pieces)
        assert region.radius == (radius or 11)
        for name in sorted(G.end_rays):
            before = state.walks.get(name)
            j = state.select_end(name, decomp)
            assert (j, state.walks[name][:2]) == infinite._select_end(G, name, decomp, (0, None))
            resumed[before is not None and before[2] <= region.radius] += 1
    assert resumed == {False: 4, True: 2}


def dropped_edges(G, drops):
    """G with the directed edges in ``drops`` removed from the neighbour
    oracle: an asymmetric oracle."""

    def neighbors(v):
        return tuple(w for w in G.neighbors(v) if (v, w) not in drops)

    return LazyGraph(neighbors, G._escape_oracle, root=G.root)


def grid():
    """The square grid near the origin, (x, y) with |x|, |y| < 1000
    numbered (x + 1000) * 4000 + y + 1000; only its neighbours are
    read."""

    def neighbors(v):
        return (v - 4000, v - 1, v + 1, v + 4000)

    return LazyGraph(neighbors, lambda blocked, v: True, root=1000 * 4000 + 1000)


@pytest.mark.parametrize("shape", ["fibers", "grid"])
def test_symmetry_check_names_the_whole_ball_pair(shape):
    # an oracle dropping a few directed edges; the region grows (along
    # the double ray of GZ2, or in scattered steps over the grid, where a
    # vertex can come close from a new side) and hands out balls whose
    # radius may fall below an earlier one: each ball, or the first
    # asymmetric pair named, is the whole-ball search's
    base = gen_G_inf(2) if shape == "fibers" else grid()
    rng = random.Random(5)
    outcomes = Counter()
    for trial in range(120):
        if shape == "fibers":
            centre = rng.randint(-16, 16)
            pool = [
                v
                for f in range(centre - 1, centre + 2)
                for v in fiber_vertices(base.descriptor, f)
            ]
        else:
            cx, cy = rng.randint(-6, 6), rng.randint(-6, 6)
            pool = [
                base.root + (cx + dx) * 4000 + cy + dy
                for dx in range(-1, 2)
                for dy in range(-1, 2)
            ]
        # a few dropped edges close together, so that one ball often
        # holds several asymmetric pairs
        drops = set()
        for _ in range(rng.randint(1, 5)):
            v = rng.choice(pool)
            drops.add((v, rng.choice(base.neighbors(v))))
        G = dropped_edges(base, drops)
        region = Region(G, [base.root])
        X = {base.root}
        for k in range(1, 10):
            if shape == "fibers":
                lo = -k if rng.random() < 0.7 else -k - rng.randint(1, 5)
                fibers = range(lo, k + 1)
                gained = [v for f in fibers for v in fiber_vertices(base.descriptor, f)]
            else:
                gained = [
                    base.root + rng.randint(-k, k) * 4000 + rng.randint(-k, k)
                    for _ in range(rng.randint(1, 6))
                ]
            X.update(gained)
            region.grow(X - region.layers[0])
            radius = rng.randint(1, 6)
            try:
                want = ("ok", reference_ball(G, X, radius)[0])
            except InvariantViolation as exc:
                want = ("raise", str(exc))
            try:
                got = ("ok", region.ball(radius))
            except InvariantViolation as exc:
                got = ("raise", str(exc))
            assert got == want
            if got[0] == "raise":
                break
        outcomes[got[0]] += 1
    assert outcomes["raise"] > 20 and outcomes["ok"] > 0


@pytest.mark.parametrize("n, depth", [(2, 12), (5, 12)])
def test_symmetry_check_asks_the_oracle_in_id_order(monkeypatch, n, depth):
    # per ball, the fresh vertex whose comparison made each first call
    # of the neighbour oracle during the symmetry check; on GZ5 a set's
    # own order would put a larger vertex first in the fourteenth ball
    base = gen_G_inf(n)
    code = Region._check_symmetry.__code__
    balls = []

    def neighbors(v):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if frame is not None:
            balls[-1].append(frame.f_locals["x"])
        return base.neighbors(v)

    check = Region._check_symmetry

    def recording(self, fresh, radius):
        balls.append([])
        return check(self, fresh, radius)

    monkeypatch.setattr(Region, "_check_symmetry", recording)
    G = LazyGraph(
        neighbors, base.escapes, base.root, base.end_rays, descriptor=base.descriptor
    )
    hamilton_sequence(G, depth)
    assert all(calls == sorted(calls) for calls in balls), balls
    assert sum(map(len, balls)) > 40


def test_a_ball_still_held_keeps_its_tables():
    # the region updates its ball's tables in place only when nothing
    # holds the last ball; a ball still held is left as it was
    G = gen_G_inf(3)
    X = fiber_vertices(G.descriptor, 0)
    region = Region(G, X)
    held = region.ball(3)
    region.grow(fiber_vertices(G.descriptor, 1))
    B = region.ball(3)
    assert held == reference_ball(G, X, 3)[0] and held.adj is not B.adj
    assert B == reference_ball(G, region.layers[0], 3)[0]
    tables = B.adj, B._adjsets, B.vertex_set
    del B
    region.grow(fiber_vertices(G.descriptor, -1))
    B = region.ball(3)
    assert all(map(operator.is_, (B.adj, B._adjsets, B.vertex_set), tables))
    assert B == reference_ball(G, region.layers[0], 3)[0]


def test_region_refuses_past_its_neighbour_budget(monkeypatch):
    # a region counts the neighbour entries it fetches, once each: with
    # the budget at the count a ball needs it is handed out, one less
    # and it is refused as input
    assert hamext.graphcore.MAX_REGION_NEIGHBORS == 4 * 10**6
    X = fiber_vertices(gen_G_inf(3).descriptor, 0)
    region = Region(gen_G_inf(3), X)
    B = region.ball(4)
    held = region.held
    assert held == sum(map(len, region.nbrs.values())) > 0
    region.grow(fiber_vertices(region.G.descriptor, 1))
    region.ball(4)
    assert region.held == sum(map(len, region.nbrs.values()))
    monkeypatch.setattr(hamext.graphcore, "MAX_REGION_NEIGHBORS", held)
    assert Region(gen_G_inf(3), X).ball(4) == B
    monkeypatch.setattr(hamext.graphcore, "MAX_REGION_NEIGHBORS", held - 1)
    with pytest.raises(InputError, match=f"over {held - 1} neighbour entries"):
        Region(gen_G_inf(3), X).ball(4)
    # a run reads every ball off its one region, so it is refused too
    monkeypatch.setattr(hamext.graphcore, "MAX_REGION_NEIGHBORS", 200)
    with pytest.raises(InputError, match="over 200 neighbour entries"):
        hamilton_sequence(gen_G_inf(2), 3)


def test_cycle_edge_check_reads_new_edges_only(monkeypatch):
    # a run checks every edge of its first cycle, then of each later one
    # only the edges its live cycle gained, in G
    G = gen_G_inf(3)
    asked, checked = [], []
    adjacent = LazyGraph.adjacent
    blocker = structure.minimal_ray_blocker

    def counting(self, u, v):
        asked.append(canonical_edge(u, v))
        return adjacent(self, u, v)

    def recording(*args):
        asked.clear()
        S = blocker(*args)
        checked.append(set(asked))
        return S

    monkeypatch.setattr(LazyGraph, "adjacent", counting)
    monkeypatch.setattr(structure, "minimal_ray_blocker", recording)
    trace = hamilton_sequence(G, 4)
    monkeypatch.undo()
    assert len(checked) == 4
    before = set()
    for C, new in zip(trace.cycles, checked):
        assert new == edge_set(C) - before
        before = edge_set(C)
    # a cycle whose edges are not all in G: checked on the pairs it
    # gained, the least missing one is named, and a fresh check of the
    # whole cycle fails too
    last = trace.cycles[-1]
    rng = random.Random(2)
    seen = Counter()
    for _ in range(20):
        i, j = sorted(rng.sample(range(len(last)), 2))
        order = list(last.order)
        order[i], order[j] = order[j], order[i]
        bad = Cycle(tuple(order))
        missing = sorted(e for e in edge_set(bad) if not G.adjacent(*e))
        outcomes = []
        for args in (
            (G, bad, Region(G, bad.order)),
            (G, bad, Region(G, last.order), edge_set(bad) - edge_set(last)),
        ):
            try:
                outcomes.append(minimal_ray_blocker(*args))
            except InputError as exc:
                outcomes.append(str(exc))
        if missing:
            assert outcomes[1] == f"cycle edge {missing[0]} missing in graph"
            assert outcomes[0].startswith("cycle edge")
        else:
            assert outcomes[0] == outcomes[1]
        seen[bool(missing)] += 1
    assert seen[True] > 10


def reference_claw_free_on_ball(B, centers, certified=None):
    """claw_free_on_ball's loop over every centre, as it ran before."""
    for v in sorted(set(centers)):
        if v in B.frontier:
            raise FrontierContamination(f"claw center {v} lies on the frontier")
        if certified is not None and v in certified:
            continue
        leaves = _claw_at(B, v)
        if leaves is not None:
            return ("claw", v, leaves)
        if certified is not None:
            certified.add(v)
    return ("free",)


def test_claw_scan_with_set_operations_matches_centre_loop():
    rng = random.Random(11)
    seen = Counter()
    for G in (gen_G_inf(3), gen_H_inf(3)):
        B = ball(G, G.root, 4)
        vertices = sorted(B.vertices)
        for _ in range(80):
            centers = rng.sample(vertices, rng.randint(1, len(vertices)))
            certified = set(rng.sample(centers, rng.randint(0, len(centers))))
            got_cert = rng.choice((None, set(), set(certified)))
            want_cert = None if got_cert is None else set(got_cert)
            try:
                verdict = claw_free_on_ball(B, centers, got_cert)
                got = ("free",) if verdict.claw_free else ("claw", *verdict.witness)
            except FrontierContamination as exc:
                got = ("frontier", str(exc))
            try:
                want = reference_claw_free_on_ball(B, centers, want_cert)
            except FrontierContamination as exc:
                want = ("frontier", str(exc))
            assert got == want
            assert got_cert == want_cert
            seen[got[0]] += 1
    assert seen["free"] and seen["claw"] and seen["frontier"]


def test_consecutive_pair_matches_cycle_walk():
    rng = random.Random(4)
    b = _CutBuilder.__new__(_CutBuilder)
    for _ in range(300):
        order = tuple(rng.sample(range(-30, 30), rng.randint(3, 25)))
        C = Cycle(order)
        nbrs = set(rng.sample(order, rng.randint(0, len(order))))
        want = None
        for a in C.order:
            if a in nbrs and C.succ(a) in nbrs:
                want = (a, C.succ(a))
                break
        assert b.consecutive_pair(infinite._RunCycle(C), nbrs) == want


def reference_edge_clauses(b, cur):
    """The protected-edge and new-edge clauses of stage E over whole
    cycle edge sets, as they ran before."""
    protected = b.rim.protected
    cur_edges = edge_set(cur)
    for a, c in b.C.edges():
        if a in protected and c in protected and canonical_edge(a, c) not in cur_edges:
            raise InvariantViolation(
                "protected cycle edge vanished", edge=canonical_edge(a, c)
            )
    for a, c in sorted(cur_edges - edge_set(b.C)):
        for end in (a, c):
            if end in b.C.vertex_set and end not in b.rim.near:
                raise InvariantViolation(
                    "new edge lands on a protected old vertex", edge=(a, c), end=end
                )
    return "ok"


@pytest.mark.parametrize("n", [2, 3])
def test_stage_e_edge_clauses_match_whole_cycle_scan(n):
    G = gen_G_inf(n)
    trace = hamilton_sequence(G, 3)
    rng = random.Random(n)
    seen = Counter()
    for C in trace.cycles[:3]:
        decomp = decompose(G, C, Region(G, C.order), set())
        rim = rim_of(decomp, C)
        b = _CutBuilder(G, C, decomp, rim)
        cur = b.stage_fill_finite()
        for j in range(b.k):
            cur = b.thread_part(cur, j)
        b.read_cuts(cur)
        cur = b.stage_absorb_trees(cur)
        cur = b.stage_absorb_separator(cur)
        for trial in range(30):
            # widen what is protected or narrow what may be rewired
            old = sorted(C.vertex_set)
            b.rim.protected = rim.protected | set(rng.sample(old, rng.randint(0, 8)))
            b.rim.near = rim.near - set(rng.sample(old, rng.randint(0, 8)))
            outcomes = []
            for check in (b.check_output_clauses, partial(reference_edge_clauses, b)):
                try:
                    check(cur)
                    outcomes.append("ok")
                except InvariantViolation as exc:
                    outcomes.append((str(exc), exc.context))
            assert outcomes[0] == outcomes[1]
            seen[outcomes[0] if outcomes[0] == "ok" else outcomes[0][0]] += 1
        b.rim.protected, b.rim.near = rim.protected, rim.near
    assert set(seen) == {
        "ok", "protected cycle edge vanished", "new edge lands on a protected old vertex"
    }


def test_order_after_one_rewiring_equals_the_walk():
    rng = random.Random(6)
    kinds = Counter()
    for _ in range(400):
        order = tuple(rng.sample(range(-40, 40), rng.randint(4, 30)))
        C = Cycle(order)
        fresh = iter(x for x in range(100, 110))
        u = rng.choice(order)
        kind = rng.choice(("I", "II", "III"))
        if kind == "III":
            ys = [y for y in order if y not in (u, C.succ(u)) and C.succ(y) != u]
            e = Extension("III", next(fresh), u, y=rng.choice(ys))
        elif kind == "II":
            e = Extension("II", next(fresh), u, x=next(fresh))
        else:
            e = Extension("I", next(fresh), u)
        live = LiveCycle(C)
        live.apply(e)
        walk = [live.head]
        while live.succ(walk[-1]) != live.head:
            walk.append(live.succ(walk[-1]))
        assert rewired(order, e) == tuple(walk) == live.order
        assert rewire(C, e).order == live.order
        kinds[kind] += 1
    assert len(kinds) == 3


def test_seeded_heap_runs_the_same_extensions():
    # iter_extensions started from the start cycle's admissible targets
    # takes the same steps as one that scans the start cycle for them
    rng = random.Random(9)
    for seed in range(40):
        G = random_star_clawfree(seed, bound=12)
        start = find_initial_cycle(G)
        steps = [start] + [live.freeze() for _, live in iter_extensions(G, start)]
        C0 = rng.choice(steps[:-1] or steps)
        keep = set(rng.sample(G.vertices, rng.randint(1, len(G.vertices))))
        near = {w for u in C0.order for w in G.neighbors(u)} - C0.vertex_set
        scanned = [
            (e, live.order) for e, live in iter_extensions(G, C0, keep.__contains__)
        ]
        seeded = [
            (e, live.order)
            for e, live in iter_extensions(G, C0, keep.__contains__, near & keep)
        ]
        assert seeded == scanned


# ---------------------------------------------------------------------------
# flatness: one iteration's Python lines do not grow with |C|


def _lines_per_enlarge(monkeypatch, n, depth):
    """The Python lines run inside the package by each iteration, with
    the cycle length before it."""
    root = os.path.dirname(hamext.__file__)
    counts = []
    enlarge = infinite._RunState.enlarge

    def count(frame, event, arg):
        if not frame.f_code.co_filename.startswith(root):
            return None

        def local(frame, event, arg):
            if event == "line":
                counts[-1][1] += 1
            return local

        return local

    def traced(self, C):
        counts.append([len(C), 0])
        sys.settrace(count)
        try:
            return enlarge(self, C)
        finally:
            sys.settrace(None)

    monkeypatch.setattr(infinite._RunState, "enlarge", traced)
    hamilton_sequence(gen_G_inf(n), depth)
    return counts


@pytest.mark.parametrize("n", [2, 3])
def test_iteration_lines_do_not_grow_with_the_cycle(monkeypatch, n):
    counts = _lines_per_enlarge(monkeypatch, n, 24)
    (c5, l5), (c23, l23) = counts[5], counts[23]
    assert c23 > 3 * c5
    # no Python loop runs over the cycle: with the live cycle kept
    # across iterations and its order spliced, GZn's translation-periodic
    # iterations run the same lines at every depth
    assert l23 == l5


def _ball_work_per_enlarge(monkeypatch, n, depth):
    """Per iteration: the centres the claw scan is handed, the centres
    of the star scan's centre layer it may read (``fresh``) with its
    eligible shell, and for each Region.ball call the vertices it takes
    as interior for the first time, the vertices new to the ball, the
    frontier rows it writes, and whether the ball's tables are the
    region's own rather than copies."""
    work = []
    enlarge, ball, add = infinite._RunState.enlarge, Region.ball, TwinClasses.add
    claw, star = structure.claw_free_on_ball, infinite.star_on_ball

    def counting_enlarge(self, C):
        work.append(Counter())
        return enlarge(self, C)

    def counting_ball(self, radius):
        before = len(self._adj) if radius == self.radius else 0
        B = ball(self, radius)
        if work:
            w = work[-1]
            w["new"] += len(B.adj) - before
            w["frontier"] += len(B.frontier)
            w["own"] += (
                B.adj is self._adj
                and B._adjsets is self._sets
                and B.vertex_set is self._members
            )
        return B

    def counting_add(self, vertices):
        if work:
            work[-1]["fresh"] += len(vertices)
        return add(self, vertices)

    def counting_claw(B, centers, certified=None):
        centers = list(centers)
        if work:
            work[-1]["claw"] += len(centers)
        return claw(B, centers, certified)

    def counting_star(B, layers, limit, certified, fresh=None):
        if work:
            shell = sum(map(len, layers[1 : limit + 1]))
            work[-1]["star"] += len(fresh) + shell
        return star(B, layers, limit, certified, fresh)

    monkeypatch.setattr(infinite._RunState, "enlarge", counting_enlarge)
    monkeypatch.setattr(Region, "ball", counting_ball)
    monkeypatch.setattr(TwinClasses, "add", counting_add)
    monkeypatch.setattr(structure, "claw_free_on_ball", counting_claw)
    monkeypatch.setattr(infinite, "star_on_ball", counting_star)
    trace = hamilton_sequence(without_period(gen_G_inf(n)), depth)
    return work, [len(C) for C in trace.cycles]


@pytest.mark.parametrize("n", [2, 3])
def test_ball_work_does_not_grow_with_the_cycle(monkeypatch, n):
    # the ball checks are handed only the centres that may be left, and
    # a ball is built from what changed around the cycle: no set, dict
    # or tuple over the whole cycle or ball is built or copied, so these
    # counts are the same at every depth of GZn
    work, sizes = _ball_work_per_enlarge(monkeypatch, n, 24)
    assert sizes[23] > 3 * sizes[5]
    assert work[23] == work[5]
    assert work[5]["own"] == 1 and work[5]["claw"] and work[5]["star"]
