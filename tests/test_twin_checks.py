"""The ball checks over closed-twin classes against per-vertex loops.

``star_on_ball`` and ``claw_free_on_ball`` test one centre per class of
the region's closed-twin classes.  The references below are the loops
they replaced, one centre at a time over a rank table of single
vertices.  Each test compares the verdict, with its witness and both
compared numbers, and the certified set after every call.
"""

import random
from collections import Counter

import pytest

import hamext.infinite as infinite
import hamext.structure as structure
from hamext.conditions import (
    _claw_at,
    _claw_near,
    _RankTable,
    _star_fails_near,
    _star_scan_at,
    check_star_ball,
    claw_free_on_ball,
    star_on_ball,
    StarVerdict,
    ClawVerdict,
)
from hamext.errors import FrontierContamination, InputError
from hamext.families import fiber_vertices, fiber_window, gen_G_inf, gen_H_inf
from hamext.graphcore import FiniteGraph, Region, ball, neighborhood_k
from hamext.infinite import decide_by_period, hamilton_sequence
from test_run_state import without_period


# ---------------------------------------------------------------------------
# the per-vertex loops


def window_table(B, core, hops):
    """A rank table of single vertices over the closed ``hops``-
    neighbourhood of ``core``."""
    adj = B.adj
    core = frozenset(core)
    keep = core | neighborhood_k(B, core, hops)
    vertices = sorted(keep)
    window = {v: tuple(w for w in adj[v] if w in keep) for v in vertices}
    return _RankTable(vertices, window)


def reference_star_on_ball(B, layers, limit, certified):
    eligible = frozenset().union(*layers[: limit + 1])
    close = sorted(
        set().union(*map(B.frontier.intersection, layers[: limit + 2]))
    )
    if close:
        raise FrontierContamination(
            f"frontier vertices {close[:6]} lie closer than {limit + 2} "
            "to the centre"
        )
    centers = sorted(eligible - certified)
    table = window_table(B, centers, 2)
    for v in centers:
        nbrs = B.adj[v]
        ends = [u for u in nbrs if u in eligible]
        if _star_fails_near(table, v, ends):
            found = _star_scan_at(B, v, ends)
            if found is not None:
                witness, lhs, rhs = found
                return StarVerdict(
                    False, witness=witness, lhs=lhs, rhs=rhs, scope="ball"
                )
        if len(ends) == len(nbrs):
            certified.add(v)
    return StarVerdict(True, scope="ball")


def reference_claw_free_on_ball(B, centers, certified=None):
    centers = frozenset(centers)
    todo = sorted(centers - certified if certified else centers)
    close = centers & B.frontier
    stop = min(close) if close else None
    table = window_table(B, todo, 1)
    for v in todo:
        if stop is not None and v >= stop:
            break
        if _claw_near(table, v):
            leaves = _claw_at(B, v)
            if leaves is not None:
                return ClawVerdict(False, witness=(v, leaves))
        if certified is not None:
            certified.add(v)
    if stop is not None:
        raise FrontierContamination(f"claw center {stop} lies on the frontier")
    return ClawVerdict(True)


# ---------------------------------------------------------------------------
# comparisons


def outcome(check, *args):
    try:
        verdict = check(*args)
    except FrontierContamination as exc:
        return ("frontier", str(exc))
    if isinstance(verdict, StarVerdict):
        return ("holds",) if verdict.holds else ("fails", verdict)
    return ("free",) if verdict.claw_free else ("claw", verdict)


def same_star(B, layers, limit, certified):
    got_cert, want_cert = set(certified), set(certified)
    got = outcome(star_on_ball, B, layers, limit, got_cert)
    want = outcome(reference_star_on_ball, B, layers, limit, want_cert)
    assert got == want
    assert got_cert == want_cert
    return got[0]


def same_claw(B, centers, certified):
    got_cert = None if certified is None else set(certified)
    want_cert = None if certified is None else set(certified)
    got = outcome(claw_free_on_ball, B, centers, got_cert)
    want = outcome(reference_claw_free_on_ball, B, centers, want_cert)
    assert got == want
    assert got_cert == want_cert
    return got[0]


def some(rng, items):
    items = sorted(items)
    return set(rng.sample(items, rng.randint(0, len(items))))


def check_ball(rng, region, radius, seen):
    """Both checks on one ball of ``region``, every limit the frontier
    allows and one it does not, with random certified sets."""
    B = region.ball(radius)
    layers = region.layers
    top = radius - 2 if B.frontier else radius + 1
    for limit in range(0, top + 2):
        eligible = set().union(*layers[: limit + 1])
        for certified in (set(), some(rng, eligible)):
            seen[same_star(B, layers, limit, certified)] += 1
    interior = sorted(B.vertex_set - B.frontier)
    vertices = sorted(B.vertices)
    samples = (
        interior,
        interior[1:],
        rng.sample(vertices, rng.randint(1, len(vertices))),
    )
    for centers in samples:
        for certified in (None, set(), some(rng, centers)):
            seen[same_claw(B, centers, certified)] += 1


# ---------------------------------------------------------------------------
# families and random blow-ups


FAMILIES = [("GZn", n) for n in range(2, 9)] + [("HZn", n) for n in range(2, 6)]


@pytest.mark.parametrize("family, n", FAMILIES)
def test_class_checks_match_vertex_loops_on_family_balls(family, n):
    G = gen_G_inf(n) if family == "GZn" else gen_H_inf(n)
    rng = random.Random(n if family == "GZn" else 100 + n)
    seen = Counter()
    near = sorted(ball(G, G.root, 1).frontier)
    for center in ((G.root,), (G.root, near[-1]), (near[0],)):
        region = Region(G, center)
        # radii that fall and rise again, on one region
        for radius in (3, 2, 5, 4, 1, 5):
            check_ball(rng, region, radius, seen)
        # the region grows, as a run's does
        region.grow(rng.sample(sorted(region.layers[1]), 2))
        for radius in (4, 5):
            check_ball(rng, region, radius, seen)
    assert seen["holds"] and seen["frontier"] and seen["free"]
    if family == "HZn":
        assert seen["fails"] and seen["claw"]


def blow_up(rng, ids):
    """A random G0 with each vertex i replaced by a clique of ``size[i]``
    closed twins, on vertex ids drawn from ``ids``.  Half the graphs have
    one size for every class, half a size per class."""
    k = rng.randint(3, 9)
    p = rng.uniform(0.25, 0.7)
    base = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < p]
    if rng.random() < 0.5:
        size = [rng.randint(1, 4)] * k
    else:
        size = [rng.randint(1, 4) for _ in range(k)]
    names = iter(rng.sample(ids, sum(size)))
    fiber = [[next(names) for _ in range(size[i])] for i in range(k)]
    edges = [(u, w) for f in fiber for a, u in enumerate(f) for w in f[a + 1 :]]
    edges += [(u, w) for i, j in base for u in fiber[i] for w in fiber[j]]
    return FiniteGraph.from_edges([v for f in fiber for v in f], edges), fiber


def test_class_checks_match_vertex_loops_on_random_blow_ups():
    # consecutive graphs share vertex ids, so a class map kept across
    # graphs would show
    rng = random.Random(2026)
    seen = Counter()
    for _ in range(250):
        G, fiber = blow_up(rng, list(range(-10, 30)))
        vertices = sorted(G.vertices)
        region = Region(G, rng.sample(vertices, rng.randint(1, 3)))
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                region.grow(rng.sample(vertices, 1))
            check_ball(rng, region, rng.randint(1, 4), seen)
    assert seen["holds"] and seen["fails"] and seen["frontier"]
    assert seen["free"] and seen["claw"]


def test_star_counts_class_sizes():
    # 25 and 30 are twins, and the path 1-18-29 fails only when their
    # class counts twice: d(1) + d(29) = 4 + 3 < 8 = |N(1) | N(18) | N(29)|
    edges = [(1, 18), (1, 20), (1, 26), (1, 28), (18, 20), (18, 25), (18, 28)]
    edges += [(18, 29), (18, 30), (20, 25), (20, 26), (20, 29), (20, 30)]
    edges += [(25, 26), (25, 28), (25, 30), (26, 29), (26, 30), (28, 30)]
    G = FiniteGraph.from_edges(sorted({v for e in edges for v in e}), edges)
    region = Region(G, [20])
    B = region.ball(3)
    assert region.twins.size[region.twins.of[30]] == 2
    assert same_star(B, region.layers, 1, set()) == "fails"
    assert star_on_ball(B, region.layers, 1, set()) == StarVerdict(
        False, witness=(1, 18, 29), lhs=7, rhs=8, scope="ball"
    )


def test_twin_on_the_centre_beside_one_off_it():
    # X holds one vertex of a class whose other vertices lie at distance 1
    rng = random.Random(5)
    seen = Counter()
    for G in (gen_G_inf(3), gen_H_inf(3)):
        probe = Region(G, [G.root])
        probe.ball(3)
        twins = probe.twins
        v = min(x for x, c in twins.of.items() if twins.size[c] > 1)
        region = Region(G, [v])
        B = region.ball(4)
        twins = region.twins.of
        split = [w for w in region.layers[1] if twins[w] == twins[v]]
        assert split
        for limit in (0, 1, 2):
            for certified in (set(), {v}, set(split)):
                seen[same_star(B, region.layers, limit, certified)] += 1
        for centers in ([v], [v, *split], sorted(B.vertex_set - B.frontier)):
            seen[same_claw(B, centers, set())] += 1
    for _ in range(60):
        G, fiber = blow_up(rng, list(range(40)))
        pair = [f for f in fiber if len(f) > 1]
        if not pair:
            continue
        region = Region(G, pair[0][:1])
        for radius in (2, 3, 1, 4):
            check_ball(rng, region, radius, seen)
    assert seen["fails"] and seen["claw"]


def test_frontier_claw_centre():
    # a frontier centre ends the scan: after a claw centre before it,
    # the claw is reported; with none before it, the scan raises
    H = gen_H_inf(2)
    region = Region(H, [H.root])
    B = region.ball(2)
    edge = min(B.frontier)
    claws = [v for v in sorted(B.vertex_set - B.frontier) if _claw_at(B, v)]
    assert claws and claws[0] < edge
    assert same_claw(B, [claws[0], edge], set()) == "claw"
    assert same_claw(B, [edge], set()) == "frontier"
    calm = [v for v in sorted(B.vertex_set - B.frontier) if v < edge and not _claw_at(B, v)]
    assert same_claw(B, [*calm, edge], set()) == "frontier"


@pytest.mark.parametrize("n, depth", [(2, 8), (3, 6), (5, 3), (8, 2)])
def test_run_checks_match_vertex_loops(monkeypatch, n, depth):
    # every ball check of a run, with the run's own certified sets
    calls = Counter()

    def star(B, layers, limit, certified, **fresh):
        want_cert = set(certified)
        want = outcome(reference_star_on_ball, B, layers, limit, want_cert)
        verdict = star_on_ball(B, layers, limit, certified, **fresh)
        assert outcome(lambda: verdict) == want and certified == want_cert
        calls["star"] += 1
        return verdict

    def claw(B, centers, certified=None):
        centers = sorted(centers)
        want_cert = None if certified is None else set(certified)
        want = outcome(reference_claw_free_on_ball, B, centers, want_cert)
        verdict = claw_free_on_ball(B, centers, certified)
        assert outcome(lambda: verdict) == want and certified == want_cert
        calls["claw"] += 1
        return verdict

    monkeypatch.setattr(infinite, "star_on_ball", star)
    monkeypatch.setattr(structure, "claw_free_on_ball", claw)
    hamilton_sequence(without_period(gen_G_inf(n)), depth)
    assert calls["star"] == calls["claw"] == depth + 1


@pytest.mark.parametrize("family, n", FAMILIES)
def test_period_decision_matches_vertex_loops_on_a_wide_ball(monkeypatch, family, n):
    # the representatives are fibers 0 .. p - 1; the period decision
    # refuses G as the per-vertex loops at those centres do on a ball
    # reaching fibers -6 .. 6, and it passes G exactly when every centre
    # of fibers -4 .. 4 passes on that ball
    G, period = (gen_G_inf(n), 1) if family == "GZn" else (gen_H_inf(n), 2)
    reps = [v for ids in G.representatives for v in ids]
    assert reps == [v for f in range(period) for v in fiber_vertices(G.descriptor, f)]
    near = Region(G, reps)
    wide = near.ball(6)
    claw = outcome(reference_claw_free_on_ball, wide, reps)
    star = outcome(reference_star_on_ball, wide, near.layers, 1, set())
    assert outcome(check_star_ball, G, reps, 3) == star
    window = fiber_window(G.descriptor, 4)
    region = Region(G, window)
    B = region.ball(2)
    everywhere = (
        outcome(reference_claw_free_on_ball, B, window)[0],
        outcome(reference_star_on_ball, B, region.layers, 0, set())[0],
    )
    assert everywhere == (claw[0], star[0])
    if family == "HZn":
        center, leaves = claw[1].witness
        with pytest.raises(InputError) as info:
            decide_by_period(G)
        assert str(info.value) == f"graph has a claw at {center} with leaves {leaves}"
        return
    assert (claw, star) == (("free",), ("holds",))
    # a decided run scans no ball of its own for either condition
    calls = Counter()
    for module, name in ((infinite, "star_on_ball"), (structure, "claw_free_on_ball")):
        check = getattr(module, name)

        def counting(*args, check=check, name=name, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert decide_by_period(G)
    assert calls == {"claw_free_on_ball": 1}
    hamilton_sequence(G, 2)
    assert calls == {"claw_free_on_ball": 2}
