"""The extension loop's first-anchor walk and once-per-class admission
against the code they replaced.

``find_extension`` walks the target's sorted row and returns kind I at
the first anchor whose successor fits; ``iter_extensions`` reads one
row per closed-twin class of a finite graph; ``twin_quotient`` keys a
class by its sorted closed neighbourhood.  The references below are
the versions before that: every anchor filtered and sorted first, every
absorbed vertex's row read, and a frozenset key per vertex.  Each test
requires the same extension sequence, as (kind, target, u, x, y)
tuples or the same exception, and the same quotient.
"""

import itertools
import random
from collections import Counter
from heapq import heappop, heappush

import hamext.infinite as infinite
from hamext.conditions import check_star
from hamext.errors import InputError, InvariantViolation
from hamext.extension import (
    Extension,
    LiveCycle,
    find_extension,
    find_initial_cycle,
    iter_extensions,
)
from hamext.families import gen_G_inf, gen_H
from hamext.graphcore import Cycle, FiniteGraph
from hamext.infinite import hamilton_sequence
from hamext.oracle import random_star_clawfree
from test_extension import relabelled_G


# ---------------------------------------------------------------------------
# the replaced code


def reference_find_extension(G, C, v):
    if isinstance(C, LiveCycle):
        on = C._succ
        succ = on.__getitem__
    else:
        on, succ = C.vertex_set, C.succ
    if v in on:
        raise InputError(f"target {v} already lies on the cycle")
    nbrs = G.neighbors(v)
    anchors = sorted(filter(on.__contains__, nbrs))
    if not anchors:
        raise InputError(f"target {v} has no neighbour on the cycle")
    for u in anchors:
        if G.adjacent(v, succ(u)):
            return Extension("I", v, u)
    ups = list(map(succ, anchors))
    for u, up in zip(anchors, ups):
        for y, yp in zip(anchors, ups):
            if y == u or y == up or yp == u:
                continue
            if G.adjacent(up, yp):
                return Extension("III", v, u, y=y)
    outside = [x for x in sorted(nbrs) if x not in on and x != v]
    for u, up in zip(anchors, ups):
        for x in outside:
            if G.adjacent(x, up):
                return Extension("II", v, u, x=x)
    raise InvariantViolation(
        f"no extension absorbs target {v}; the degree condition cannot hold here",
        cycle=C.order,
        target=v,
        anchors=tuple(anchors),
        neighborhood=tuple(G.neighbors(v)),
    )


def reference_iter_extensions(G, C0, target_filter=None, targets=None):
    seen = set()
    heap = []

    def admit(absorbed):
        seen.update(absorbed)
        for u in absorbed:
            for w in G.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    if target_filter is None or target_filter(w):
                        heappush(heap, w)

    if targets is None:
        admit(C0.order)
    else:
        heap.extend(sorted(targets))
        seen.update(heap)
    if isinstance(C0, LiveCycle):
        C = C0
    else:
        C = LiveCycle(C0) if heap else None
    while heap:
        v = heappop(heap)
        if v in C:
            continue
        e = reference_find_extension(G, C, v)
        C.apply(e)
        admit(e.new_vertices())
        yield e, C


def reference_twin_quotient(G):
    vertices, adj = G.vertices, G.adj
    closed = list(
        map(frozenset.union, map(frozenset, map(adj.__getitem__, vertices)), zip(vertices))
    )
    first = dict(zip(reversed(closed), reversed(vertices)))
    if len(first) == len(closed):
        return vertices, adj, None
    size = Counter(map(first.__getitem__, closed))
    is_first = size.__contains__
    quotient = {r: tuple(filter(is_first, adj[r])) for r in size}
    return list(size), quotient, size


# ---------------------------------------------------------------------------
# comparisons


def failure(err):
    return type(err).__name__, str(err), getattr(err, "context", None)


def steps(loop, G, order, target_filter=None, targets=None):
    """The (kind, target, u, x, y) tuples of a run from a fresh live
    cycle of ``order``, ended by the exception that stops it, if any."""
    out = []
    try:
        for e, _ in loop(G, LiveCycle(Cycle(order)), target_filter, targets):
            out.append(e._values())
    except (InputError, InvariantViolation) as err:
        out.append(failure(err))
    return out


def same_run(G, order, target_filter=None, targets=None):
    got = steps(iter_extensions, G, order, target_filter, targets)
    want = steps(reference_iter_extensions, G, order, target_filter, targets)
    assert got == want
    return Counter(s[0] for s in got)


def same_quotient(G):
    got, want = G.twin_quotient, reference_twin_quotient(G)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    return want[2] is not None


def finder_outcome(finder, G, C, v):
    try:
        return finder(G, C, v)._values()
    except (InputError, InvariantViolation) as err:
        return failure(err)


def same_finders(G, C, targets):
    for v in targets:
        got = finder_outcome(find_extension, G, C, v)
        assert got == finder_outcome(reference_find_extension, G, C, v)


def assert_same(G):
    """Quotient, the run from the smallest initial cycle, and, at that
    cycle, the finder on every vertex; returns the run's kinds."""
    twins = same_quotient(G)
    C0 = find_initial_cycle(G)
    same_finders(G, C0, G.vertices)
    same_finders(G, LiveCycle(C0), G.vertices)
    return same_run(G, C0.order), twins


# ---------------------------------------------------------------------------
# finite graphs


def test_every_small_graph_meeting_the_condition():
    kinds, checked, with_twins = Counter(), 0, 0
    for n in range(3, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            G = FiniteGraph.from_edges(range(n), edges)
            if not G.is_connected() or not check_star(G).holds:
                # the quotient still has to match
                same_quotient(G)
                continue
            try:
                find_initial_cycle(G)
            except InputError:
                continue
            got, twins = assert_same(G)
            kinds += got
            checked += 1
            with_twins += twins
    assert (checked, with_twins) == (97, 79)
    assert set(kinds) == {"I", "II", "III"}


def test_benchmark_shapes_relabelled():
    for q, n in ((100, 4), (400, 3), (500, 4), (14, 12), (11, 16), (9, 20)):
        G = relabelled_G(q, n, seed=1)
        assert same_quotient(G)
        kinds = same_run(G, find_initial_cycle(G).order)
        # every vertex off the initial triangle absorbed, two by kind II
        assert kinds["I"] + 2 * kinds["II"] + kinds["III"] == q * n - 3


def test_graphs_that_take_kinds_two_and_three():
    kinds = Counter()
    graphs = [gen_H(2, 5), gen_H(2, 6), gen_H(3, 6), gen_H(2, 8)]
    graphs += [random_star_clawfree(seed) for seed in range(60)]
    graphs += [relabelled_G(40, 3, seed=27), relabelled_G(12, 4, seed=5)]
    for G in graphs:
        kinds += assert_same(G)[0]
    assert kinds["II"] >= 5 and kinds["III"] >= 4


def test_other_start_cycles_filters_and_targets():
    # runs from random triangles, unfiltered, under a target filter, and
    # started from the filtered admissible targets, so no class of the
    # start cycle has had its row read
    rng = random.Random(19)
    for G in [gen_H(2, 6), relabelled_G(12, 4, seed=5), relabelled_G(9, 6, seed=3)]:
        triangles = [
            t for t in itertools.combinations(G.vertices, 3)
            if G.adjacent(t[0], t[1]) and G.adjacent(t[1], t[2]) and G.adjacent(t[0], t[2])
        ]
        for order in rng.sample(triangles, 4):
            same_run(G, order)
            keep = set(rng.sample(G.vertices, len(G.vertices) // 2))
            same_run(G, order, keep.__contains__)
            near = {w for u in order for w in G.neighbors(u)} - set(order)
            same_run(G, order, keep.__contains__, sorted(near & keep))


# ---------------------------------------------------------------------------
# the balls of stages A and C


def test_stage_balls_of_infinite_runs(monkeypatch):
    calls = []

    def replaying(G, C0, target_filter=None, targets=None):
        # the live cycle as it stands, walked from its head without
        # reading its (cached, spliced) order
        succ, head = C0._succ, C0.head
        order = [head]
        while succ[order[-1]] != head:
            order.append(succ[order[-1]])
        targets = None if targets is None else list(targets)
        same_finders(G, Cycle(tuple(order)), sorted(G.adj))
        calls.append(same_run(G, order, target_filter, targets))
        return iter_extensions(G, C0, target_filter, targets)

    monkeypatch.setattr(infinite, "iter_extensions", replaying)
    for n, depth in ((2, 24), (3, 20), (5, 10)):
        hamilton_sequence(gen_G_inf(n), depth)
    # one call per stage and iteration
    assert len(calls) == 2 * (24 + 20 + 10)
    assert sum(calls, Counter()) == {"I": 840}
