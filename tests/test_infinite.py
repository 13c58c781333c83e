"""Enlargement construction, driver traces, and the limit checker."""

import json
import random
from bisect import bisect
from collections import Counter
from types import SimpleNamespace

import pytest

import hamext.infinite as infinite
import hamext.verify as verify
from hamext.errors import InputError, InvariantViolation
from hamext.extension import apply_extension, find_extension
from hamext.families import fiber_window, gen_G_inf, gen_H_inf, zigzag
from hamext.graphcore import (
    BALL_RADIUS_MAX,
    Cycle,
    LazyGraph,
    Region,
    neighborhood_k,
    verify_cycle,
)
from hamext.infinite import (
    _Rim,
    construct_cut1,
    hamilton_sequence,
    require_twice,
    steiner_tree_T,
)
from hamext.structure import decompose
from hamext.trace import CutWitness, SequenceTrace
from hamext.verify import (
    ConditionReport,
    _cycle_lifetimes,
    _diffed_pairs,
    _persistence_failure,
    _splices,
    _witness_membership,
    stable_limit,
    verify_hc_extract,
)
from cycles import (
    edge_set,
    first_persistence_failure,
    live_following,
    remove_cycle_vertex,
    replace_arc,
)
from records import rebuilt, trace_json_obj
from test_cli import GOLDEN_DIGESTS


def gz_fiber(n, f):
    base = zigzag(f) * n
    return [base + i for i in range(n)]


def rim_of(decomp, C):
    """The rim hamilton_sequence reads off the decomposition's ball."""
    nc = neighborhood_k(decomp.ball, C.vertex_set, 1)
    return _Rim(decomp.ball, C.vertex_set, nc)


def home_cycle_gz2():
    # spans fibers -2..1: out along one row, back along the other, so
    # the two middle fibers have every neighbour on the cycle
    return Cycle((6, 2, 0, 4, 5, 1, 3, 7))


# ---------------------------------------------------------------------------
# cycle surgery


class TestReplaceArc:
    def test_forward_arc(self):
        C = Cycle((0, 1, 2, 3, 4, 5))
        D = replace_arc(C, (1, 2, 3), (1, 7, 8, 3))
        assert D.order == (1, 7, 8, 3, 4, 5, 0)

    def test_backward_arc_reverses_orientation(self):
        C = Cycle((0, 1, 2, 3, 4, 5))
        D = replace_arc(C, (3, 2, 1), (3, 9, 1))
        assert D.vertex_set == {0, 1, 3, 4, 5, 9}
        assert (3, 9) in edge_set(D) and (1, 9) in edge_set(D)
        # the rest of the cycle is intact
        assert {(3, 4), (4, 5), (0, 5), (0, 1)} <= edge_set(D)

    def test_two_vertex_arc_is_edge_replacement(self):
        C = Cycle((0, 1, 2, 3))
        D = replace_arc(C, (0, 1), (0, 9, 1))
        assert D.order == (0, 9, 1, 2, 3)

    def test_rejects_changed_endpoints(self):
        C = Cycle((0, 1, 2, 3))
        with pytest.raises(InputError):
            replace_arc(C, (0, 1), (0, 9, 2))

    def test_rejects_non_consecutive_arc(self):
        C = Cycle((0, 1, 2, 3, 4, 5))
        with pytest.raises(InputError, match="not consecutive"):
            replace_arc(C, (0, 2, 4), (0, 9, 4))

    def test_rejects_interior_collision(self):
        C = Cycle((0, 1, 2, 3, 4, 5))
        with pytest.raises(InputError, match="collides"):
            replace_arc(C, (0, 1), (0, 4, 1))

    def test_rejects_repeated_interior(self):
        C = Cycle((0, 1, 2, 3))
        with pytest.raises(InputError, match="repeats"):
            replace_arc(C, (0, 1), (0, 9, 9, 1))


class TestRemoveCycleVertex:
    def test_basic(self):
        C = Cycle((0, 1, 2, 3))
        assert remove_cycle_vertex(C, 2).order == (0, 1, 3)

    def test_refuses_triangle(self):
        with pytest.raises(InputError):
            remove_cycle_vertex(Cycle((0, 1, 2)), 1)

    def test_refuses_missing_vertex(self):
        with pytest.raises(InputError):
            remove_cycle_vertex(Cycle((0, 1, 2, 3)), 9)


# ---------------------------------------------------------------------------
# connector trees


def tree_of_part(G, decomp, j):
    """The Steiner tree of part j, with N_3 of the blocker as a run
    hands it over."""
    S = decomp.script_S
    return steiner_tree_T(
        G, decomp.parts[j], decomp.infinite_components[j], S, neighborhood_k(G, S, 3)
    )


def test_steiner_tree_covers_third_neighbourhood_gz2():
    G = gen_G_inf(2)
    C = home_cycle_gz2()
    decomp = decompose(G, C, Region(G, C.order), set())
    tree = tree_of_part(G, decomp, 0)
    assert sorted(tree.vertices) == [12, 13, 16, 17, 20, 21]
    assert len(tree.edges) == 5
    assert tree.path(12, 21) == (12, 16, 21)


def test_steiner_tree_gz3_both_sides():
    G = gen_G_inf(3)
    C = hamilton_sequence(G, 1).cycles[0]
    decomp = decompose(G, C, Region(G, C.order), set())
    assert decomp.k == 2
    for j in range(decomp.k):
        tree = tree_of_part(G, decomp, j)
        # three fibers of three vertices each, spanned without detours
        assert len(tree.vertices) == 9
        assert len(tree.edges) == 8
        assert tree.vertices <= decomp.infinite_components[j]


def test_steiner_tree_path_rejects_foreign_endpoint():
    G = gen_G_inf(2)
    C = home_cycle_gz2()
    decomp = decompose(G, C, Region(G, C.order), set())
    tree = tree_of_part(G, decomp, 0)
    with pytest.raises(InputError):
        tree.path(12, 23)


# ---------------------------------------------------------------------------
# the enlargement


class TestConstructCut1:
    def setup_method(self):
        self.G = gen_G_inf(2)
        self.C = home_cycle_gz2()
        self.decomp = decompose(self.G, self.C, Region(self.G, self.C.order), set())

    def test_result_covers_required_region(self):
        C2, _ = construct_cut1(
            self.G, self.C, self.decomp, rim_of(self.decomp, self.C)
        )
        want = set()
        for f in range(-6, 6):
            want.update(gz_fiber(2, f))
        assert C2.vertex_set == frozenset(want)
        assert len(C2) == 24

    def test_witnesses_cross_exactly_twice(self):
        C2, wits = construct_cut1(
            self.G, self.C, self.decomp, rim_of(self.decomp, self.C)
        )
        assert [w.j for w in wits] == [0, 1]
        assert wits[0].part == frozenset({8, 9})
        assert wits[0].crossing_edges == ((4, 8), (5, 9))
        assert wits[1].part == frozenset({10, 11})
        assert wits[1].crossing_edges == ((6, 11), (7, 10))
        edges = edge_set(C2)
        for w in wits:
            assert set(w.crossing_edges) <= edges
            # recompute the crossing from the membership data
            member = lambda v, w=w: (
                v not in w.excluded and (v in w.included or v in w.piece)
            )
            crossing = [e for e in C2.edges() if member(e[0]) != member(e[1])]
            assert sorted(crossing) == sorted(w.crossing_edges)

    def test_monotone_and_protected_edges_survive(self):
        C2, _ = construct_cut1(
            self.G, self.C, self.decomp, rim_of(self.decomp, self.C)
        )
        assert self.C.vertex_set <= C2.vertex_set
        # fibers -1 and 0 have every neighbour on the old cycle; their
        # cycle edges must be untouched
        assert {(0, 2), (1, 3)} <= edge_set(C2)

    def test_rejects_cycle_without_protected_vertex(self):
        C_flat = Cycle((0, 4, 1, 5))
        decomp = decompose(self.G, C_flat, Region(self.G, C_flat.order), set())
        with pytest.raises(InputError, match="second neighbourhood"):
            construct_cut1(self.G, C_flat, decomp, rim_of(decomp, C_flat))


def test_kept_cuts_read_cycle_edges_once(monkeypatch):
    # the crossing sets of the M sets are read off the cycle once per
    # enlargement, after stage B, from the cycle edges at M-set members
    # only; stages C and D keep them up to date from the edges each
    # step swaps; no stage reads the whole cycle's edge list
    from hamext import infinite

    reads = []
    runs = []
    regions = []
    edges = Cycle.edges
    require_twice = infinite.require_twice
    cut_cls = infinite._CutBuilder

    def counting_edges(self):
        reads.append(len(self))
        return edges(self)

    def counted(name, method):
        def run(self, cur):
            if name == "read":
                runs.append({})
                regions[:] = [self.parts[j] | self.pieces[j] for j in range(self.k)]
            before, size = len(reads), len(cur)
            out = method(self, cur)
            runs[-1][name] = len(reads) - before
            if name == "C":
                # the stage rewires cur in place and hands it on
                runs[-1]["absorbed"] = len(out) - size
                runs[-1]["k"] = self.k
            return out

        return run

    def recounting_require_twice(crossing, C, label, j):
        if label == "separator-plus-component cut":
            # the kept set equals a recount over the whole cycle, and
            # the M set is still the separator part plus its piece
            order = C.order
            recount = {
                tuple(sorted(e))
                for e in zip(order, order[1:] + order[:1])
                if (e[0] in regions[j]) != (e[1] in regions[j])
            }
            assert set(crossing) == recount
        return require_twice(crossing, C, label, j)

    monkeypatch.setattr(Cycle, "edges", counting_edges)
    for name, attr in (
        ("read", "read_cuts"),
        ("C", "stage_absorb_trees"),
        ("D", "stage_absorb_separator"),
    ):
        monkeypatch.setattr(cut_cls, attr, counted(name, getattr(cut_cls, attr)))
    monkeypatch.setattr(infinite, "require_twice", recounting_require_twice)
    for n in (2, 3):
        hamilton_sequence(gen_G_inf(n), 4)
    assert len(runs) == 8
    assert all(
        (run["read"], run["C"], run["D"]) == (0, 0, 0) for run in runs
    ), runs
    # a per-step recount would read the cycle k times per absorption
    assert all(run["absorbed"] >= 4 and run["k"] == 2 for run in runs)


def _rescan_stage_a(b):
    """Reference for stage A: rescan the whole cycle for the smallest
    target on every step.  Like the stage, it reads rows through the
    ball without the frontier guard: the cycle stays in K0, which misses
    the frontier, and stops only once it holds K0 (see decompose)."""
    cur = b.C
    while True:
        on = cur.vertex_set
        targets = sorted(
            v
            for u in cur.order
            for v in b.B.neighbors(u)
            if v in b.K0 and v not in on
        )
        if not targets:
            break
        e = find_extension(b.B, cur, targets[0])
        if e.kind == "II" and e.x not in b.K0:
            raise InvariantViolation(
                "separator-escaping absorption without the "
                "complete-attachment fallback",
                target=e.target,
                helper=e.x,
            )
        cur = apply_extension(cur, e)
    return cur


def _rescan_stage_c(b, cur):
    """Reference for stage C: rescan the whole cycle for targets and
    recount every cut after each absorption."""
    wanted = set().union(*(t.vertices for t in b.trees))
    while True:
        missing = wanted - cur.vertex_set
        if not missing:
            return cur
        targets = sorted(
            v for u in cur.order for v in b.guarded_neighbors(u) if v in missing
        )
        if not targets:
            raise InvariantViolation(
                "tree vertices unreachable as extension targets",
                missing=sorted(missing),
            )
        cur = apply_extension(cur, find_extension(b.B, cur, targets[0]))
        for j in range(b.k):
            region = b.parts[j] | b.pieces[j]
            crossing = [e for e in cur.edges() if (e[0] in region) != (e[1] in region)]
            require_twice(crossing, cur, "separator-plus-component cut", j)


def _outcome(stage, *args):
    try:
        return "ok", stage(*args).order
    except InvariantViolation as exc:
        return type(exc).__name__, str(exc), exc.context


@pytest.mark.parametrize("n", [2, 3])
def test_stages_a_and_c_match_rescan_loops(n):
    # same cycles, and the same error at the same step with the same
    # context, on real inputs and on builders whose pieces or frontier
    # were tampered with
    from hamext.infinite import _CutBuilder

    G = gen_G_inf(n)
    trace = hamilton_sequence(G, 3)
    # a cycle over fibers -3..3 that leaves out one vertex of each end
    # fiber (and of fiber 1 when n > 2), so stage A has vertices to fill
    drop = {gz_fiber(n, -3)[-1], gz_fiber(n, 3)[-1]}
    if n > 2:
        drop.add(gz_fiber(n, 1)[-1])
    kept = {f: [v for v in gz_fiber(n, f) if v not in drop] for f in range(-3, 4)}
    partial = Cycle(
        tuple(kept[f][0] for f in range(-3, 4))
        + tuple(v for f in range(3, -4, -1) for v in kept[f][1:])
    )
    rng = random.Random(n)
    seen = Counter()
    for C in (*trace.cycles[:3], partial):
        decomp = decompose(G, C, Region(G, C.order), set())
        rim = rim_of(decomp, C)
        for trial in range(12):
            b = _CutBuilder(G, C, decomp, rim)
            tree_vertices = sorted(set().union(*(t.vertices for t in b.trees)))
            pool = (None, sorted(C.vertex_set), sorted(b.K0 - C.vertex_set),
                    tree_vertices)[trial % 4]
            if pool:
                # one frontier vertex on the start cycle, in K0 or in a tree;
                # decompose hands out no K0 on the frontier, so stage A
                # passes the first two, and stage C's start-cycle guard
                # names the vertex
                b.B = rebuilt(b.B, frontier=b.B.frontier | {rng.choice(pool)})
            got = _outcome(_rescan_stage_a, b)
            assert _outcome(b.stage_fill_finite) == got
            if got[0] == "ok":
                cur = live_following(b, Cycle(got[1]))
                for j in range(b.k):
                    cur = b.thread_part(cur, j)
                if trial % 4 == 0 and trial:
                    # move tree vertices out of their component and its
                    # M set, so the cut boundary runs through the tree
                    moved = set(rng.sample(tree_vertices, rng.randint(1, 4)))
                    b.pieces = tuple(p - moved for p in b.pieces)
                    for m, piece in zip(b.msets, b.pieces):
                        m.piece, m.members = piece, m.members - moved
                # the reference starts from a frozen copy, as the stage
                # rewires the live cycle in place
                got = _outcome(_rescan_stage_c, b, cur.freeze())
                b.read_cuts(cur)
                assert _outcome(b.stage_absorb_trees, cur) == got
            seen[got[0] if got[0] != "InvariantViolation" else got[1]] += 1
    assert seen["ok"] and seen["FrontierContamination"] >= 12
    assert any("crossed" in key for key in seen)


def test_construct_cut1_gz3():
    G = gen_G_inf(3)
    trace = hamilton_sequence(G, 1)
    C = trace.cycles[0]
    decomp = decompose(G, C, Region(G, C.order), set())
    C2, wits = construct_cut1(G, C, decomp, rim_of(decomp, C))
    want = set()
    for f in range(-5, 6):
        want.update(gz_fiber(3, f))
    assert C2.vertex_set == frozenset(want)
    assert C2.order == trace.cycles[1].order
    for w in wits:
        assert len(w.crossing_edges) == 2


@pytest.mark.parametrize("n, depth", [(2, 12), (3, 8), (5, 4)])
def test_stage_e_reads_what_decompose_and_stage_d_fix(monkeypatch, n, depth):
    # stage E checks neither: decompose's ball keeps S and N_3(S) within
    # 4 of C and off its frontier, and stage D adds to an M set only
    # vertices of S and their neighbours
    G = gen_G_inf(n)
    blockers = []

    def checked(G, C, region, *rest):
        decomp = decompose(G, C, region, *rest)
        S = decomp.script_S
        near = S | neighborhood_k(G, S, 3)
        assert near <= set().union(*region.layers[:5])
        assert near.isdisjoint(decomp.ball.frontier)
        blockers.append(S)
        return decomp

    monkeypatch.setattr(infinite, "decompose", checked)
    trace = hamilton_sequence(G, depth)
    assert list(trace.blockers) == blockers
    for S, wits in zip(trace.blockers, trace.witnesses):
        around = S | neighborhood_k(G, S, 1)
        for w in wits:
            assert w.included <= w.part | around


# ---------------------------------------------------------------------------
# the driver


class TestHamiltonSequence:
    def test_frozen_gz2_depth_2(self):
        trace = hamilton_sequence(gen_G_inf(2), 2)
        assert [len(c) for c in trace.cycles] == [8, 24, 40]
        assert [sorted(b) for b in trace.blockers] == [
            [8, 9, 10, 11],
            [24, 25, 26, 27],
        ]
        assert trace.ks == (2, 2)
        assert trace.end_selectors == {"left": (1, 1), "right": (0, 0)}

    def test_frozen_gz3_depth_2(self):
        trace = hamilton_sequence(gen_G_inf(3), 2)
        assert [len(c) for c in trace.cycles] == [9, 33, 57]
        assert trace.ks == (2, 2)

    def test_cycles_nest_and_cover_blockers(self):
        trace = hamilton_sequence(gen_G_inf(2), 3)
        for i in range(trace.depth):
            assert trace.cycles[i].vertex_set <= trace.cycles[i + 1].vertex_set
            assert trace.blockers[i] <= trace.cycles[i + 1].vertex_set
            assert trace.k0s[i] <= trace.cycles[i + 1].vertex_set

    def test_depth_validation(self):
        with pytest.raises(InputError):
            hamilton_sequence(gen_G_inf(2), 0)

    def test_refuses_finite_oracle(self):
        tri = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
        G = LazyGraph(
            neighbor_oracle=lambda v: tri[v],
            escape_oracle=lambda blocked, v: False,
            root=0,
        )
        with pytest.raises(InputError, match="not infinite"):
            hamilton_sequence(G, 1)

    def test_refuses_clawed_family(self):
        with pytest.raises(InputError, match="claw"):
            hamilton_sequence(gen_H_inf(6), 1)

    def test_deterministic_serialization(self):
        t1 = hamilton_sequence(gen_G_inf(2), 3)
        t2 = hamilton_sequence(gen_G_inf(2), 3)
        assert t1.to_json() == t2.to_json()


# ---------------------------------------------------------------------------
# trace serialization


def test_trace_round_trip():
    trace = hamilton_sequence(gen_G_inf(2), 2)
    again = SequenceTrace.from_json(trace.to_json())
    assert again.to_json() == trace.to_json()
    assert again.descriptor == trace.descriptor
    assert again.cycles == trace.cycles
    assert again.witnesses == trace.witnesses


@pytest.mark.parametrize("n, depth", [(2, 32), (3, 28)])
def test_trace_text_equals_indented_json_dumps(n, depth):
    # the witnesses are written from their records, one format each; a
    # witness of empty sets, an empty witness list, no witnesses at all
    # and a witness of bools and floats are written as json writes them,
    # and so are extra fields, wherever they sort among the trace's own
    trace = hamilton_sequence(gen_G_inf(n), depth)
    empty = CutWitness(0, frozenset(), frozenset(), frozenset(), frozenset(), ())
    odd = CutWitness(
        True, frozenset({1.5}), frozenset({True}), frozenset(), frozenset(), ((1, 2), [3])
    )
    for t in (
        trace,
        rebuilt(trace, witnesses=((empty,),) * depth),
        rebuilt(trace, witnesses=((),) * depth),
        rebuilt(trace, witnesses=()),
        rebuilt(trace, witnesses=((odd, trace.witnesses[0][0]),)),
    ):
        assert t.to_json() == json.dumps(trace_json_obj(t), sort_keys=True, indent=1)
    extra = {
        "stable_edges": [[0, 1], [1, 2]],
        "window_half_width": 5,
        "a": {"b": [True, 1.5, None]},
        "zz": [],
    }
    assert trace.to_json(**extra) == json.dumps(
        trace_json_obj(trace, **extra), sort_keys=True, indent=1
    )


def test_trace_rejects_malformed_json():
    with pytest.raises(InputError):
        SequenceTrace.from_json("{not json")
    with pytest.raises(InputError, match="not valid JSON"):
        SequenceTrace.from_json("[" * 200_000)
    with pytest.raises(InputError):
        SequenceTrace.from_json("[1, 2]")
    with pytest.raises(InputError):
        SequenceTrace.from_json(json.dumps({"descriptor": None}))


def test_trace_rejects_inconsistent_lengths():
    trace = hamilton_sequence(gen_G_inf(2), 2)
    obj = json.loads(trace.to_json())
    obj["cycles"] = obj["cycles"][:-1]
    with pytest.raises(InputError, match="depth"):
        SequenceTrace.from_json_obj(obj)


# ---------------------------------------------------------------------------
# the limit checker


@pytest.fixture(scope="module")
def gz2_trace():
    return hamilton_sequence(gen_G_inf(2), 4)


def test_verify_all_conditions_hold(gz2_trace):
    verdict = verify_hc_extract(gz2_trace)
    assert verdict.all_ok
    assert verdict.vertex_persistence.ok
    assert verdict.finite_cuts.ok
    assert verdict.nested_msets.ok
    assert verdict.edge_persistence.ok
    assert verdict.cut_agreement.ok


def test_verify_runs_from_stored_form(gz2_trace):
    stored = gz2_trace.to_json()
    verdict = verify_hc_extract(SequenceTrace.from_json(stored))
    assert verdict.all_ok


def test_verify_catches_corrupted_mset(gz2_trace):
    w = gz2_trace.witnesses[1][0]
    victim = sorted(w.piece)[len(w.piece) // 2]
    bad_w = rebuilt(w, excluded=w.excluded | {victim})
    wits = [list(per) for per in gz2_trace.witnesses]
    wits[1][0] = bad_w
    bad = rebuilt(gz2_trace, witnesses=tuple(tuple(p) for p in wits))
    verdict = verify_hc_extract(bad)
    assert not verdict.all_ok
    assert not verdict.cut_agreement.ok
    assert "triple" in verdict.cut_agreement.detail


def test_verify_catches_tampered_cycle(gz2_trace):
    order = list(gz2_trace.cycles[1].order)
    order[0], order[2] = order[2], order[0]
    cycles = list(gz2_trace.cycles)
    cycles[1] = Cycle(tuple(order))
    bad = rebuilt(gz2_trace, cycles=tuple(cycles))
    with pytest.raises(InputError, match="cycle 1 invalid"):
        verify_hc_extract(bad)


def first_cycle_failure(G, trace):
    """What a whole-cycle scan of every trace cycle, in order, reports
    first: the InputError text verify_hc_extract must raise."""
    for idx, C in enumerate(trace.cycles):
        try:
            report = verify_cycle(G, C)
        except InputError as exc:
            return str(exc)
        if not report.ok:
            return f"trace cycle {idx} invalid: {report.reason}"
    return None


def with_cycle(trace, idx, order):
    cycles = list(trace.cycles)
    cycles[idx] = Cycle(tuple(order))
    return rebuilt(trace, cycles=tuple(cycles))


@pytest.mark.parametrize("idx", [0, 2, 4])
@pytest.mark.parametrize("plant", ["swap", "far", "invalid"])
def test_verify_cycle_pairs_fail_as_a_whole_scan(gz2_trace, idx, plant):
    order = list(gz2_trace.cycles[idx].order)
    far = 10**6  # a GZ2 vertex far down one ray, adjacent to nothing here
    head = f"trace cycle {idx} invalid: consecutive cycle vertices"
    if plant == "swap":
        order[1], order[3] = order[3], order[1]
    elif plant == "far":
        order[-1] = far
    else:
        # no negative id is a vertex: asking for the neighbours of one
        # raises, so the one pair that only ends in -1 must be judged
        # first, as a scan would
        order[2:7] = range(-1, -6, -1)
        head = f"{head} {order[1]}, -1 not adjacent"
    bad = with_cycle(gz2_trace, idx, order)
    want = first_cycle_failure(gen_G_inf(2), bad)
    assert want.startswith(head)
    with pytest.raises(InputError) as err:
        verify_hc_extract(bad)
    assert str(err.value) == want


def test_verify_cycle_pairs_are_oriented(gz2_trace):
    # an oracle listing u -> v but not v -> u: cycle 0 walks u, v and
    # passes, a later cycle walks the same edge as v, u and must fail
    base = gen_G_inf(2)
    k = len(gz2_trace.cycles) - 1
    walked = [set(zip(C.order, C.order[1:] + C.order[:1])) for C in gz2_trace.cycles]
    u, v = next(
        (u, v) for u, v in sorted(walked[0])
        if (u, v) in walked[k] and not any((v, u) in w for w in walked[:k])
    )
    G = LazyGraph(
        lambda w: tuple(x for x in base.neighbors(w) if (w, x) != (v, u)),
        base.escapes,
        base.root,
        base.end_rays,
    )
    bad = with_cycle(gz2_trace, k, reversed(gz2_trace.cycles[k].order))
    want = f"trace cycle {k} invalid: consecutive cycle vertices {v}, {u} not adjacent"
    assert first_cycle_failure(G, bad) == want
    with pytest.raises(InputError) as err:
        verify_hc_extract(bad, G)
    assert str(err.value) == want
    # the trace as built walks u, v throughout and verifies
    assert verify_hc_extract(gz2_trace, G).all_ok


def test_verify_catches_dropped_vertices(gz2_trace):
    # make a later cycle forget an early vertex: rebuild cycle 3 without
    # one vertex of cycle 0 by shortcutting it out of the order
    dropped = gz2_trace.cycles[0].order[1]
    order = tuple(v for v in gz2_trace.cycles[3].order if v != dropped)
    cycles = list(gz2_trace.cycles)
    cycles[3] = Cycle(order)
    bad = rebuilt(gz2_trace, cycles=tuple(cycles))
    try:
        verdict = verify_hc_extract(bad)
    except InputError:
        return  # rebuilt order may break adjacency, also a detection
    assert not verdict.vertex_persistence.ok


def test_verify_requires_iterations():
    trace = hamilton_sequence(gen_G_inf(2), 1)
    empty = rebuilt(
        trace,
        cycles=trace.cycles[:1],
        blockers=(),
        ks=(),
        k0s=(),
        witnesses=(),
        end_selectors={},
    )
    with pytest.raises(InputError):
        verify_hc_extract(empty)


def test_verify_requires_every_end_of_the_graph():
    # each of these verified all_ok while the nesting check read only the
    # ends the trace named
    trace = hamilton_sequence(gen_G_inf(2), 6)
    left = trace.end_selectors["left"]
    for selectors, names in (
        ({}, "[]"),
        ({"left": left}, "['left']"),
        ({**trace.end_selectors, "up": left}, "['left', 'right', 'up']"),
    ):
        with pytest.raises(InputError) as refused:
            verify_hc_extract(rebuilt(trace, end_selectors=selectors))
        assert str(refused.value) == (
            f"trace tracks ends {names}, the graph has ends ['left', 'right']"
        )


def test_verify_tracks_no_end_of_a_graph_without_ends(gz2_trace):
    G = gen_G_inf(2)
    endless = LazyGraph(G.neighbors, G.escapes, G.root)
    verdict = verify_hc_extract(rebuilt(gz2_trace, end_selectors={}), endless)
    assert verdict.all_ok
    assert verdict.nested_msets.detail == "no tracked ends in trace"
    # the graph's ends are what the trace must track, not the descriptor's
    with pytest.raises(InputError, match="the graph has ends \\[\\]$"):
        verify_hc_extract(gz2_trace, endless)


def test_witness_membership_search_is_capped(gz2_trace):
    # the first witnesses' sets reach a few fibers from fiber 0, so fiber
    # -20 is answered within the cap and fiber -(cap + 20) is not
    G = gen_G_inf(2)
    left = gz2_trace.end_selectors["left"][0]
    right = gz2_trace.end_selectors["right"][0]
    far_left = gz_fiber(2, -20)[0]
    beyond = gz_fiber(2, -BALL_RADIUS_MAX - 20)[0]
    _, in_left, _ = _witness_membership(G, gz2_trace, 0, left)
    _, in_right, _ = _witness_membership(G, gz2_trace, 0, right)
    with pytest.raises(InputError, match=f"search cap {BALL_RADIUS_MAX}"):
        in_left(beyond)
    assert in_left(far_left)
    assert not in_right(far_left)


def pairwise_persistence_failure(edge_sets):
    """Reference: test every pair i < j of cycles directly."""
    for j in range(1, len(edge_sets) - 1):
        for i in range(j):
            shared = edge_sets[i] & edge_sets[j]
            if not shared <= edge_sets[j + 1]:
                return i, j, sorted(shared - edge_sets[j + 1])
    return None


def lifetimes_of(edge_sets):
    """Each edge's lifetime read off whole edge sets: the indices k at
    which the edge is in one of E_{k-1} and E_k and not the other."""
    life = {}
    for k, E in enumerate(edge_sets):
        for e in E ^ (edge_sets[k - 1] if k else frozenset()):
            life.setdefault(e, []).append(k)
    return life


def alive_at(life, k):
    """The edges a lifetime table puts on cycle k."""
    return {e for e, times in life.items() if bisect(times, k) & 1}


def random_edge_sets(rng):
    # each next set keeps what persistence demands, plus random edges;
    # sometimes one demanded edge is dropped to break persistence
    universe = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    sets = [frozenset(rng.sample(universe, rng.randint(0, 8)))]
    earlier = set()
    for _ in range(rng.randint(1, 7)):
        keep = earlier & sets[-1]
        nxt = keep | set(rng.sample(universe, rng.randint(0, 8)))
        if keep and rng.random() < 0.15:
            nxt.discard(rng.choice(sorted(keep)))
        earlier |= sets[-1]
        sets.append(frozenset(nxt))
    return sets


def test_persistence_from_lifetimes_matches_pairwise_loop():
    outcomes = Counter()
    for seed in range(400):
        sets = random_edge_sets(random.Random(seed))
        life = lifetimes_of(sets)
        assert [alive_at(life, k) for k in range(len(sets))] == sets, seed
        want = pairwise_persistence_failure(sets)
        assert first_persistence_failure(sets) == want, seed
        assert _persistence_failure(life) == want, seed
        outcomes[want is None] += 1
    # both persistent and broken sequences were exercised
    assert outcomes[True] > 50 and outcomes[False] > 50


def random_cycle_sequence(rng):
    """A few cycles on ids 0..7, each a random edit of the one before:
    rotated, reversed, two neighbours swapped, a segment reversed, a
    vertex added or dropped, or kept as it is."""
    order = rng.sample(range(8), rng.randint(3, 6))
    cycles = [order]
    for _ in range(rng.randint(1, 5)):
        order = list(order)
        op = rng.randrange(7)
        i, j = sorted(rng.sample(range(len(order)), 2))
        if op == 0:
            order = order[i:] + order[:i]
        elif op == 1:
            order.reverse()
        elif op == 2:
            order[i], order[i + 1] = order[i + 1], order[i]
        elif op == 3:
            order[i : j + 1] = reversed(order[i : j + 1])
        elif op == 4 and len(order) < 8:
            order.insert(i, rng.choice(sorted(set(range(8)) - set(order))))
        elif op == 5 and len(order) > 3:
            del order[i]
        cycles.append(order)
    return [Cycle(tuple(c)) for c in cycles]


def spliced_cycle_sequence(rng):
    """A few cycles on ids 0..39, each the one before with runs of new
    vertices spliced in, or kept as it is, or one of the near misses of
    a splice: a run that takes a vertex of the cycle before along, a
    vertex moved or dropped, a new first vertex, an arc reversed past
    the first vertex, or the cycle before cut short and closed through
    new vertices.  Most edits splice runs as well, so the new cycle is
    longer than the one before."""
    order = rng.sample(range(40), rng.randint(3, 5))
    cycles = [order]
    for _ in range(rng.randint(1, 5)):
        order = list(order)
        fresh = [v for v in range(40) if v not in order]
        rng.shuffle(fresh)
        op = rng.choice(
            ["keep", "splice", "splice", "take", "move", "drop", "head", "reverse", "cut"]
        )
        if op == "cut":
            order = order[: rng.randint(1, len(order) - 1)] + fresh[:3]
            fresh = fresh[3:]
        elif op in ("take", "move", "drop"):
            # a vertex other than the first leaves its place
            v = order.pop(rng.randrange(1, len(order)))
            if op == "take":
                order.insert(rng.randint(1, len(order)), [fresh.pop(), v, fresh.pop()])
            elif op == "move":
                order.insert(rng.randint(1, len(order)), v)
        elif op == "reverse":
            i, j = sorted(rng.sample(range(1, len(order)), 2))
            order[i : j + 1] = reversed(order[i : j + 1])
        elif op == "head":
            order.insert(0, [fresh.pop()])
        if op != "keep" and len(fresh) >= 9:
            # runs between neighbours of the cycle before, the last one
            # possibly between its last vertex and its first
            gaps = rng.sample(range(1, len(order) + 1), rng.randint(1, min(3, len(order))))
            for gap in sorted(gaps, reverse=True):
                order.insert(gap, [fresh.pop() for _ in range(rng.randint(1, 3))])
        order = [w for v in order for w in (v if isinstance(v, list) else [v])]
        if len(order) < 3:
            order += fresh[:3 - len(order)]
        cycles.append(order)
    return [Cycle(tuple(c)) for c in cycles]


def is_splice(P, Q):
    """Whether Q is P with runs of vertices off P inserted: Q starts
    where P does and holds P's vertices in P's order."""
    on_P = set(P)
    return Q[0] == P[0] and [v for v in Q if v in on_P] == list(P)


def check_lifetimes(cycles, adj, outcomes):
    """Compare _cycle_lifetimes on ``cycles`` and a lazy graph on the
    neighbour lists ``adj`` with whole-cycle scans, and count the
    outcome: the refusal, a persistent or a broken sequence."""

    def graph(asked):
        return LazyGraph(lambda v: asked.append(v) or adj[v], lambda F, v: True, 0)

    scanned, passed = [], []
    want = first_cycle_failure(graph(scanned), SimpleNamespace(cycles=cycles))
    try:
        life, dropped = _cycle_lifetimes(cycles, graph(passed))
        got = None
    except InputError as exc:
        got = str(exc)
    assert got == want
    # the oracle is asked the same vertices in the same order
    assert passed == scanned
    if want is not None:
        outcomes["refused"] += 1
        return
    assert (life, dropped) == _cycle_lifetimes(cycles)
    sets = [edge_set(C) for C in cycles]
    assert life == lifetimes_of(sets)
    assert [alive_at(life, k) for k in range(len(cycles))] == sets
    # the first step that drops a vertex, as whole vertex sets show it
    assert dropped == next(
        (
            i
            for i, (a, b) in enumerate(zip(cycles, cycles[1:]))
            if not a.vertex_set <= b.vertex_set
        ),
        None,
    )
    failure = first_persistence_failure(sets)
    assert _persistence_failure(life) == failure
    outcomes["persistent" if failure is None else "broken"] += 1


def test_cycle_lifetimes_match_whole_cycle_scans():
    outcomes = Counter()
    for seed in range(600):
        rng = random.Random(seed)
        cycles = random_cycle_sequence(rng)
        # a dense random graph on 0..7 whose neighbour lists drop some
        # directions of edges, so a pair may pass one way and fail the other
        adj = {
            v: tuple(w for w in range(8) if w != v and rng.random() < 0.9)
            for v in range(8)
        }
        check_lifetimes(cycles, adj, outcomes)
    assert min(outcomes.values()) > 30, outcomes
    # splice-shaped steps and their near misses, on a graph dense enough
    # that most sequences pass
    outcomes, steps = Counter(), Counter()
    for seed in range(600):
        rng = random.Random(seed)
        cycles = spliced_cycle_sequence(rng)
        adj = {
            v: tuple(w for w in range(40) if w != v and rng.random() < 0.99)
            for v in range(40)
        }
        for a, b in zip(cycles, cycles[1:]):
            P, Q = a.order, b.order
            read = _splices(P, Q, a.vertex_set)
            new, old, drops = _diffed_pairs(P, Q)
            assert (read is not None) == is_splice(P, Q), (seed, P, Q)
            if read is not None:
                # the same pairs in the same order as the successor maps
                # give, and no vertex drops
                assert read == (new, old) and not drops, seed
            steps[read is not None, len(Q) > len(P)] += 1
        check_lifetimes(cycles, adj, outcomes)
    assert min(outcomes.values()) > 30, outcomes
    # splices, identical cycles, and longer cycles read as no splice
    assert min(steps[True, True], steps[True, False], steps[False, True]) > 100, steps


# the infinite-deep benchmark's shapes and those of the golden traces
SPLICED_RUNS = sorted({(2, 24), (2, 32), (3, 28), *GOLDEN_DIGESTS})


@pytest.mark.parametrize("n, depth", SPLICED_RUNS)
def test_run_steps_are_read_as_splices(n, depth):
    """Each step of these runs splices runs of new vertices into the
    cycle before, so the verifier reads every one of them as splices
    and none from successor maps."""
    cycles = hamilton_sequence(gen_G_inf(n), depth).cycles
    for k, (a, b) in enumerate(zip(cycles, cycles[1:])):
        assert _splices(a.order, b.order, a.vertex_set) is not None, k


def whole_set_cut_agreement(trace, edge_sets, cuts):
    """Cut agreement read off every later cycle's whole edge set."""
    checked = 0
    for (p, j), (*_, cut) in cuts.items():
        base = edge_sets[p + 1] & cut
        if len(base) != 2 or base != set(trace.witnesses[p][j].crossing_edges):
            return ConditionReport(
                False,
                f"triple (i={p + 1}, p={p + 1}, j={j}): constructing "
                f"cycle crosses its own cut in {sorted(base)}",
            )
        for i in range(p + 1, trace.depth):
            checked += 1
            later = edge_sets[i + 1] & cut
            if later != base:
                return ConditionReport(
                    False,
                    f"triple (i={i + 1}, p={p + 1}, j={j}): crossing "
                    f"edges changed to {sorted(later)}",
                )
    return ConditionReport(True, f"{checked} later-cycle agreements plus base cuts")


def edited_cycles(trace, rng):
    """The trace's cycles with up to three of them edited: rotated,
    reversed, two neighbours swapped, a segment reversed, a vertex
    dropped, or replaced by the cycle two steps back, so that edges
    leave and come back."""
    cycles = list(trace.cycles)
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(cycles))
        order = list(cycles[k].order)
        i, j = sorted(rng.sample(range(len(order)), 2))
        op = rng.randrange(6)
        if op == 0:
            order = order[i:] + order[:i]
        elif op == 1:
            order.reverse()
        elif op == 2:
            order[i], order[i + 1] = order[i + 1], order[i]
        elif op == 3:
            order[i : j + 1] = reversed(order[i : j + 1])
        elif op == 4:
            del order[i]
        elif k >= 2:
            order = cycles[k - 2].order
        cycles[k] = Cycle(tuple(order))
    return tuple(cycles)


def opened(C, edge):
    """C with the vertex after ``edge`` and the one after it swapped, so
    that ``edge`` leaves the cycle."""
    v = edge[1] if C.succ(edge[0]) == edge[1] else edge[0]
    i = C.order.index(v)
    rot = C.order[i:] + C.order[:i]
    return Cycle((rot[1], rot[0]) + rot[2:])


@pytest.mark.parametrize("n, depth", [(2, 8), (3, 6)])
def test_lifetime_checks_match_whole_edge_sets(n, depth):
    G = gen_G_inf(n)
    trace = hamilton_sequence(G, depth)
    window = fiber_window(G.descriptor, 4)
    cuts = {}
    for i, per_i in enumerate(trace.witnesses):
        for j, w in enumerate(per_i):
            member, _, _ = _witness_membership(G, trace, i, j)
            cuts[(i, j)] = (verify._explicit_cut(G, w, member),)
    sequences = [edited_cycles(trace, random.Random(seed)) for seed in range(60)]
    # one crossing edge of the first cut leaves at cycle 2, the other at
    # cycle 3, so the first change is not the last
    a, b = sorted(trace.witnesses[0][0].crossing_edges)
    staggered = list(trace.cycles)
    staggered[2], staggered[3] = opened(staggered[2], a), opened(staggered[3], b)
    sequences.append(tuple(staggered))
    outcomes = Counter()
    for seed, cycles in enumerate(sequences):
        edited = rebuilt(trace, cycles=cycles)
        life, _ = _cycle_lifetimes(cycles)
        sets = [edge_set(C) for C in edited.cycles]
        assert [alive_at(life, k) for k in range(len(sets))] == sets, seed
        failure = first_persistence_failure(sets)
        assert _persistence_failure(life) == failure, seed
        agreement = verify._cut_agreement(edited, life, cuts)
        assert agreement == whole_set_cut_agreement(edited, sets, cuts), seed
        if failure is None:
            assert stable_limit(edited, window) == union_stable_limit(edited, window)
        else:
            with pytest.raises(InvariantViolation) as info:
                stable_limit(edited, window)
            assert info.value.context["cycles"] == failure[:2]
        outcomes[failure is None, agreement.ok] += 1
    # persistent and broken sequences, with cut agreement kept and lost
    assert len(outcomes) >= 3 and outcomes[True, True] >= 5, outcomes
    assert agreement.detail.startswith("triple (i=2, p=1, j=0): crossing")


# ---------------------------------------------------------------------------
# the limit object


def test_stable_limit_degrees(gz2_trace):
    window = set()
    for f in range(-8, 9):
        window.update(gz_fiber(2, f))
    stable = stable_limit(gz2_trace, window)
    assert len(stable) == 32
    deg = Counter()
    for a, b in stable:
        deg[a] += 1
        deg[b] += 1
    for f in range(-5, 6):
        for v in gz_fiber(2, f):
            assert deg[v] == 2, f"vertex {v} in fiber {f} has degree {deg[v]}"


def test_stable_limit_rechecks_edge_persistence(gz2_trace):
    cycles = list(gz2_trace.cycles)
    # break persistence: give the last cycle a rotated copy of an early
    # cycle, erasing edges shared by the two before it
    cycles[-1] = Cycle(tuple(reversed(cycles[0].order)))
    bad = rebuilt(gz2_trace, cycles=tuple(cycles))
    with pytest.raises(InvariantViolation):
        stable_limit(bad, range(0, 50))


def test_stable_limit_empty_window(gz2_trace):
    assert stable_limit(gz2_trace, ()) == frozenset()


def union_stable_limit(trace, window):
    """stable_limit's edges on two cycles, from unions of whole edge
    sets, as it ran before."""
    seen_twice, seen_once = set(), set()
    for es in map(edge_set, trace.cycles):
        seen_twice |= seen_once & es
        seen_once |= es
    return frozenset(e for e in seen_twice if set(e) <= set(window))


@pytest.mark.parametrize("n, depth", [(2, 32), (3, 28)])
def test_stable_limit_from_lifetimes_equals_union_form(n, depth):
    G = gen_G_inf(n)
    trace = hamilton_sequence(G, depth)
    for half_width in range(3, 7):
        window = fiber_window(G.descriptor, half_width)
        stable = stable_limit(trace, window)
        assert stable == union_stable_limit(trace, window) and stable
    # edges that leave and come back, on random sequences whose edges
    # persist once shared
    rng = random.Random(5)
    for _ in range(200):
        cycles = random_cycle_sequence(rng)
        fake = SimpleNamespace(cycles=cycles)
        try:
            got = stable_limit(fake, range(-50, 50))
        except InvariantViolation:
            continue
        assert got == union_stable_limit(fake, range(-50, 50))
