"""The construction's cold branches against the frozen-cycle code they
replaced.

Stage B threads through a helper vertex (``thread_through_helper``:
the helper in the same part, or in an earlier part whose path ends at
the displaced successor; with the helper in a foreign part no rewiring
finishes, and one InvariantViolation says so) and stage D absorbs a
separator vertex whose cycle neighbours are never consecutive
(``absorb_isolated_separator_vertex``: a fresh helper, or a helper
moved off the cycle).  The references below are those branches as they
were: each froze the live cycle, rebuilt Cycles with the frozen
rewiring and cycle surgery of ``tests/cycles.py``, and reset the live
cycle to the result by a whole-cycle edge diff.

Every test runs the current stages and the references from equal
copies of one live cycle and requires, after each part of stage B and
after stages C and D, the same cycle order and predecessors, the same
``kept`` flag, the same gained edges and lost keys, the same ``step``
as sets, M sets, paths and kept cuts, and then the same witnesses, or
the same exception with the same message and ``context``.  The inputs:

- stage B on GZ2-GZ4 cycles after stage A, with the edges from the
  first vertex s1 of a random part to the cycle cut down to a random
  non-empty subset: this reaches the helper in s1's own part, and kind
  III steps in ``thread_part``;
- stage D on the windows of ``test_run_state``'s stage D trials, which
  reach the moved helper;
- small balls built by hand (``HAND_BUILT``) for what no family
  reaches: the helper in an earlier part, once with a new path back
  through the old path's interior, the fresh helper, and the exits of
  each.  Where the helper lies in a foreign part, the reference refused
  by an adjacency check that always fails there, and the current code
  by its one message; the states before it are the same.

The exits the reference had for states no decomposition leaves are
gone.  The balls built for them (``REFUSED``) now show what rules
their state out: decompose's guarantees (K0, the parts and the pieces
pairwise disjoint, no separator vertex next to two pieces), the facts
each part of stage B leaves (``thread_part`` argues them, and
``test_iterations.threading_faults`` checks them), or, in stage D, a
cycle neighbourhood of u with two consecutive vertices, which stage D
takes u in beside by kind I.
"""

import copy
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from cycles import remove_cycle_vertex, replace_arc, reset, rewire
from hamext.errors import HamextError, InputError, InvariantViolation
from hamext.extension import Extension, LiveCycle, find_extension
from hamext.families import gen_G_inf
from hamext.graphcore import Cycle, FiniteGraph, LazyGraph, Region, neighborhood_k
from hamext.infinite import (
    _CutBuilder,
    _Rim,
    _RunCycle,
    construct_cut1,
    hamilton_sequence,
)
from hamext.structure import SeparatorDecomposition, decompose
from test_infinite import rim_of
from test_iterations import threading_faults
from test_run_state import _without_edges


# ---------------------------------------------------------------------------
# the replaced code


def reference_thread_part(b, cur, j):
    s1 = min(b.parts[j])
    e = find_extension(b.B, cur, s1)
    if e.kind in ("I", "III"):
        cur.apply(e)
        e, b.paths[j] = b.forced_two_step(cur, s1, j)
        cur.apply(e)
    else:
        reset(cur, reference_thread_through_helper(b, cur.freeze(), j, s1, e))
    return cur


def reference_thread_through_helper(b, cur, j, s1, e):
    y = e.u
    z = cur.succ(y)
    x = e.x
    D = rewire(cur, e)
    ell = b.part_index(x)
    if ell is None:
        raise InvariantViolation(
            f"helper vertex {x} is not a separator vertex",
            target=s1,
            j=j,
        )

    if ell == j:
        a = min(w for w in b.B.neighbors(s1) if w in b.pieces[j])
        bb = min(w for w in b.B.neighbors(x) if w in b.pieces[j])
        through = b.trees[j].path(a, bb)
        new_arc = (s1, *through, x)
        cur = replace_arc(D, (s1, x), new_arc)
        b.paths[j] = new_arc
        return cur

    if z in b.parts[ell]:
        if ell >= j:
            raise InvariantViolation(
                "helper part was not processed yet", ell=ell, j=j
            )
        old_path = b.paths[ell]
        if old_path is None or len(old_path) < 3:
            raise InvariantViolation(
                "stored path through the component is degenerate",
                ell=ell,
            )
        if z not in (old_path[0], old_path[-1]):
            raise InvariantViolation(
                f"{z} is not an endpoint of the stored path", ell=ell
            )
        oriented = old_path if old_path[-1] == z else tuple(reversed(old_path))
        s_other = oriented[0]
        a2 = min(w for w in b.B.neighbors(s_other) if w in b.pieces[ell])
        b2 = min(w for w in b.B.neighbors(x) if w in b.pieces[ell])
        through = b.trees[ell].path(a2, b2)
        new_arc = (s_other, *through, x)
        D2 = replace_arc(D, oriented + (x,), new_arc)
        b.paths[ell] = new_arc
        e2, b.paths[j] = b.forced_two_step(D2, s1, j)
        return rewire(D2, e2)

    if z not in b.pieces[ell]:
        if not b.B.adjacent(s1, z):
            raise InvariantViolation(
                "complete attachment missing between target and successor",
                s1=s1,
                z=z,
            )
        D3 = rewire(cur, Extension("I", s1, y))
    else:
        if y not in b.parts[ell]:
            raise InvariantViolation(
                f"cycle vertex {y} next to the component is not in its "
                "separator",
                ell=ell,
            )
        w = cur.pred(y)
        if w in b.pieces[ell] or w in b.parts[ell]:
            raise InvariantViolation(
                "both cycle neighbours lean into the same component",
                w=w,
                ell=ell,
            )
        if not b.B.adjacent(s1, w):
            raise InvariantViolation(
                "complete attachment missing between target and "
                "predecessor",
                s1=s1,
                w=w,
            )
        D3 = rewire(cur, Extension("I", s1, w))
    e3, b.paths[j] = b.forced_two_step(D3, s1, j)
    return rewire(D3, e3)


def reference_stage_absorb_separator(b, cur):
    b.require_cuts(cur, "initial M cut")
    rounds = 0
    while True:
        leftovers = [s for s in sorted(b.script_S) if s not in cur]
        if not leftovers:
            return cur
        rounds += 1
        if rounds > len(b.script_S) + 1:
            raise InvariantViolation(
                "separator absorption failed to terminate",
                leftovers=leftovers,
            )
        u = leftovers[0]
        nbrs_on = {w for w in b.B.neighbors(u) if w in cur}
        pair = b.consecutive_pair(cur, nbrs_on)
        if pair is not None:
            w1, w2 = pair
            cur.apply(Extension("I", u, w1))
            gained = (u,)
            b.update_msets(w1, w2, gained)
        else:
            D, gained = reference_absorb_isolated_separator_vertex(
                b, cur.freeze(), u, nbrs_on
            )
            reset(cur, D)
        b.recount_cuts(cur, gained)
        b.require_cuts(cur, "M cut")


def reference_absorb_isolated_separator_vertex(b, cur, u, nbrs_on):
    if not nbrs_on:
        raise InvariantViolation(
            f"separator vertex {u} has no neighbour on the cycle"
        )
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
    if h not in cur:
        if h not in b.script_S:
            raise InvariantViolation(
                f"fresh helper {h} is not a separator vertex", u=u
            )
        cur = rewire(cur, Extension("II", u, w1, x=h))
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
    return cur, (u, h)


# ---------------------------------------------------------------------------
# running both


def clone(live):
    """A copy of a live cycle that shares nothing it may change."""
    twin = _RunCycle.__new__(_RunCycle)
    for name in LiveCycle.__slots__ + _RunCycle.__slots__:
        if hasattr(live, name):
            setattr(twin, name, copy.copy(getattr(live, name)))
    return twin


def state(b, cur):
    """What the stages hand on: the live cycle with its ledger and last
    step, the M sets, the paths and the kept cuts."""
    order = cur.order
    removed, added = cur.step
    return (
        order,
        cur._pred == dict(zip(order, order[-1:] + order[:-1])),
        cur.kept,
        set(cur.gained),
        set(cur.lost),
        set(removed),
        set(added),
        [(m.members, set(m.included), set(m.excluded)) for m in b.msets],
        list(b.paths),
        [set(c) for c in getattr(b, "cuts", ())],
    )


def run_stages(b, cur, reference, check=True, first=0):
    """Stages B (from part ``first``) to E on the live cycle ``cur``,
    with the states after each part of stage B and after stages C and
    D, then the witnesses or the exception raised: the package's own,
    or a ValueError from min() over a vertex with no neighbour in its
    piece.  With ``check``, each part of stage B must leave none of
    threading_faults' faults."""
    thread = reference_thread_part if reference else _CutBuilder.thread_part
    absorb = (
        reference_stage_absorb_separator
        if reference
        else _CutBuilder.stage_absorb_separator
    )
    states = []
    try:
        for j in range(first, b.k):
            cur = thread(b, cur, j)
            states.append(state(b, cur))
            if check:
                assert threading_faults(b, cur, j) == []
        b.read_cuts(cur)
        cur = b.stage_absorb_trees(cur)
        states.append(state(b, cur))
        cur = absorb(b, cur)
        states.append(state(b, cur))
        return states, ("ok", b.check_output_clauses(cur))
    except (HamextError, ValueError) as exc:
        outcome = (type(exc).__name__, str(exc), getattr(exc, "context", None))
        return states, outcome


def counting(b):
    """Record in ``b.cases`` the case each call of b's cold branches
    takes: where the helper of stage B lies, or whether stage D's
    helper was fresh or moved."""
    b.cases, updates = [], []
    thread = b.thread_through_helper
    absorb = b.absorb_isolated_separator_vertex
    update = b.update_msets

    def threading(cur, j, s1, e):
        ell = b.part_index(e.x)
        if ell is None:
            b.cases.append("helper off the separator")
        elif ell == j:
            b.cases.append("same part")
        elif cur.succ(e.u) in b.parts[ell]:
            b.cases.append("earlier part")
        else:
            b.cases.append("foreign part")
        return thread(cur, j, s1, e)

    def absorbing(cur, u, nbrs_on):
        on = set(cur.order)
        b.cases.append("isolated vertex")
        out = absorb(cur, u, nbrs_on)
        # update_msets(w1, w2, (u, h)) names the helper h
        b.cases[-1] = "moved helper" if updates[-1][1] in on else "fresh helper"
        return out

    def updating(w1, w2, gained):
        updates.append(gained)
        return update(w1, w2, gained)

    b.thread_through_helper = threading
    b.absorb_isolated_separator_vertex = absorbing
    b.update_msets = updating


# ---------------------------------------------------------------------------
# stage B with s1's cycle edges cut down


STAGE_B_RUNS = [(n, i) for n in (2, 3, 4) for i in range(3)]
_after_a = {}


def after_stage_a(n, i):
    """The inputs of the i-th cycle of a GZn run of depth 3, and its
    live cycle after stage A."""
    if (n, i) not in _after_a:
        G = gen_G_inf(n)
        C = hamilton_sequence(G, 3).cycles[i]
        decomp = decompose(G, C, Region(G, C.order), set())
        rim = rim_of(decomp, C)
        live = _CutBuilder(G, C, decomp, rim).stage_fill_finite()
        _after_a[(n, i)] = (G, C, decomp, rim, live)
    return _after_a[(n, i)]


def pruned_trial(n, i, seed):
    """Stages B to E, current and reference, on a ball where s1 of a
    random part keeps a random non-empty subset of its cycle edges."""
    G, C, decomp, rim, live = after_stage_a(n, i)
    rng = random.Random(seed)
    j = rng.randrange(decomp.k)
    s1 = min(decomp.parts[j])
    nbrs = decomp.ball.neighbors(s1)
    on = [w for w in nbrs if w in live]
    keep = set(rng.sample(on, rng.randint(1, len(on))))
    B = _without_edges(decomp.ball, s1, keep | {w for w in nbrs if w not in live})
    runs = []
    for reference in (False, True):
        b = _CutBuilder(G, C, decomp, rim)
        b.B = B
        counting(b)
        runs.append((b, run_stages(b, clone(live), reference)))
    (got_b, got), (_, want) = runs
    assert got == want
    return got_b.cases, got


@given(st.sampled_from(STAGE_B_RUNS), st.integers(0, 2**32 - 1))
def test_stage_b_with_pruned_s1_matches_reference(run, seed):
    pruned_trial(*run, seed)


def test_pruned_trials_reach_the_same_part_helper_and_kind_iii():
    seen = Counter()
    for n, i in STAGE_B_RUNS:
        k = after_stage_a(n, i)[2].k
        for seed in range(40):
            cases, (states, outcome) = pruned_trial(n, i, seed)
            # a kind III step leaves the live cycle not kept
            kind_iii = not cases and not all(s[2] for s in states[:k])
            seen[tuple(cases), kind_iii, outcome[0]] += 1
    assert seen[("same part",), False, "ok"] >= 50
    assert seen[(), True, "ok"] + seen[(), True, "InvariantViolation"] > 0
    assert seen[(), False, "ok"] > 0


# ---------------------------------------------------------------------------
# stage D on the windows of the rescan-loop trials


@pytest.mark.parametrize("n", [3, 4])
def test_stage_d_matches_reference(n):
    # the trials of test_run_state.test_stage_d_matches_rescan_loop:
    # the first leftover separator vertex keeps 2-5 of its cycle edges,
    # or an M set loses a tree vertex of its piece
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
        cur = b.stage_absorb_trees(cur)
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
                j = trial % b.k
                v = rng.choice(sorted(b.trees[j].vertices))
                for x in pair:
                    x.msets[j].discard((v,))
            outcomes = []
            for x, stage in zip(
                pair, (_CutBuilder.stage_absorb_separator, reference_stage_absorb_separator)
            ):
                counting(x)
                live = clone(cur)
                x.read_cuts(live)
                try:
                    live = stage(x, live)
                    outcome = ("ok", state(x, live), x.check_output_clauses(live))
                except (HamextError, ValueError) as exc:
                    outcome = (type(exc).__name__, str(exc), getattr(exc, "context", None))
                outcomes.append(outcome)
            assert outcomes[0] == outcomes[1]
            seen[outcomes[0][0], tuple(pair[0].cases)] += 1
    assert seen["ok", ("moved helper",)] and seen["ok", ()]


# ---------------------------------------------------------------------------
# balls built by hand

# name: (edges, cycle, parts, pieces, how, case, outcome).  The cycle is
# C and K0; each piece is its component's part of the ball, which is
# the whole graph, with no frontier.  ``how`` says what runs: stages A
# to E as construct_cut1 runs them ("stages"), or without the checks
# between the parts of stage B ("unchecked"), for a cycle that holds
# separator or piece vertices no stage B could have left, and the same
# from part 1 on ("from part 1"); stage B with part 0's stored path
# lost before part 1 ("lost path"); or stages A to
# C and then stage D's branch called for u with the cycle neighbours
# ``nbrs`` ("absorb", u, nbrs).  ``case`` is the case the branch takes,
# and ``outcome`` how the run ends, "ok" or the start of the message;
# for a ball in REFUSED, how the reference's run ends.
HAND_BUILT = {
    "helper in an earlier part": (
        [(0, 1), (0, 3), (0, 4), (0, 6), (0, 7), (0, 8), (0, 9), (1, 2), (1, 4),
         (1, 6), (1, 7), (2, 3), (3, 4), (3, 5), (3, 7), (4, 5), (4, 9), (4, 11),
         (4, 12), (5, 6), (5, 8), (5, 10), (5, 11), (5, 12), (6, 7), (6, 9),
         (6, 10), (6, 11), (6, 12), (7, 11), (7, 12), (8, 9), (8, 13), (8, 14),
         (8, 15), (9, 13), (9, 14), (10, 11), (11, 12), (13, 14), (14, 15)],
        (0, 1, 2, 3), [(4, 5, 6, 7), (8, 9)], [(10, 11, 12), (13, 14, 15)],
        "stages", "earlier part", "ok",
    ),
    "earlier part, stored path lost": (
        [(0, 1), (0, 3), (0, 4), (0, 6), (0, 7), (0, 8), (0, 9), (1, 2), (1, 4),
         (1, 6), (1, 7), (2, 3), (3, 4), (3, 5), (3, 7), (4, 5), (4, 9), (4, 11),
         (4, 12), (5, 6), (5, 8), (5, 10), (5, 11), (5, 12), (6, 7), (6, 9),
         (6, 10), (6, 11), (6, 12), (7, 11), (7, 12), (8, 9), (8, 13), (8, 14),
         (8, 15), (9, 13), (9, 14), (10, 11), (11, 12), (13, 14), (14, 15)],
        (0, 1, 2, 3), [(4, 5, 6, 7), (8, 9)], [(10, 11, 12), (13, 14, 15)],
        "lost path", "earlier part", "stored path through the component is degenerate",
    ),
    "earlier part, new path on the cycle": (
        [(0, 1), (0, 3), (1, 2), (1, 4), (1, 7), (2, 3), (2, 5), (3, 4), (3, 6),
         (4, 5), (4, 6), (4, 9), (4, 10), (5, 6), (5, 9), (5, 10), (6, 7), (6, 8),
         (6, 9), (6, 10), (7, 11), (8, 9), (8, 10), (9, 10), (11, 12)],
        (0, 1, 2, 3), [(4, 5, 6), (7,)], [(8, 9, 10), (11, 12)],
        "stages", "earlier part", "no extension absorbs target 11",
    ),
    "later part": (
        [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5), (2, 6),
         (3, 5), (4, 6), (4, 7), (4, 8), (5, 6), (5, 10), (6, 10), (7, 8), (9, 10)],
        (0, 5, 1, 2, 3), [(4,), (5, 6)], [(7, 8), (9, 10)],
        "unchecked", "earlier part", "helper part was not processed yet",
    ),
    "earlier part, z off the path's ends": (
        [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 8), (2, 3), (2, 6), (4, 6),
         (4, 7), (4, 10), (5, 6), (5, 7), (5, 8), (5, 9), (5, 10), (6, 7), (6, 10),
         (7, 10), (8, 11), (9, 10), (11, 12)],
        (0, 1, 7, 2, 3), [(4, 5, 6, 7), (8,)], [(9, 10), (11, 12)],
        "unchecked", "earlier part", "7 is not an endpoint of the stored path",
    ),
    "foreign part beside a vertex off its piece": (
        [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (4, 5), (4, 6), (5, 8),
         (6, 7), (8, 9)],
        (0, 1, 2, 3), [(4,), (5,)], [(6, 7), (8, 9)],
        "stages", "foreign part", "helper 5 is in foreign part 1",
    ),
    "foreign part beside its path": (
        [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (3, 7), (4, 6),
         (4, 7), (4, 8), (5, 6), (5, 7), (5, 8), (6, 9), (7, 10), (7, 11), (8, 9),
         (10, 11)],
        (0, 1, 2, 3), [(4, 5, 6), (7,)], [(8, 9), (10, 11)],
        "stages", "foreign part", "helper 5 is in foreign part 0",
    ),
    "foreign part, y off its separator": (
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 4), (2, 8), (3, 8), (4, 5),
         (4, 7), (5, 8), (5, 9), (6, 7), (8, 9)],
        (0, 1, 2, 8, 3), [(4,), (5,)], [(6, 7), (8, 9)],
        "unchecked", "foreign part",
        "cycle vertex 2 next to the component is not in its separator",
    ),
    "foreign part, w leaning in": (
        [(0, 1), (0, 2), (0, 5), (0, 6), (1, 2), (1, 8), (2, 3), (2, 7), (2, 10),
         (3, 13), (4, 5), (4, 6), (4, 9), (4, 14), (5, 6), (6, 11), (7, 9), (7, 11),
         (7, 12), (7, 14), (8, 11), (8, 12), (8, 13), (8, 14), (9, 12), (9, 14),
         (10, 12), (10, 14), (11, 15), (11, 17), (12, 13), (12, 14), (13, 14),
         (15, 16), (15, 17), (16, 17)],
        (0, 1, 2, 3, 13, 14, 4, 5, 6), [(7, 8, 9, 10), (11,)],
        [(12, 13, 14), (15, 16, 17)],
        "unchecked", "foreign part", "both cycle neighbours lean into the same component",
    ),
    "foreign part, w in its separator": (
        [(0, 1), (0, 5), (1, 8), (5, 6), (6, 8), (6, 10), (7, 8), (7, 10), (8, 9),
         (10, 11), (11, 12)],
        (0, 5, 6, 8, 1), [(5, 6, 7), (10,)], [(8, 9), (11, 12)],
        "from part 1", "foreign part",
        "both cycle neighbours lean into the same component",
    ),
    "same part, new path on the cycle": (
        [(0, 1), (0, 3), (0, 4), (1, 2), (2, 4), (2, 7), (3, 7), (4, 5), (4, 6),
         (5, 7), (6, 7)],
        (0, 1, 2, 7, 3), [(4, 5)], [(6, 7)],
        "unchecked", "same part", "replacement interior collides with the cycle",
    ),
    "helper off the separator": (
        [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
        (0, 1, 2, 3, 5), [(4,)], [(5, 6)],
        "unchecked", "helper off the separator",
        "helper vertex 6 is not a separator vertex",
    ),
    "fresh helper": (
        [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 7), (2, 3), (3, 6), (4, 6),
         (4, 7), (4, 8), (4, 9), (5, 6), (5, 9), (6, 8), (6, 9), (7, 8), (7, 9),
         (8, 9)],
        (0, 1, 2, 3), [(4, 5, 6, 7)], [(8, 9)],
        "stages", "fresh helper", "ok",
    ),
    "fresh helper off the separator": (
        [(0, 1), (0, 3), (0, 4), (0, 8), (1, 2), (1, 4), (1, 5), (2, 3), (4, 6),
         (4, 9), (5, 6), (5, 7), (6, 7), (8, 9)],
        (0, 1, 2, 3), [(4, 5, 8)], [(6, 7)],
        ("absorb", 8, (0,)), "isolated vertex",
        "fresh helper 9 is not a separator vertex",
    ),
    "isolated vertex, shortcut not closed": (
        [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (2, 6), (4, 6), (4, 8),
         (5, 7), (6, 7), (7, 8)],
        (0, 1, 2, 3), [(4, 5, 6)], [(7, 8)],
        "stages", "isolated vertex", "claw-freeness did not close the shortcut",
    ),
    "isolated vertex with no cycle neighbour": (
        [(0, 1), (0, 3), (1, 2), (1, 4), (1, 6), (2, 3), (2, 5), (4, 5), (4, 7),
         (5, 7), (5, 8), (6, 7), (7, 8)],
        (0, 1, 2, 3), [(4, 5, 6)], [(7, 8)],
        ("absorb", 6, ()), "isolated vertex",
        "separator vertex 6 has no neighbour on the cycle",
    ),
    "isolated vertex taken in by another kind": (
        [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (1, 6), (2, 3), (2, 5), (4, 7),
         (4, 8), (5, 6), (5, 7), (5, 8), (6, 7), (7, 8)],
        (0, 1, 2, 3), [(4, 5, 6)], [(7, 8)],
        ("absorb", 5, (8,)), "isolated vertex",
        "isolated separator vertex was not absorbed by the forced two-vertex kind",
    ),
    "moved helper, shortcut not closed": (
        [(0, 1), (0, 2), (0, 4), (0, 5), (0, 7), (1, 2), (1, 6), (1, 7), (2, 3),
         (2, 4), (2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (5, 8),
         (5, 9), (5, 10), (6, 8), (7, 10), (8, 9), (8, 10), (9, 10)],
        (0, 1, 2, 3, 4), [(5, 6, 7)], [(8, 9, 10)],
        ("absorb", 7, (0, 1, 2, 3, 10)), "isolated vertex",
        "claw-freeness did not close the relocation shortcut",
    ),
    "moved helper, arc not consecutive": (
        [(0, 1), (0, 5), (1, 2), (1, 4), (1, 9), (2, 3), (3, 4), (3, 5), (3, 7),
         (4, 5), (4, 6), (5, 8), (6, 7), (6, 8), (6, 9), (6, 10), (6, 11), (7, 10),
         (7, 11), (8, 10), (8, 11), (9, 10), (9, 11), (10, 11)],
        (0, 1, 2, 3, 4, 5), [(6, 7, 8, 9)], [(10, 11)],
        ("absorb", 7, (6, 10, 11)), "isolated vertex",
        "arc is not consecutive on the cycle",
    ),
}


def hand_built(edges, cycle, parts, pieces):
    """The construction's inputs on the graph ``edges`` over a finite
    graph whose every vertex escapes."""
    F = FiniteGraph.from_edges(range(1 + max(map(max, edges))), edges)
    G = LazyGraph(F.neighbors, lambda blocker, v: True, 0)
    C = Cycle(cycle)
    script_S = frozenset().union(*parts)
    decomp = SeparatorDecomposition(
        script_S,
        len(parts),
        tuple(map(frozenset, parts)),
        tuple(map(frozenset, pieces)),
        C.vertex_set,
        F,
    )
    return G, C, decomp, _Rim(F, C.vertex_set, neighborhood_k(F, C.vertex_set, 1))


def through_stage_c(b):
    """Stages A to C on the builder b, with the cuts read after stage B."""
    cur = b.stage_fill_finite()
    for j in range(b.k):
        cur = b.thread_part(cur, j)
    b.read_cuts(cur)
    return b.stage_absorb_trees(cur)


def hand_built_run(name, reference):
    edges, cycle, parts, pieces, how, _, _ = HAND_BUILT[name]
    b = _CutBuilder(*hand_built(edges, cycle, parts, pieces))
    counting(b)
    if how in ("stages", "unchecked", "from part 1"):
        first = 1 if how == "from part 1" else 0
        cur = b.stage_fill_finite()
        return b, run_stages(b, cur, reference, check=how == "stages", first=first)
    if how == "lost path":
        cur = b.thread_part(b.stage_fill_finite(), 0)
        b.paths[0] = None
        return b, run_stages(b, cur, reference, first=1)
    _, u, nbrs = how
    cur = through_stage_c(b)
    try:
        if reference:
            D, gained = reference_absorb_isolated_separator_vertex(
                b, cur.freeze(), u, set(nbrs)
            )
            reset(cur, D)
        else:
            b.absorb_isolated_separator_vertex(cur, u, set(nbrs))
        return b, ([state(b, cur)], ("ok",))
    except (HamextError, ValueError) as exc:
        return b, ([], (type(exc).__name__, str(exc), getattr(exc, "context", None)))


# The balls whose reference exit needs a state that the construction
# never leaves, with what rules it out: "decompose", the guarantees of
# decompose that the ball's decomposition breaks (its cycle is K0);
# "threads", the faults threading_faults finds after part 0 once that
# part's stored path is lost; or "kind I", the first consecutive pair
# of u's cycle neighbours after stage C, beside which stage D takes u
# in without calling the branch.
REFUSED = {
    "earlier part, stored path lost": ("threads", ["path 0 missing"]),
    "later part": ("decompose", ["K0 meets part 1"]),
    "earlier part, z off the path's ends": ("decompose", ["K0 meets part 0"]),
    "foreign part, y off its separator": ("decompose", ["K0 meets piece 1"]),
    "foreign part, w leaning in": ("decompose", ["K0 meets piece 0"]),
    "foreign part, w in its separator": (
        "decompose", ["K0 meets part 0", "K0 meets piece 0"]
    ),
    "helper off the separator": ("decompose", ["K0 meets piece 0"]),
    "isolated vertex taken in by another kind": ("kind I", (8, 7)),
    "moved helper, shortcut not closed": ("kind I", (0, 1)),
}


def broken_guarantees(decomp):
    """What decompose guarantees and decomp breaks: K0, the parts and
    the pieces pairwise disjoint, and no separator vertex next to two
    pieces."""
    pieces = decomp.infinite_components
    sets = [
        ("K0", decomp.finite_component),
        *((f"part {j}", part) for j, part in enumerate(decomp.parts)),
        *((f"piece {j}", piece) for j, piece in enumerate(pieces)),
    ]
    broken = [f"{a} meets {b}" for (a, x), (b, y) in combinations(sets, 2) if x & y]
    for s in sorted(decomp.script_S):
        near = [
            j for j, piece in enumerate(pieces)
            if any(w in piece for w in decomp.ball.neighbors(s))
        ]
        if len(near) > 1:
            broken.append(f"{s} is next to pieces {near}")
    return broken


def refusal(name):
    """What the check that REFUSED names finds on the ball."""
    edges, cycle, parts, pieces, how, _, _ = HAND_BUILT[name]
    inputs = hand_built(edges, cycle, parts, pieces)
    check = REFUSED[name][0]
    if check == "decompose":
        return broken_guarantees(inputs[2])
    b = _CutBuilder(*inputs)
    counting(b)
    if check == "threads":
        cur = b.thread_part(b.stage_fill_finite(), 0)
        assert threading_faults(b, cur, 0) == []
        b.paths[0] = None
        return threading_faults(b, cur, 0)
    _, u, _ = how
    cur = through_stage_c(b)
    pair = b.consecutive_pair(cur, {w for w in b.B.neighbors(u) if w in cur})
    b.stage_absorb_separator(cur)
    assert u in cur and "isolated vertex" not in b.cases
    return pair


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_ball_matches_reference(name):
    *_, case, outcome = HAND_BUILT[name]
    _, want = hand_built_run(name, reference=True)
    if name in REFUSED:
        # the reference's exit, on a state the construction never reaches
        assert want[1][1].startswith(outcome)
        assert refusal(name) == REFUSED[name][1]
        return
    b, got = hand_built_run(name, reference=False)
    if case == "foreign part":
        # the reference refused by an adjacency check that always fails
        # here, and the current code by its one message
        assert got[0] == want[0] and got[1][0] == want[1][0]
        assert want[1][1].startswith("complete attachment missing")
    else:
        assert got == want
    assert b.cases[-1] == case
    assert got[1][0] == "ok" if outcome == "ok" else got[1][1].startswith(outcome)


def test_stage_balls_keep_the_decomposition_guarantees():
    # the balls that run the stages as construct_cut1 does are states a
    # decomposition can leave, so the refusals above are not vacuous
    for edges, cycle, parts, pieces, how, _, _ in HAND_BUILT.values():
        if how == "stages":
            assert broken_guarantees(hand_built(edges, cycle, parts, pieces)[2]) == []


def test_stage_errors_after_the_seed_checks_are_invariant_violations():
    # a refused rewiring in stage B names its stage, chained from the
    # InputError the live cycle raised
    edges, cycle, parts, pieces, *_ = HAND_BUILT["same part, new path on the cycle"]
    with pytest.raises(InvariantViolation) as raised:
        construct_cut1(*hand_built(edges, cycle, parts, pieces))
    assert str(raised.value) == "replacement interior collides with the cycle"
    assert raised.value.context == {"stage": "B"}
    assert isinstance(raised.value.__cause__, InputError)
    # the earlier-part ball's new path runs back through the old one's
    # interior: the rewiring goes through, and part 1's forced two-step
    # then finds no place for vertex 11 of its piece, still in stage B;
    # find_extension's violation leaves with its own context and the
    # stage added
    edges, cycle, parts, pieces, *_ = HAND_BUILT["earlier part, new path on the cycle"]
    with pytest.raises(InvariantViolation, match="no extension absorbs target 11") as raised:
        construct_cut1(*hand_built(edges, cycle, parts, pieces))
    context = raised.value.context
    assert context["stage"] == "B"
    assert context.keys() == {"stage", "cycle", "target", "anchors", "neighborhood"}
    assert context["target"] == 11
    assert raised.value.__cause__ is None


@pytest.mark.parametrize(
    "method, stage", [("stage_absorb_trees", "C"), ("stage_absorb_separator", "D")]
)
def test_stage_boundary_names_stages_c_and_d(monkeypatch, method, stage):
    # no ball built so far makes stages C or D raise an InputError, so
    # one is raised in their place, on the first enlargement of GZ2
    def refuse(self, cur):
        raise InputError("refused")

    G, C, decomp, rim, _ = after_stage_a(2, 0)
    monkeypatch.setattr(_CutBuilder, method, refuse)
    with pytest.raises(InvariantViolation, match="refused") as raised:
        construct_cut1(G, C, decomp, rim)
    assert raised.value.context == {"stage": stage}
