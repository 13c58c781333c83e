"""Each iteration of a run, one at a time: the facts the enlargement
relies on without checking them again, and the iteration replayed from
its cycle alone.

The runs are driven through their run state, as hamilton_sequence
drives them, so that each iteration's decomposition is in hand."""

import pytest

from hamext.families import gen_G_inf
from hamext.graphcore import neighborhood_k
from hamext.infinite import (
    _CutBuilder,
    _initial_cycle,
    _RunState,
    _saturate_initial,
    _select_end,
    decide_by_period,
    hamilton_sequence,
)
from separators import components
from test_run_state import without_period

# (n, depth) of the GZn runs; the replay runs each one decided and with
# its representatives cleared, so that every ball is checked
RUNS = ((2, 12), (3, 8), (5, 4))


def iterations(G, depth):
    """Yield (C_i, decomposition, C_{i+1}, witnesses) for each iteration
    of hamilton_sequence(G, depth), from its run state."""
    decided = decide_by_period(G)
    seed = _initial_cycle(G, decided)
    state = _RunState(G, seed, decided)
    C = _saturate_initial(seed, state.check_seed())
    for _ in range(depth):
        decomp, C2, wits = state.enlarge(C)
        yield C, decomp, C2, wits
        C = C2


def stage_d_rounds(monkeypatch):
    """Fail as soon as stage D runs more rounds than there are separator
    vertices off the cycle when it starts; returns the rounds of each
    stage D run."""
    rounds = []
    stage, require_cuts = _CutBuilder.stage_absorb_separator, _CutBuilder.require_cuts

    def counted_stage(self, cur):
        rounds.append([0, len(self.script_S.difference(cur._succ))])
        return stage(self, cur)

    def counted_check(self, cur, label):
        # stage D checks its cuts once more after each round
        if label == "M cut":
            rounds[-1][0] += 1
            assert rounds[-1][0] <= rounds[-1][1] <= len(self.script_S)
        return require_cuts(self, cur, label)

    monkeypatch.setattr(_CutBuilder, "stage_absorb_separator", counted_stage)
    monkeypatch.setattr(_CutBuilder, "require_cuts", counted_check)
    return rounds


@pytest.mark.parametrize(
    "n, depth, cleared", [*((n, depth, False) for n, depth in RUNS), (2, 8, True)]
)
def test_enlargement_facts_hold_at_every_iteration(monkeypatch, n, depth, cleared):
    # the facts that decompose, stages A, D and E and the run state rely
    # on without checking them again
    G = gen_G_inf(n)
    if cleared:
        G = without_period(G)
    rounds = stage_d_rounds(monkeypatch)
    cycles = []
    for C, decomp, C2, wits in iterations(G, depth):
        on, S, K0 = C.vertex_set, decomp.script_S, decomp.finite_component
        B = decomp.ball
        nc = neighborhood_k(G, on, 1)
        assert K0.isdisjoint(B.frontier)
        assert components(B, B.vertex_set - K0) == [K0]
        assert on | (nc - S) <= K0
        assert all(any(w in on for w in G.neighbors(s)) for s in S)
        for w in wits:
            n_sj = set().union(*map(G.neighbors, w.part))
            assert w.excluded.isdisjoint(w.piece - n_sj)
        assert on | nc <= C2.vertex_set
        cycles.append(C2.order)
    assert len(rounds) == depth and any(r for r, _ in rounds) == (n > 2)
    # the driver is the run's
    monkeypatch.undo()
    assert cycles == [c.order for c in hamilton_sequence(G, depth).cycles[1:]]


@pytest.mark.parametrize("cleared", [False, True])
@pytest.mark.parametrize("n, depth", RUNS)
def test_each_iteration_replays_from_its_cycle_alone(n, depth, cleared):
    # a fresh run state started at C_i gives the run's blocker, K0,
    # witnesses and C_{i+1}, and a ray walk started at 0 each end's
    # selection: the run's caches carry nothing that changes the output
    G = gen_G_inf(n)
    if cleared:
        G = without_period(G)
    trace = hamilton_sequence(G, depth)
    decided = decide_by_period(G)
    assert decided != cleared
    for i, C in enumerate(trace.cycles[:-1]):
        decomp, C2, wits = _RunState(G, C, decided).enlarge(C)
        assert decomp.script_S == trace.blockers[i]
        assert decomp.finite_component == trace.k0s[i]
        assert [w.to_json_obj() for w in wits] == [
            w.to_json_obj() for w in trace.witnesses[i]
        ]
        assert C2.order == trace.cycles[i + 1].order
        for name, selected in trace.end_selectors.items():
            assert _select_end(G, name, decomp, (0, None))[0] == selected[i]
