"""verify_hc_extract against the frozen reference deep in a trace.

The differential tests of test_verify_reference run on depth-3 traces,
whose last cuts have few later cycles to agree with and whose edges
have few cycles to persist through.  Here a GZ3 trace of depth 6 is
mutated field by field, and its late cycles are reordered; both
verifiers must give the same verdict JSON, or the same exception type
and message, asking the neighbour oracle the same vertices in the same
order."""

import json
import random
from collections import Counter

import pytest

from hamext.errors import InputError
from hamext.families import gen_G_inf
from hamext.graphcore import Cycle
from hamext.infinite import SequenceTrace, hamilton_sequence
from test_verify_reference import _mutate, _reorderings, _same_outcome, _with_cycle


@pytest.fixture(scope="module")
def gz3_depth6():
    base = gen_G_inf(3)
    return base, hamilton_sequence(base, 6)


def _tally(seen, details, outcome):
    """Count the outcome by its failing clauses, and keep their details."""
    kind, value = outcome
    if kind != "verdict":
        seen[kind] += 1
        return
    failed = [k for k, r in value.items() if k != "all_ok" and not r["ok"]]
    seen["all_ok" if not failed else "+".join(failed)] += 1
    details.update(value[k]["detail"] for k in failed)


def test_deep_mutations_match_reference(gz3_depth6):
    base, trace = gz3_depth6
    text = trace.to_json()
    rng = random.Random(6)
    seen, details = Counter(), set()
    for _ in range(120):
        obj = json.loads(text)
        path = _mutate(obj, rng)
        try:
            bad = SequenceTrace.from_json_obj(obj)
        except InputError:
            seen["refused"] += 1
            continue
        _tally(seen, details, _same_outcome(bad, base, label=path))
    assert seen["refused"] and seen["InputError"] and seen["all_ok"], seen
    for clause in ("finite_cuts", "nested_msets", "cut_agreement"):
        assert any(clause in key for key in seen), seen
    # a witness of the fourth iteration or later fails its own cut
    assert any(d.startswith(("triple (i=4", "triple (i=6")) for d in details), details


def test_deep_reordered_cycles_match_reference(gz3_depth6):
    base, trace = gz3_depth6
    rng = random.Random(60)
    late = range(trace.depth - 2, trace.depth + 1)
    cases = [
        (f"{name} cycle {idx}", _with_cycle(trace, idx, Cycle(order)))
        for _ in range(3)
        for idx in late
        for name, order in _reorderings(trace.cycles[idx].order, rng)
    ]
    cases += [
        (f"cycle {i} copies cycle {i - 1}", _with_cycle(trace, i, trace.cycles[i - 1]))
        for i in late
    ]
    seen, details = Counter(), set()
    for label, bad in cases:
        _tally(seen, details, _same_outcome(bad, base, label=label))
    assert seen["all_ok"] and seen["InputError"], seen
    # reversed segments that keep adjacency lose edges several cycles
    # old, and move a cut frozen four iterations before
    assert any(d.startswith("edges ") and "missing from cycle" in d for d in details)
    assert any("crossing edges changed" in d for d in details), details
