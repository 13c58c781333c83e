"""verify_hc_extract against the frozen reference deep in a trace.

The differential tests of test_verify_reference run on depth-3 traces,
whose last cuts have few later cycles to agree with and whose edges
have few cycles to persist through.  Here a GZ3 trace of depth 6 is
mutated field by field, and its late cycles are reordered; both
verifiers must give the same verdict JSON, or the same exception type
and message, asking the neighbour oracle the same vertices in the same
order.  Targeted changes of the witnesses along each tracked end then
send the nesting check down each of its paths: a vertex M's test knows
to be in or out of M, one in K0 or another piece, and one it walks."""

import json
import random
import sys
from collections import Counter

import pytest

import hamext.infinite as infinite
from hamext.errors import InputError
from hamext.families import gen_G_inf
from hamext.graphcore import Cycle, neighborhood_k
from hamext.infinite import SequenceTrace, hamilton_sequence
from records import rebuilt
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


# ---------------------------------------------------------------------------
# the nesting check's paths


def _with_witness(trace, i, j, **changes):
    per = [list(row) for row in trace.witnesses]
    per[i][j] = rebuilt(per[i][j], **changes)
    return rebuilt(trace, witnesses=tuple(map(tuple, per)))


def _nesting_cases(G, trace):
    """Changes of witness i or i + 1 along each end: a vertex of both
    pieces excluded at i; additions at i + 1 of a K0_i vertex, a vertex
    of the other piece of i, a blocker_i vertex, a blocker_{i+1} vertex
    and a neighbour of the separator part of i; vertices shared by both
    pieces taken out of piece_i, one or all, so that they are walked;
    and a vertex of the other piece put into piece_i as well, so that
    its neighbours, foreign to M_i, reach the piece at once."""
    for name, sel in sorted(trace.end_selectors.items()):
        for i in range(trace.depth - 1):
            fi, fn = sel[i], sel[i + 1]
            here, nxt = trace.witnesses[i][fi], trace.witnesses[i + 1][fn]
            other = next(w for w in trace.witnesses[i] if w is not here)
            shared = sorted(here.piece & nxt.piece)
            shield = sorted(neighborhood_k(G, here.part, 1) & here.piece)
            label = f"{name} {i}"
            yield f"{label} excluded", _with_witness(
                trace, i, fi, excluded=here.excluded | {shared[-1]}
            )
            for what, v in (
                ("K0", max(trace.k0s[i])),
                ("other piece", min(other.piece)),
                ("blocker", max(trace.blockers[i])),
                ("next blocker", max(trace.blockers[i + 1] - nxt.included)),
                ("shield", shield[0]),
            ):
                yield f"{label} {what} added", _with_witness(
                    trace, i + 1, fn, included=nxt.included | {v}
                )
            yield f"{label} one walked", _with_witness(
                trace, i, fi, piece=here.piece - {shared[0]}
            )
            yield f"{label} all walked", _with_witness(
                trace, i, fi, piece=here.piece - set(shared)
            )
            yield f"{label} other piece shared", _with_witness(
                trace, i, fi, piece=here.piece | {min(other.piece)}
            )


def test_nesting_paths_match_reference(gz3_depth6, monkeypatch):
    base, trace = gz3_depth6
    # each query the nesting check makes of an M set, by the path M's
    # test answers it on: a known member, a known non-member, a vertex
    # of K0 or another piece, or a walk
    paths = Counter()
    witness_membership = infinite._witness_membership

    def recording(G, t, i, j):
        member, in_component, known = witness_membership(G, t, i, j)
        w, blocker = t.witnesses[i][j], t.blockers[i]
        inside = (w.included - w.excluded) | (w.piece - blocker - w.excluded)
        outside = w.excluded | (blocker - w.included)
        foreign = set(t.k0s[i]).union(
            *(o.piece for jj, o in enumerate(t.witnesses[i]) if jj != j)
        )

        def query(v):
            if any(
                f.f_code.co_name == "_nested_msets"
                for f in (sys._getframe(1), sys._getframe(2))
            ):
                path = (
                    "in" if v in inside
                    else "out" if v in outside
                    else "foreign" if v in foreign
                    else "walk"
                )
                paths[path] += 1
            return member(v)

        return query, in_component, known

    monkeypatch.setattr(infinite, "_witness_membership", recording)
    seen, details = Counter(), set()
    for label, bad in _nesting_cases(base, trace):
        _tally(seen, details, _same_outcome(bad, base, label=label))
    assert set(paths) == {"in", "out", "foreign", "walk"}, paths
    assert seen["all_ok"] and any("nested_msets" in key for key in seen), seen
    for start in ("nesting fails at", "M additions", "next M set reaches"):
        assert any(d.startswith("end 'left': " + start) for d in details), details
