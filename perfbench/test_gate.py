"""The benchmark's correctness gate rejects corrupted outputs.

    python3 -m pytest perfbench/test_gate.py
"""

import json
import random

import gate
import workloads

hx = workloads.import_program()


def _ring():
    inst = workloads.relabelled(8, 3, random.Random(5))
    G = hx.graphcore.FiniteGraph.from_edges(range(inst.n_vertices), inst.edges)
    return inst, list(hx.extension.extend_to_hamilton(G).order)


def _problems(inst, order):
    return gate.cycle_problems(order, inst.n_vertices, inst.edge_set)


def test_gate_accepts_the_program_cycle():
    inst, order = _ring()
    assert _problems(inst, order) == []


def test_gate_rejects_corrupted_cycles():
    inst, order = _ring()
    # a chord between cycle positions i and i+2 that is not an edge
    i = next(
        i for i in range(len(order))
        if (min(order[i], order[i - 2]), max(order[i], order[i - 2])) not in inst.edge_set
    )
    swapped = list(order)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    repeated = order[:-1] + [order[0]]
    assert any("not an edge" in p for p in _problems(inst, swapped))
    assert any("exactly once" in p for p in _problems(inst, order[:-1]))
    assert any("exactly once" in p for p in _problems(inst, repeated))


def _trace():
    G = hx.families.descriptor_to_lazy({"family": "GZn", "params": {"n": 2}})
    return hx.infinite.hamilton_sequence(G, 3).to_json()


def _verdict(text):
    try:
        trace = hx.infinite.SequenceTrace.from_json(text)
        return hx.infinite.verify_hc_extract(trace).all_ok
    except hx.graphcore.InputError:
        return False


def test_gate_accepts_the_program_trace():
    text = _trace()
    assert gate.trace_problems(text, _verdict(text), 3, text) == []


def test_gate_rejects_corrupted_traces():
    text = _trace()
    obj = json.loads(text)
    obj["cycles"][2].remove(obj["cycles"][1][0])
    corrupt = json.dumps(obj, sort_keys=True, indent=1)
    problems = gate.trace_problems(corrupt, _verdict(corrupt), 3, text)
    assert any("drops vertices" in p for p in problems)
    assert any("differs" in p for p in problems)
    # the gate's own checks hold even when the program's verdict would not
    assert gate.trace_problems(corrupt, True, 3, corrupt)
    assert gate.trace_problems(text, False, 3, text) == ["verify_hc_extract rejects the trace"]
    assert gate.trace_problems(text, True, 4, text)


def test_tail_percentile_keeps_ten_samples_above():
    from run import tail

    samples = [float(i) for i in range(35)]
    p, value = tail(samples)
    assert p == 71 and sum(s > value for s in samples) == 10
