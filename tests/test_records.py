"""The records' contract: construction with defaults, equality, hashing,
repr, validation messages and JSON key order."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hamext.conditions import ChainVerdict, ClawVerdict, StarVerdict
from hamext.errors import InputError
from hamext.extension import Extension
from hamext.graphcore import Cycle, CycleReport, FiniteGraph
from hamext.infinite import SteinerTree
from hamext.trace import CutWitness, SequenceTrace
from hamext.verify import ConditionReport, HCExtractVerdict
from hamext.structure import SeparatorDecomposition

TRIANGLE = "FiniteGraph(vertices=(0, 1, 2), adj={0: (1, 2), 1: (0, 2), 2: (0, 1)}, frontier=frozenset(), labels=None)"
OK = ConditionReport(True, "")


def triangle():
    return FiniteGraph.from_edges([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


def verdict(last):
    return HCExtractVerdict(OK, OK, OK, OK, last)


def witness(j):
    return CutWitness(
        j=j,
        part=frozenset({1}),
        piece=frozenset({2, 3}),
        included=frozenset(),
        excluded=frozenset({4}),
        crossing_edges=((1, 2), (3, 4)),
    )


def trace(depth_zero_cycle):
    return SequenceTrace(None, (Cycle(depth_zero_cycle),), (), (), (), (), {})


def decomposition(k):
    return SeparatorDecomposition(
        frozenset({1}), k, (frozenset({1}),), (), frozenset({0}), triangle()
    )


# (make, a record that differs from make() in one field, repr of make())
CASES = {
    "FiniteGraph": (
        triangle,
        lambda: FiniteGraph((0, 1), {0: (1,), 1: (0,)}),
        TRIANGLE,
    ),
    "FiniteGraph-labels": (
        lambda: FiniteGraph(
            vertices=(0, 1), adj={0: (1,), 1: (0,)}, frontier=frozenset({1}),
            labels={0: "a", 1: "b"},
        ),
        lambda: FiniteGraph((0, 1), {0: (1,), 1: (0,)}, frozenset({1})),
        "FiniteGraph(vertices=(0, 1), adj={0: (1,), 1: (0,)}, frontier=frozenset({1}), labels={0: 'a', 1: 'b'})",
    ),
    "Cycle": (
        lambda: Cycle((0, 1, 2)),
        lambda: Cycle(order=(0, 2, 1)),
        "Cycle(order=(0, 1, 2))",
    ),
    "CycleReport": (
        lambda: CycleReport(True),
        lambda: CycleReport(True, is_hamiltonian=True),
        "CycleReport(ok=True, reason=None, is_hamiltonian=False)",
    ),
    "StarVerdict": (
        lambda: StarVerdict(True),
        lambda: StarVerdict(True, scope="ball"),
        "StarVerdict(holds=True, witness=None, lhs=None, rhs=None, scope='graph')",
    ),
    "StarVerdict-witness": (
        lambda: StarVerdict(False, (1, 2, 3), 4, 5, "ball"),
        lambda: StarVerdict(False, (1, 2, 3), 4, 6, "ball"),
        "StarVerdict(holds=False, witness=(1, 2, 3), lhs=4, rhs=5, scope='ball')",
    ),
    "ClawVerdict": (
        lambda: ClawVerdict(False, (0, (1, 2, 3))),
        lambda: ClawVerdict(claw_free=False),
        "ClawVerdict(claw_free=False, witness=(0, (1, 2, 3)))",
    ),
    "ChainVerdict": (
        lambda: ChainVerdict(False, (1, 2, 3), common=1, private=2),
        lambda: ChainVerdict(False, (1, 2, 3), common=1),
        "ChainVerdict(holds=False, witness=(1, 2, 3), common=1, private=2)",
    ),
    "Extension-I": (
        lambda: Extension("I", 5, 3),
        lambda: Extension("I", 5, 4),
        "Extension(kind='I', target=5, u=3, x=None, y=None)",
    ),
    "Extension-II": (
        lambda: Extension(kind="II", target=5, u=3, x=4),
        lambda: Extension("II", 5, 3, x=4, y=0),
        "Extension(kind='II', target=5, u=3, x=4, y=None)",
    ),
    "Extension-III": (
        lambda: Extension("III", 5, 3, y=7),
        lambda: Extension("III", 5, 3, y=8),
        "Extension(kind='III', target=5, u=3, x=None, y=7)",
    ),
    "SeparatorDecomposition": (
        lambda: decomposition(1),
        lambda: decomposition(2),
        "SeparatorDecomposition(script_S=frozenset({1}), k=1, parts=(frozenset({1}),), "
        f"infinite_components=(), finite_component=frozenset({{0}}), ball={TRIANGLE})",
    ),
    "CutWitness": (
        lambda: witness(0),
        lambda: witness(1),
        "CutWitness(j=0, part=frozenset({1}), piece=frozenset({2, 3}), included=frozenset(), "
        "excluded=frozenset({4}), crossing_edges=((1, 2), (3, 4)))",
    ),
    "SequenceTrace": (
        lambda: trace((0, 1, 2)),
        lambda: trace((0, 1, 3)),
        "SequenceTrace(descriptor=None, cycles=(Cycle(order=(0, 1, 2)),), blockers=(), "
        "ks=(), k0s=(), witnesses=(), end_selectors={})",
    ),
    "SteinerTree": (
        lambda: SteinerTree(frozenset({1, 2}), frozenset({(1, 2)})),
        lambda: SteinerTree(vertices=frozenset({1, 2}), edges=frozenset()),
        "SteinerTree(vertices=frozenset({1, 2}), edges=frozenset({(1, 2)}))",
    ),
    "ConditionReport": (
        lambda: ConditionReport(True, "ok"),
        lambda: ConditionReport(ok=False, detail="ok"),
        "ConditionReport(ok=True, detail='ok')",
    ),
    "HCExtractVerdict": (
        lambda: verdict(ConditionReport(False, "bad")),
        lambda: verdict(OK),
        "HCExtractVerdict(vertex_persistence=ConditionReport(ok=True, detail=''), "
        "finite_cuts=ConditionReport(ok=True, detail=''), "
        "nested_msets=ConditionReport(ok=True, detail=''), "
        "edge_persistence=ConditionReport(ok=True, detail=''), "
        "cut_agreement=ConditionReport(ok=False, detail='bad'))",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record_equality_and_repr(name):
    make, other, text = CASES[name]
    a, b = make(), make()
    assert a == b and not a != b
    assert a != other() and not a == other()
    assert a != object() and a != text
    assert repr(a) == text


def test_record_defaults():
    assert StarVerdict(True).scope == "graph"
    assert StarVerdict(True).witness is None
    assert Extension("I", 5, 3).x is None and Extension("I", 5, 3).y is None
    assert CycleReport(False).reason is None
    assert CycleReport(False).is_hamiltonian is False
    assert ClawVerdict(True).witness is None
    assert ChainVerdict(True).common is None and ChainVerdict(True).private is None
    G = FiniteGraph(vertices=(0, 1), adj={0: (1,), 1: (0,)})
    assert G.frontier == frozenset() and G.labels is None and G.twins is None
    assert G.vertex_set == frozenset({0, 1}) and G.adjacent(0, 1)
    assert Cycle((2, 0, 1)).vertex_set == frozenset({0, 1, 2})


def test_record_hashing():
    assert hash(Cycle((0, 1, 2))) == hash(Cycle(order=(0, 1, 2)))
    assert hash(Cycle((0, 1, 2))) == hash(((0, 1, 2),))
    assert len({Cycle((0, 1, 2)), Cycle((0, 1, 2)), Cycle((0, 2, 1))}) == 2
    assert hash(Extension("II", 5, 3, x=4)) == hash(Extension("II", 5, 3, 4))
    assert len({Extension("I", 5, 3), Extension("I", 5, 3), Extension("I", 5, 4)}) == 2
    with pytest.raises(TypeError):
        hash(triangle())


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Extension("IV", 1, 2), "unknown extension kind 'IV'"),
        (lambda: Extension("II", 1, 2), "kind II needs the intermediate vertex x"),
        (lambda: Extension("III", 1, 2, x=3), "kind III needs the second anchor y"),
        (lambda: Cycle((1, 2)), "a cycle needs at least three vertices"),
        (lambda: Cycle((1, 2, 1)), "repeated vertex 1 in cycle"),
    ],
)
def test_record_validation(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


def test_verdict_key_order():
    v = verdict(ConditionReport(False, "bad"))
    assert not v.all_ok and verdict(OK).all_ok
    assert list(v.to_json_obj()) == [
        "all_ok",
        "vertex_persistence",
        "finite_cuts",
        "nested_msets",
        "edge_persistence",
        "cut_agreement",
    ]
    assert v.to_json_obj()["cut_agreement"] == {"ok": False, "detail": "bad"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh import pays for every module it loads; the records need
    neither of these, and the stdlib modules the CLI uses load neither."""
    code = (
        "import sys; before = set(sys.modules); import hamext.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["ham", "check"])
def test_finite_commands_load_no_infinite_construction(tmp_path, command):
    """ham and check on a finite graph import none of the infinite
    construction, the separator structure and the oracle."""
    graph = tmp_path / "g.json"
    graph.write_text(
        '{"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]]}'
    )
    args = ["--input", str(graph)] + (["--what", "star"] if command == "check" else [])
    code = (
        "import sys; from hamext.cli import main; code = main(sys.argv[1:]); "
        "print(sorted({'hamext.infinite', 'hamext.structure', 'hamext.oracle'} & set(sys.modules))); "
        "sys.exit(code)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, command, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
