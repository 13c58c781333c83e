"""Exit codes, payload shapes, and file side effects of the CLI."""

import json

import pytest

from hamext import cli, extension
from hamext.errors import InvariantViolation
from hamext.families import gen_G, gen_H
from hamext.graphcore import (
    Cycle,
    cycle_to_json_obj,
    graph_from_json_obj,
    graph_to_json_obj,
    verify_cycle,
)
from hamext.infinite import SequenceTrace
from test_extension import reference_steps, relabelled_G


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture()
def g42_file(tmp_path, capsys):
    path = tmp_path / "g42.json"
    code, _ = run(
        capsys, "gen", "--family", "Gqn", "--q", "4", "--n", "2",
        "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture()
def gz2_file(tmp_path, capsys):
    path = tmp_path / "gz2.json"
    code, _ = run(capsys, "gen", "--family", "GZn", "--n", "2", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture()
def claw_file(tmp_path):
    path = tmp_path / "claw.json"
    path.write_text(
        json.dumps({"vertices": [0, 1, 2, 3], "edges": [[0, 1], [0, 2], [0, 3]]})
    )
    return path


# ---------------------------------------------------------------------------
# gen


def test_gen_finite_round_trips(capsys):
    code, payload = run(capsys, "gen", "--family", "Gqn", "--q", "4", "--n", "2")
    assert code == 0
    G = graph_from_json_obj(payload)
    want = gen_G(4, 2)
    assert G.vertices == want.vertices
    assert set(G.edges()) == set(want.edges())


def test_gen_h_family(capsys):
    code, payload = run(capsys, "gen", "--family", "H2qn", "--q", "2", "--n", "6")
    assert code == 0
    want = gen_H(2, 6)
    assert graph_from_json_obj(payload).vertices == want.vertices


def test_gen_infinite_emits_descriptor(capsys):
    code, payload = run(capsys, "gen", "--family", "GZn", "--n", "3")
    assert code == 0
    assert payload == {"family": "GZn", "params": {"n": 3}}


def test_gen_infinite_rejects_q_and_dot(capsys, tmp_path):
    code, _ = run(capsys, "gen", "--family", "GZn", "--n", "2", "--q", "3")
    assert code == 2
    code, _ = run(
        capsys, "gen", "--family", "HZn", "--n", "6",
        "--dot", str(tmp_path / "x.dot"),
    )
    assert code == 2


def test_gen_rand_is_seed_deterministic(capsys):
    code1, p1 = run(capsys, "gen", "--family", "rand", "--n", "12", "--seed", "7")
    code2, p2 = run(capsys, "gen", "--family", "rand", "--n", "12", "--seed", "7")
    assert code1 == code2 == 0
    assert p1 == p2
    code3, p3 = run(capsys, "gen", "--family", "rand", "--n", "12", "--seed", "8")
    assert code3 == 0
    assert p3 != p1


def test_gen_rand_requires_seed(capsys):
    code, payload = run(capsys, "gen", "--family", "rand", "--n", "12")
    assert code == 2
    assert "seed" in payload["error"]


def test_gen_dot_output(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, _ = run(
        capsys, "gen", "--family", "Gqn", "--q", "3", "--n", "2",
        "--dot", str(dot),
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph G {")
    assert "--" in text


def test_gen_out_matches_stdout(capsys, tmp_path):
    out = tmp_path / "g.json"
    code, payload = run(
        capsys, "gen", "--family", "Gqn", "--q", "5", "--n", "2",
        "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text()) == payload


# ---------------------------------------------------------------------------
# check


def test_check_star_holds(capsys, g42_file):
    code, payload = run(capsys, "check", "--input", str(g42_file), "--what", "star")
    assert code == 0
    assert payload["holds"] is True


def test_check_star_claw_witness(capsys, claw_file):
    code, payload = run(capsys, "check", "--input", str(claw_file), "--what", "star")
    assert code == 1
    assert payload["holds"] is False
    assert payload["degree_sum"] == 2
    assert payload["union_size"] == 4


def test_check_clawfree_finds_claw(capsys, claw_file):
    code, payload = run(
        capsys, "check", "--input", str(claw_file), "--what", "clawfree"
    )
    assert code == 1
    assert payload["claw_free"] is False
    assert payload["witness"]["center"] == 0


def test_check_chain_holds(capsys, g42_file):
    code, payload = run(
        capsys, "check", "--input", str(g42_file), "--what", "unglkette"
    )
    assert code == 0
    assert payload["holds"] is True


def test_check_missing_file(capsys, tmp_path):
    code, payload = run(
        capsys, "check", "--input", str(tmp_path / "nope.json"), "--what", "star"
    )
    assert code == 2
    assert payload["kind"] == "input"


def test_check_rejects_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, payload = run(capsys, "check", "--input", str(bad), "--what", "star")
    assert code == 2
    assert "JSON" in payload["error"]


# ---------------------------------------------------------------------------
# ham


def test_ham_produces_hamilton_cycle(capsys, g42_file):
    code, payload = run(capsys, "ham", "--input", str(g42_file))
    assert code == 0
    assert payload["hamiltonian"] is True
    assert payload["length"] == 8
    G = gen_G(4, 2)
    assert verify_cycle(G, Cycle(tuple(payload["cycle"]))).is_hamiltonian


def test_ham_seed_cycle_and_trace(capsys, g42_file, tmp_path):
    trace_file = tmp_path / "steps.json"
    code, payload = run(
        capsys, "ham", "--input", str(g42_file),
        "--seed-cycle", "0,1,2", "--trace", str(trace_file),
    )
    assert code == 0
    trace = json.loads(trace_file.read_text())
    assert trace["initial"] == [0, 1, 2]
    assert trace["steps"]
    assert trace["steps"][-1]["cycle"] == payload["cycle"]
    for step in trace["steps"]:
        assert step["extension"]["kind"] in ("I", "II", "III")


def test_ham_trace_matches_rescan_loop(capsys, tmp_path):
    G = relabelled_G(40, 3, seed=27)
    graph_file = tmp_path / "g403.json"
    graph_file.write_text(json.dumps(graph_to_json_obj(G)))
    trace_file = tmp_path / "steps.json"
    code, _ = run(capsys, "ham", "--input", str(graph_file), "--trace", str(trace_file))
    assert code == 0
    C0 = extension.find_initial_cycle(G)
    expected = {
        "graph": graph_to_json_obj(G),
        "initial": cycle_to_json_obj(C0),
        "steps": [
            {"extension": e.to_json_obj(), "cycle": cycle_to_json_obj(C)}
            for e, C in reference_steps(G, C0)
        ],
    }
    assert trace_file.read_text() == json.dumps(expected, sort_keys=True, indent=1) + "\n"


def test_ham_rejects_bad_seed(capsys, g42_file):
    code, payload = run(
        capsys, "ham", "--input", str(g42_file), "--seed-cycle", "0,1,99"
    )
    assert code == 2
    assert payload["kind"] == "input"


def test_ham_dot_highlights_cycle(capsys, g42_file, tmp_path):
    dot = tmp_path / "ham.dot"
    code, _ = run(capsys, "ham", "--input", str(g42_file), "--dot", str(dot))
    assert code == 0
    assert "penwidth" in dot.read_text()


# ---------------------------------------------------------------------------
# structure


def test_structure_decomposes_gz2(capsys, gz2_file):
    code, payload = run(
        capsys, "structure", "--input", str(gz2_file),
        "--cycle", "6,2,0,4,5,1,3,7",
    )
    assert code == 0
    assert payload["k"] == 2
    assert payload["parts"] == [[8, 9], [10, 11]]
    assert payload["blocker"] == [8, 9, 10, 11]
    assert payload["finite_component"] == [0, 1, 2, 3, 4, 5, 6, 7]


def test_structure_rejects_non_cycle(capsys, gz2_file):
    code, payload = run(
        capsys, "structure", "--input", str(gz2_file), "--cycle", "0,1"
    )
    assert code == 2
    assert payload["kind"] == "input"


# ---------------------------------------------------------------------------
# infham and verify


def test_infham_trace_verifies(capsys, gz2_file, tmp_path):
    out = tmp_path / "trace.json"
    code, payload = run(
        capsys, "infham", "--descriptor", str(gz2_file),
        "--depth", "2", "--window", "5", "--out", str(out),
    )
    assert code == 0
    assert payload["depth"] == 2
    assert [len(c) for c in payload["cycles"]] == [8, 24, 40]
    assert payload["window_half_width"] == 5
    assert payload["stable_edges"]
    # the stored file is the stdout payload and re-verifies
    assert json.loads(out.read_text()) == payload
    code, verdict = run(capsys, "verify", "--trace", str(out))
    assert code == 0
    assert verdict["all_ok"] is True


def test_infham_rejects_bad_depth(capsys, gz2_file):
    code, payload = run(
        capsys, "infham", "--descriptor", str(gz2_file), "--depth", "0"
    )
    assert code == 2
    assert payload["kind"] == "input"


def test_infham_is_bit_identical(capsys, gz2_file):
    code1 = cli.main(
        ["infham", "--descriptor", str(gz2_file), "--depth", "2"]
    )
    out1 = capsys.readouterr().out
    code2 = cli.main(
        ["infham", "--descriptor", str(gz2_file), "--depth", "2"]
    )
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_flags_corrupted_trace(capsys, gz2_file, tmp_path):
    out = tmp_path / "trace.json"
    code, _ = run(
        capsys, "infham", "--descriptor", str(gz2_file),
        "--depth", "2", "--out", str(out),
    )
    assert code == 0
    obj = json.loads(out.read_text())
    victim = obj["witnesses"][1][0]["piece"][3]
    obj["witnesses"][1][0]["excluded"].append(victim)
    out.write_text(json.dumps(obj))
    code, verdict = run(capsys, "verify", "--trace", str(out))
    assert code == 1
    assert verdict["all_ok"] is False
    assert verdict["cut_agreement"]["ok"] is False


def test_verify_rejects_malformed_trace(capsys, tmp_path):
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps({"cycles": []}))
    code, payload = run(capsys, "verify", "--trace", str(bad))
    assert code == 2
    assert payload["kind"] == "input"


def test_invariant_violation_maps_to_exit_3(capsys, gz2_file, monkeypatch):
    def boom(G, depth):
        raise InvariantViolation("forced for the exit-code test")

    monkeypatch.setattr(cli, "hamilton_sequence", boom)
    code, payload = run(
        capsys, "infham", "--descriptor", str(gz2_file), "--depth", "1"
    )
    assert code == 3
    assert payload["kind"] == "invariant"


def test_invariant_violation_reports_context(capsys, g42_file, monkeypatch):
    def boom(G, C, v):
        raise InvariantViolation(
            "forced for the context test",
            cycle=C.order,
            target=v,
            anchors=frozenset({3, 1, 2}),
            edges={(2, 3), (0, 1)},
            nested={"path": (0, 1)},
        )

    monkeypatch.setattr(extension, "find_extension", boom)
    code, payload = run(capsys, "ham", "--input", str(g42_file))
    assert code == 3
    assert payload["kind"] == "invariant"
    assert payload["error"] == "forced for the context test"
    assert payload["context"] == {
        "cycle": [0, 1, 2],
        "target": 3,
        "anchors": [1, 2, 3],
        "edges": [[0, 1], [2, 3]],
        "nested": {"path": [0, 1]},
    }


def test_infham_payload_reparses_as_trace(capsys, gz2_file):
    code, payload = run(
        capsys, "infham", "--descriptor", str(gz2_file),
        "--depth", "2", "--window", "4",
    )
    assert code == 0
    trace = SequenceTrace.from_json_obj(payload)
    assert trace.depth == 2


# ---------------------------------------------------------------------------
# oracle


def test_oracle_confirms_hamiltonicity(capsys, g42_file):
    code, payload = run(capsys, "oracle", "--input", str(g42_file))
    assert code == 0
    assert payload["hamiltonian"] is True
    G = gen_G(4, 2)
    assert verify_cycle(G, Cycle(tuple(payload["cycle"]))).is_hamiltonian


def test_oracle_reports_no_cycle(capsys, claw_file):
    code, payload = run(capsys, "oracle", "--input", str(claw_file))
    assert code == 1
    assert payload["hamiltonian"] is False
    assert payload["cycle"] is None


# ---------------------------------------------------------------------------
# argument plumbing


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["bogus"]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["gen", "--family", "Gqn", "--wat", "1"]) == 2
    capsys.readouterr()


def test_missing_required_flag_exits_2(capsys):
    assert cli.main(["check", "--what", "star"]) == 2
    capsys.readouterr()
