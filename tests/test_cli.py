"""Exit codes, payload shapes, and file side effects of the CLI."""

import hashlib
import json
import re

import pytest

from hamext import cli, extension, graphcore, infinite
from hamext.errors import InvariantViolation
from hamext.families import gen_G, gen_G_inf, gen_H, unzigzag
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


@pytest.mark.parametrize(
    "edges",
    [
        [5],
        [[0, [1]]],
        [[0, {"a": 1}]],
        [[0, True], [1, 2], [0, 2]],
        [[0, 1.0], [1, 2], [0, 2]],
    ],
    ids=["not-a-pair", "list-endpoint", "object-endpoint", "bool-endpoint", "float-endpoint"],
)
@pytest.mark.parametrize("command", [["check", "--what", "star"], ["ham"]], ids=["check", "ham"])
def test_bad_edge_entries_are_refused(capsys, tmp_path, command, edges):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [0, 1, 2], "edges": edges}))
    code, payload = run(capsys, command[0], "--input", str(path), *command[1:])
    assert code == 2
    assert payload["kind"] == "input"


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


def test_ham_trace_golden(capsys, tmp_path):
    # sha256 of the `ham --trace` file on the generated G(9, 20): every
    # step's extension and cycle, pinned byte for byte
    graph_file = tmp_path / "g920.json"
    code, _ = run(
        capsys, "gen", "--family", "Gqn", "--q", "9", "--n", "20",
        "--out", str(graph_file),
    )
    assert code == 0
    trace_file = tmp_path / "steps.json"
    code, _ = run(capsys, "ham", "--input", str(graph_file), "--trace", str(trace_file))
    assert code == 0
    assert hashlib.sha256(trace_file.read_bytes()).hexdigest() == (
        "8ed941f6df4ba5411b73eaf4ad7ac4b0386cf4d01b6a2d8a9d6c0447603de4f0"
    )


def test_ham_refuses_two_labels_for_one_vertex(capsys, tmp_path):
    # "0" and "00" both name vertex 0; the second label used to replace
    # the first, and --dot wrote only it
    graph_file = tmp_path / "dup.json"
    graph_file.write_text(json.dumps({
        "vertices": [0, 1, 2],
        "edges": [[0, 1], [1, 2], [0, 2]],
        "labels": {"0": "a", "00": "b", "1": "c", "2": "d"},
    }))
    dot = tmp_path / "ham.dot"
    code, payload = run(capsys, "ham", "--input", str(graph_file), "--dot", str(dot))
    assert code == 2
    assert payload == {
        "error": "label key '00' is not a canonical integer id", "kind": "input"
    }
    assert not dot.exists()


def test_ham_refuses_a_label_that_is_not_a_string(capsys, tmp_path):
    # str(None) used to be written as the label "None"
    graph_file = tmp_path / "null.json"
    graph_file.write_text(json.dumps({
        "vertices": [0, 1, 2],
        "edges": [[0, 1], [1, 2], [0, 2]],
        "labels": {"0": None},
    }))
    dot = tmp_path / "ham.dot"
    code, payload = run(capsys, "ham", "--input", str(graph_file), "--dot", str(dot))
    assert code == 2
    assert payload == {
        "error": "label of vertex 0 must be a string, got None", "kind": "input"
    }
    assert not dot.exists()


def test_ham_dot_keeps_a_hostile_label_inside_its_quotes(capsys, tmp_path):
    # unescaped, the label closed its quote and added the edge 9 -- 8
    graph_file = tmp_path / "hostile.json"
    graph_file.write_text(json.dumps({
        "vertices": [0, 1, 2],
        "edges": [[0, 1], [1, 2], [0, 2]],
        "labels": {"0": 'a"]; 9 -- 8; x [label="b'},
    }))
    dot = tmp_path / "ham.dot"
    code, _ = run(capsys, "ham", "--input", str(graph_file), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert '  0 [label="a\\"]; 9 -- 8; x [label=\\"b"];' in text.splitlines()
    # the edges a DOT reader finds once the quoted strings are taken out
    statements = re.sub(r'"(?:[^"\\]|\\.)*"', '""', text)
    assert re.findall(r"(\d+) -- (\d+)", statements) == [("0", "1"), ("0", "2"), ("1", "2")]


def test_ham_rejects_bad_seed(capsys, g42_file):
    code, payload = run(
        capsys, "ham", "--input", str(g42_file), "--seed-cycle", "0,1,99"
    )
    assert code == 2
    assert payload["kind"] == "input"


def test_ham_refuses_a_seed_vertex_outside_the_graph(capsys, tmp_path):
    path = tmp_path / "g52.json"
    code, _ = run(
        capsys, "gen", "--family", "Gqn", "--q", "5", "--n", "2",
        "--out", str(path),
    )
    assert code == 0
    code, payload = run(capsys, "ham", "--input", str(path), "--seed-cycle", "99,0,1")
    assert (code, payload) == (2, {
        "error": "seed cycle invalid: vertex 99 not in graph",
        "kind": "input",
    })


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


# the whole `structure` payload, each infinite piece as the decomposition
# ball holds it, and the md5 of the printed text where one is given
STRUCTURE_PAYLOADS = {
    (2, "0,2,1,3"): (
        {
            "blocker": [4, 5, 6, 7],
            "finite_component": [0, 1, 2, 3],
            "infinite_pieces": [
                [8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29],
                [10, 11, 14, 15, 18, 19, 22, 23, 26, 27, 30, 31],
            ],
            "k": 2,
            "parts": [[4, 5], [6, 7]],
            "script_S": [4, 5, 6, 7],
        },
        "242d82d000b2e7238eebc3a14802d2a5",
    ),
    (2, "6,2,0,4,5,1,3,7"): (
        {
            "blocker": [8, 9, 10, 11],
            "finite_component": [0, 1, 2, 3, 4, 5, 6, 7],
            "infinite_pieces": [
                [12, 13, 16, 17, 20, 21, 24, 25, 28, 29, 32, 33],
                [14, 15, 18, 19, 22, 23, 26, 27, 30, 31, 34, 35],
            ],
            "k": 2,
            "parts": [[8, 9], [10, 11]],
            "script_S": [8, 9, 10, 11],
        },
        None,
    ),
    (3, "0,3,1,4,2,5"): (
        {
            "blocker": [6, 7, 8, 9, 10, 11],
            "finite_component": [0, 1, 2, 3, 4, 5],
            "infinite_pieces": [
                [12, 13, 14, 18, 19, 20, 24, 25, 26, 30, 31, 32, 36, 37, 38, 42, 43, 44],
                [15, 16, 17, 21, 22, 23, 27, 28, 29, 33, 34, 35, 39, 40, 41, 45, 46, 47],
            ],
            "k": 2,
            "parts": [[6, 7, 8], [9, 10, 11]],
            "script_S": [6, 7, 8, 9, 10, 11],
        },
        None,
    ),
}


@pytest.mark.parametrize("n, cycle", sorted(STRUCTURE_PAYLOADS))
def test_structure_payload_golden(capsys, tmp_path, n, cycle):
    desc = tmp_path / f"gz{n}.json"
    assert cli.main(["gen", "--family", "GZn", "--n", str(n), "--out", str(desc)]) == 0
    capsys.readouterr()
    code = cli.main(["structure", "--input", str(desc), "--cycle", cycle])
    out = capsys.readouterr().out
    want, digest = STRUCTURE_PAYLOADS[(n, cycle)]
    assert code == 0
    assert json.loads(out) == want
    if digest is not None:
        assert hashlib.md5(out.encode()).hexdigest() == digest


def test_structure_rejects_non_cycle(capsys, gz2_file):
    code, payload = run(
        capsys, "structure", "--input", str(gz2_file), "--cycle", "0,1"
    )
    assert code == 2
    assert payload["kind"] == "input"


def test_structure_refuses_hz_claw(capsys, tmp_path):
    desc = tmp_path / "hz2.json"
    assert cli.main(["gen", "--family", "HZn", "--n", "2", "--out", str(desc)]) == 0
    capsys.readouterr()
    code, payload = run(
        capsys, "structure", "--input", str(desc), "--cycle", "0,4,1,5"
    )
    assert code == 2
    assert payload == {
        "error": "graph has a claw at 0 with leaves (1, 2, 3)",
        "kind": "input",
    }


# ---------------------------------------------------------------------------
# infham and verify


def test_infham_trace_verifies(capsys, gz2_file, tmp_path):
    out = tmp_path / "trace.json"
    code = cli.main([
        "infham", "--descriptor", str(gz2_file),
        "--depth", "2", "--window", "5", "--out", str(out),
    ])
    stdout = capsys.readouterr().out
    payload = json.loads(stdout)
    assert code == 0
    assert out.read_bytes() == stdout.encode()
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


@pytest.mark.parametrize("family", ["GZn", "HZn"])
def test_infham_refuses_negative_window_before_building(
    capsys, tmp_path, monkeypatch, family
):
    # HZ2 is refused by the construction as well; the flag is read first
    desc = tmp_path / "desc.json"
    assert cli.main(["gen", "--family", family, "--n", "2", "--out", str(desc)]) == 0
    capsys.readouterr()

    def unreachable(*args):
        raise AssertionError("the construction ran")

    # infham imports the construction when it runs
    monkeypatch.setattr(infinite, "hamilton_sequence", unreachable)
    out = tmp_path / "trace.json"
    code, payload = run(
        capsys, "infham", "--descriptor", str(desc), "--depth", "30",
        "--window", "-1", "--out", str(out),
    )
    assert code == 2
    assert payload == {"error": "--window must be non-negative", "kind": "input"}
    assert not out.exists()


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


@pytest.mark.parametrize(
    "dropped, names", [(("left", "right"), "[]"), (("right",), "['left']")]
)
def test_verify_refuses_a_trace_missing_an_end(
    capsys, gz2_file, tmp_path, dropped, names
):
    # both copies verified all_ok while the nesting check read only the
    # ends the trace named
    out = tmp_path / "trace.json"
    code, _ = run(
        capsys, "infham", "--descriptor", str(gz2_file),
        "--depth", "6", "--out", str(out),
    )
    assert code == 0
    obj = json.loads(out.read_text())
    for name in dropped:
        del obj["end_selectors"][name]
    out.write_text(json.dumps(obj))
    code, payload = run(capsys, "verify", "--trace", str(out))
    assert (code, payload) == (2, {
        "error": f"trace tracks ends {names}, the graph has ends ['left', 'right']",
        "kind": "input",
    })


def test_verify_fails_a_moved_crossing_edge(capsys, gz2_file, tmp_path):
    # the CI exit-code step's case: the first crossing edge of iteration
    # 10, part 0, replaced by another edge of cycle 10, the cycle that
    # iteration built; that cycle crosses the cut only in the two stored
    # edges, so the replacement is no boundary edge
    out = tmp_path / "trace.json"
    code, _ = run(
        capsys, "infham", "--descriptor", str(gz2_file),
        "--depth", "12", "--out", str(out),
    )
    assert code == 0
    obj = json.loads(out.read_text())
    crossing, order = obj["witnesses"][9][0]["crossing_edges"], obj["cycles"][10]
    crossing[0] = next(
        e for e in map(sorted, zip(order, order[1:] + order[:1])) if e not in crossing
    )
    out.write_text(json.dumps(obj))
    code, verdict = run(capsys, "verify", "--trace", str(out))
    assert code == 1
    assert verdict["finite_cuts"] == {
        "ok": False,
        "detail": "stored crossing edges of iteration 10 part 0 are not boundary edges",
    }


def test_verify_rejects_malformed_trace(capsys, tmp_path):
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps({"cycles": []}))
    code, payload = run(capsys, "verify", "--trace", str(bad))
    assert code == 2
    assert payload["kind"] == "input"


def test_verify_reads_through_the_trace_reader(capsys, tmp_path):
    # verify parses with SequenceTrace.from_json, so its refusals are the
    # reader's own
    bad = tmp_path / "t.json"
    bad.write_text("{oops")
    code, payload = run(capsys, "verify", "--trace", str(bad))
    assert code == 2
    assert payload["error"].startswith("trace is not valid JSON: ")
    bad.write_text("[1, 2]")
    code, payload = run(capsys, "verify", "--trace", str(bad))
    assert code == 2
    assert payload["error"] == "trace JSON must be an object"


# each subcommand that reads a file, with the flags it needs besides it
FILE_READERS = {
    "check": ["check", "--what", "star", "--input"],
    "ham": ["ham", "--input"],
    "structure": ["structure", "--cycle", "0,2,1,3", "--input"],
    "infham": ["infham", "--depth", "2", "--descriptor"],
    "verify": ["verify", "--trace"],
    "oracle": ["oracle", "--input"],
}


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{\x00}\x00", b"[" * 200_000],
    ids=["not-utf-8", "nested-too-deep"],
)
@pytest.mark.parametrize("command", sorted(FILE_READERS))
def test_undecodable_files_are_input_errors(capsys, tmp_path, command, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    code, payload = run(capsys, *FILE_READERS[command], str(path))
    assert code == 2
    assert payload["kind"] == "input"


_DROP = object()


@pytest.mark.parametrize(
    "field, value",
    [
        ("end_selectors", {"left": [5, 0, 0], "right": [1, 1, 1]}),
        ("end_selectors", {"left": [-1, -1, -1], "right": [1, 1, 1]}),
        ("end_selectors", [[0, 0, 0]]),
        ("blockers", None),
        # a dotted field names a nested entry; each case breaks one rule
        # of the trace schema and exited 0 before that rule was checked
        ("witnesses.0.1.j", True),
        ("ks.0", "2"),
        ("witnesses.0.0.j", 1),
        ("ks.1", 3),
        ("depth", 4),
        ("depth", _DROP),
        # crossing edges as floats, booleans or triples passed as ids
        ("witnesses.0.0.crossing_edges", [[4.0, 9.0], [5.0, 8.0]]),
        ("witnesses.0.0.crossing_edges", [[True, 9], [5, 8]]),
        ("witnesses.0.0.crossing_edges", [[4, 9, 5], [5, 8]]),
    ],
)
def test_verify_rejects_hostile_trace_fields(capsys, gz2_file, tmp_path, field, value):
    out = tmp_path / "trace.json"
    code, _ = run(
        capsys, "infham", "--descriptor", str(gz2_file),
        "--depth", "3", "--out", str(out),
    )
    assert code == 0
    obj = json.loads(out.read_text())
    if value is None:
        obj["blockers"][1][0] = "x"
    else:
        *path, last = field.split(".")
        target = obj
        for key in path:
            target = target[int(key) if isinstance(target, list) else key]
        key = int(last) if isinstance(target, list) else last
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
    out.write_text(json.dumps(obj))
    code, payload = run(capsys, "verify", "--trace", str(out))
    assert code == 2
    assert payload["kind"] == "input"


@pytest.mark.parametrize(
    "i, old, new, code, detail",
    [
        # each replacement verified all_ok before blockers were checked
        (0, 9, 2, 1, "blocker of iteration 1 meets cycle 0 at vertex 2"),
        (2, 40, 2, 1, "blocker of iteration 3 meets cycle 2 at vertex 2"),
        (2, 41, -1, 2, None),
        (2, 42, 5, 1, "blocker of iteration 3 meets cycle 2 at vertex 5"),
        (2, 43, 10**6, 1,
         "blocker of iteration 3 lets rays escape from cycle vertex 4"),
        # an added vertex leaves the blocker blocking but not minimal
        (0, None, 12, 1, "blocker vertex 12 of iteration 1 is removable"),
    ],
)
def test_verify_rejects_changed_blocker(capsys, gz2_file, tmp_path, i, old, new, code, detail):
    out = tmp_path / "trace.json"
    code0, _ = run(
        capsys, "infham", "--descriptor", str(gz2_file),
        "--depth", "3", "--out", str(out),
    )
    assert code0 == 0
    obj = json.loads(out.read_text())
    blocker = obj["blockers"][i]
    if old is None:
        blocker.append(new)
    else:
        blocker[blocker.index(old)] = new
    out.write_text(json.dumps(obj))
    got, payload = run(capsys, "verify", "--trace", str(out))
    assert got == code
    if detail is None:
        assert payload["kind"] == "input"
    else:
        assert payload["all_ok"] is False
        assert payload["finite_cuts"] == {"ok": False, "detail": detail}


def _gz2_depth3_trace(capsys, gz2_file, tmp_path):
    out = tmp_path / "trace.json"
    code, _ = run(
        capsys, "infham", "--descriptor", str(gz2_file),
        "--depth", "3", "--out", str(out),
    )
    assert code == 0
    return out, json.loads(out.read_text())


@pytest.mark.parametrize("i", [0, 1, 2])
def test_verify_rejects_k0_outside_next_cycle(capsys, gz2_file, tmp_path, i):
    # the extra K0 vertex only widens the foreign set of the membership
    # search, so every other clause still holds
    out, obj = _gz2_depth3_trace(capsys, gz2_file, tmp_path)
    on = set(obj["cycles"][i + 1])
    extra = min(v for v in range(10**3) if v not in on)
    obj["k0s"][i] = sorted(obj["k0s"][i] + [extra])
    out.write_text(json.dumps(obj))
    code, payload = run(capsys, "verify", "--trace", str(out))
    assert code == 1
    assert payload["finite_cuts"] == {
        "ok": False,
        "detail": f"cycle {i + 1} misses [{extra}] of the blocker, K0 and "
        f"third neighbourhood of iteration {i + 1}",
    }


def test_verify_rejects_blocker_dropped_from_next_cycle(capsys, gz2_file, tmp_path):
    # cut the last cycle back to the fibers before the right-hand blocker
    # of iteration 3: still a cycle of G that holds cycle 2, but without
    # that blocker fiber
    out, obj = _gz2_depth3_trace(capsys, gz2_file, tmp_path)
    G = gen_G_inf(2)
    last = obj["cycles"][3]
    right = max(unzigzag(s // 2) for s in obj["blockers"][2])
    keep = [v for v in last if unzigzag(v // 2) < right]
    ends = [v for v in keep if unzigzag(v // 2) == right - 1]
    assert len(ends) == 2
    start = last.index(ends[0])
    walk = last[start:] + last[:start]
    if unzigzag(walk[1] // 2) >= right:
        walk = [walk[0]] + walk[:0:-1]
    cut = walk[: walk.index(ends[1]) + 1]
    assert set(cut) == set(keep) and set(obj["cycles"][2]) <= set(cut)
    assert verify_cycle(G, Cycle(tuple(cut))).ok
    obj["cycles"][3] = cut
    out.write_text(json.dumps(obj))
    code, payload = run(capsys, "verify", "--trace", str(out))
    assert code == 1
    assert payload["finite_cuts"]["ok"] is False
    assert payload["finite_cuts"]["detail"].startswith("cycle 3 misses [")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("depth", [3, 12, 28])
def test_infham_refuses_hz_claw_before_saturation(capsys, tmp_path, n, depth):
    desc = tmp_path / "hz.json"
    assert cli.main(["gen", "--family", "HZn", "--n", str(n), "--out", str(desc)]) == 0
    capsys.readouterr()
    code, payload = run(
        capsys, "infham", "--descriptor", str(desc), "--depth", str(depth)
    )
    assert code == 2
    assert payload == {
        "error": "graph has a claw at 0 with leaves (1, 2, 3)",
        "kind": "input",
    }


@pytest.mark.parametrize("family", [[1, 2], {"a": 1}])
def test_non_string_family_is_refused(capsys, gz2_file, tmp_path, family):
    # both ended in an unhashable-type traceback with exit 1
    trace = tmp_path / "trace.json"
    code, _ = run(
        capsys, "infham", "--descriptor", str(gz2_file),
        "--depth", "3", "--out", str(trace),
    )
    assert code == 0
    obj = json.loads(trace.read_text())
    obj["descriptor"]["family"] = family
    trace.write_text(json.dumps(obj))
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps({"family": family, "params": {"n": 2}}))
    want = {
        "error": f"descriptor family must be a string, got {family!r}",
        "kind": "input",
    }
    for argv in (
        ("verify", "--trace", str(trace)),
        ("infham", "--descriptor", str(desc), "--depth", "3"),
    ):
        assert run(capsys, *argv) == (2, want)


def test_gen_huge_complete_fibers(capsys):
    code, payload = run(capsys, "gen", "--family", "GZn", "--n", "1000000000")
    assert code == 0
    assert payload == {"family": "GZn", "params": {"n": 1000000000}}


@pytest.mark.parametrize("family", ["Gqn", "H2qn"])
def test_gen_refuses_finite_graphs_over_the_budget(capsys, family):
    code, payload = run(
        capsys, "gen", "--family", family, "--q", "100000000", "--n", "100"
    )
    assert code == 2
    assert payload["kind"] == "input" and "at most 1000000" in payload["error"]


def test_infham_refuses_a_region_over_the_budget(capsys, gz2_file, monkeypatch):
    monkeypatch.setattr(graphcore, "MAX_REGION_NEIGHBORS", 200)
    code, payload = run(
        capsys, "infham", "--descriptor", str(gz2_file), "--depth", "3"
    )
    assert code == 2
    assert payload["kind"] == "input"
    assert "over 200 neighbour entries" in payload["error"]


def test_infham_window_is_clipped_to_the_fibers_the_trace_reaches(
    capsys, gz2_file, monkeypatch
):
    # GZ2 at depth 2 reaches fiber 10 and no farther, so every wider
    # window gives the stable edges of --window 10, and a window of 10**8
    # fibers is never built
    built = []
    window = cli.fiber_window
    monkeypatch.setattr(
        cli, "fiber_window", lambda desc, w: built.append(w) or window(desc, w)
    )
    outs = {}
    for w in (3, 10, 11, 40, 10**8):
        argv = ["infham", "--descriptor", str(gz2_file), "--depth", "2"]
        code, payload = run(capsys, *argv, "--window", str(w))
        assert code == 0 and payload["window_half_width"] == w
        outs[w] = payload["stable_edges"]
    assert built == [3, 10, 10, 10, 10]
    assert outs[10] == outs[11] == outs[40] == outs[10**8] != outs[3]
    trace = infinite.hamilton_sequence(gen_G_inf(2), 2)
    wide = infinite.stable_limit(trace, window(trace.descriptor, 40))
    assert outs[10**8] == [list(e) for e in sorted(wide)]


def test_infham_refuses_a_trace_over_the_budget(capsys, gz2_file, monkeypatch):
    trace = infinite.hamilton_sequence(gen_G_inf(2), 5)
    stored = sum(map(len, trace.cycles)) + sum(map(len, trace.k0s))
    assert graphcore.MAX_TRACE_IDS == infinite.MAX_TRACE_IDS > 20 * stored
    # a budget the depth-5 trace meets exactly
    monkeypatch.setattr(infinite, "MAX_TRACE_IDS", stored)
    argv = ["infham", "--descriptor", str(gz2_file)]
    code, payload = run(capsys, *argv, "--depth", "5")
    assert code == 0 and len(payload["cycles"]) == 6
    code, payload = run(capsys, *argv, "--depth", "6")
    assert code == 2
    assert payload == {
        "error": f"a trace of depth 6 would store more than {stored} vertex ids "
        "in its cycles and K0 sets, from iteration 5",
        "kind": "input",
    }


def test_invariant_violation_maps_to_exit_3(capsys, gz2_file, monkeypatch):
    def boom(G, depth):
        raise InvariantViolation("forced for the exit-code test")

    # infham imports the construction when it runs
    monkeypatch.setattr(infinite, "hamilton_sequence", boom)
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


@pytest.mark.parametrize(
    "method, stage", [("stage_absorb_trees", "C"), ("stage_absorb_separator", "D")]
)
def test_invariant_violation_names_its_stage(capsys, gz2_file, monkeypatch, method, stage):
    # a violation raised inside a stage of the enlargement reaches the
    # exit-3 payload with that stage added to its own context
    def boom(self, cur):
        raise InvariantViolation("forced inside a stage", where=method)

    monkeypatch.setattr(infinite._CutBuilder, method, boom)
    code, payload = run(
        capsys, "infham", "--descriptor", str(gz2_file), "--depth", "1"
    )
    assert code == 3
    assert payload["error"] == "forced inside a stage"
    assert payload["context"] == {"where": method, "stage": stage}


# sha256 of the stdout of `infham --depth D --window 5` and of `verify`
# on that trace; any refactor of the construction or the checker must
# leave both byte-identical
GOLDEN_DIGESTS = {
    (2, 6): (
        "fecaeee6e96b332bceb0b94c0b2b14aa2e12f37aa751d720e6ca8a81d76166bd",
        "392f2e45d7a896ffb8ac48131eff0bc01c0a789ba87daea607470a8a2919669c",
    ),
    (2, 20): (
        "4130005283b0c81ec4831fb275e57be2e4573ac66c76c1d649a8038afa7d6e3b",
        "1ed8990ef30a49ddac6747536d51ca6a52cdb5ac9a08da06c0a54169c9e49245",
    ),
    (3, 6): (
        "16189013d936a8369eff78d2b3b219b5feca905b0f0bb48524708de4df25d9ce",
        "0910f6d02d01751311bffeba008e42e19fff5dda8d8236b99b6d9ad51a7f5eb6",
    ),
    (3, 20): (
        "74c167bb34172cd889b24460dfe9ffa2111ea76a8fe00689a1c526e805376483",
        "5ee06aaef693aa249cf07f25a3f74373060eaf73654670d8c65690eb84876114",
    ),
    (4, 10): (
        "d34436398bf12d7d8fa2fc1af145bfa753bee8d81985b93946533a700241dff9",
        "d8bf8b7d75e2560de814f20aaddb1650a542be9481ba5dc7d6119c39d4a52ddf",
    ),
    (2, 32): (
        "de3bc8721e980566830b7c4d1c2c3da2b34c21cbe5a0c64aeebcac2d8f70ee28",
        "ba6637272a6db322575dc7d745f0bc10a598c080187aeeeea26bf8f0283ab462",
    ),
    (3, 28): (
        "b68395e42bb186562f0531e00114cec55da62819dcf292f5a68e34af9dc180a0",
        "b30620db5d3cb8cdf9aa45075dc67446c05dc311f7812c0589c21199f70fc48d",
    ),
    (5, 8): (
        "d3b186a38fcd8d8da1117af31e201f72eea48f57b9223edf25870057413a4883",
        "b28f1bd8c8df9fe755bd3f34aed0cddbf7418554c65c375059903de13ff7442b",
    ),
    (8, 4): (
        "6b14e7979fe5fb48fda6054b9717c77452d590f549518b76e78682ed9eb41ce2",
        "4a5631e24558c8da5af936e857cd3f6708caf94d15a26bc488b57a5c6c4de048",
    ),
}


@pytest.mark.parametrize("n, depth", sorted(GOLDEN_DIGESTS))
def test_infham_and_verify_stdout_golden(capsys, tmp_path, n, depth):
    desc = tmp_path / "desc.json"
    assert cli.main(["gen", "--family", "GZn", "--n", str(n), "--out", str(desc)]) == 0
    capsys.readouterr()
    assert cli.main(
        ["infham", "--descriptor", str(desc), "--depth", str(depth), "--window", "5"]
    ) == 0
    infham_out = capsys.readouterr().out
    trace = tmp_path / "trace.json"
    trace.write_text(infham_out)
    assert cli.main(["verify", "--trace", str(trace)]) == 0
    verify_out = capsys.readouterr().out
    digests = tuple(
        hashlib.sha256(out.encode()).hexdigest() for out in (infham_out, verify_out)
    )
    assert digests == GOLDEN_DIGESTS[(n, depth)]


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
