"""The verifier and the trace records share no code with the construction.

``hamext.verify`` checks a trace from the trace and the graph's oracles
alone, and ``hamext.trace`` only reads and writes it.  The scan reads
both modules with ``ast`` and fails on any import, at module level or
inside a function, of a module that builds the sequence; a fresh
``hamext verify`` run shows that none of them is loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hamext.infinite as infinite
import hamext.trace as trace
import hamext.verify as verify
from hamext.families import gen_G_inf

SRC = Path(__file__).resolve().parents[1] / "src"
CONSTRUCTION = {"infinite", "structure", "extension", "conditions"}


def package_imports(path: Path) -> set[str]:
    """The hamext modules a source file imports, by their short names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the package's modules import each other as .name
            module = "hamext" + (f".{node.module}" if node.module else "")
            if not node.level:
                module = node.module or ""
            modules = [f"{module}.{a.name}" for a in node.names]
            if module != "hamext":
                modules = [module]
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("hamext."))
    return found


def test_verify_and_trace_import_no_construction_module():
    imports = {m: package_imports(SRC / "hamext" / f"{m}.py") for m in ("verify", "trace")}
    assert {m: found & CONSTRUCTION for m, found in imports.items()} == {
        "verify": set(),
        "trace": set(),
    }
    # what they do import, as verify's docstring lists it
    assert imports == {
        "verify": {"errors", "families", "graphcore", "trace"},
        "trace": {"errors", "graphcore"},
    }


def test_the_scan_sees_every_form_of_import(tmp_path):
    forms = {
        "from .infinite import hamilton_sequence": {"infinite"},
        "from . import structure": {"structure"},
        "import hamext.extension": {"extension"},
        "from hamext.conditions import check_star": {"conditions"},
        "def f():\n    from .infinite import stable_limit": {"infinite"},
        "from .graphcore import Edge": {"graphcore"},
        "import json": set(),
    }
    for source, want in forms.items():
        path = tmp_path / "module.py"
        path.write_text(source + "\n")
        assert package_imports(path) == want, source


def test_verify_command_loads_no_construction_module(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(infinite.hamilton_sequence(gen_G_inf(2), 3).to_json())
    code = (
        "import json, sys; from hamext.cli import main; code = main(sys.argv[1:]); "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hamext.')))); "
        "sys.exit(code)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, "verify", "--trace", str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = {m.split(".")[1] for m in json.loads(out.stdout.splitlines()[-1])}
    assert loaded == {"cli", "errors", "families", "graphcore", "trace", "verify"}


def test_infinite_still_hands_out_the_names_the_benchmark_reads():
    # perfbench/workloads.run_infinite calls these through hamext.infinite,
    # and perfbench/tracer.py wraps them there (FUNCTIONS and METHODS);
    # they leave infinite once the benchmark reads trace and verify
    assert infinite.SequenceTrace is trace.SequenceTrace
    assert infinite.verify_hc_extract is verify.verify_hc_extract
