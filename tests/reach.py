"""Which executable lines of ``src/hamext`` the tier-1 tests reach.

Run from the repository root::

    python tests/reach.py [--list]

Each tier-1 test file runs under pytest in its own process, two at a
time, with a ``sys.settrace`` line tracer on the frames of
``src/hamext``.  ``tests/test_region.py`` runs one test at a time,
because two of its tests set and clear ``sys.settrace`` themselves,
which ends the tracer for the rest of the process.  Test outcomes are
ignored: tracing slows the timed tests past their bounds, and the
tier-1 run checks outcomes.

A line is executable when the compiler gives it bytecode.  Unreached
lines are reported by statement: each joins the widest statement or
``except`` clause around it that no test enters, and is named by that
statement's first line.  Lines of a ``raise`` statement, and of an
``except`` clause whose body is a single ``raise``, are refusals and
are exempt.  The check fails when any other statement is reached by no
test and is not on ``ALLOWED``, when a line that ``ALLOWED`` names is
reached, and when an entry of ``ALLOWED`` names no unreached statement.
``--list`` prints every unreached statement, the exempt ones included.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hamext"

# (module.function, the stripped first line of the statement, why no
# test reaches it); a module's own top-level lines belong to
# "module.<module>"
ALLOWED = (
    (
        "cli._print",
        "except BrokenPipeError:",
        "the closed-pipe handler runs only in test_cli's subprocess, whose "
        "standard output is a pipe the test closes early",
    ),
    (
        "cli.<module>",
        "sys.exit(main())",
        "runs only when cli.py is the main program; the tests call main()",
    ),
    (
        "infinite._CutBuilder.check_output_clauses",
        "contaminated = (neighborhood_k(B, script_S, 3) | script_S) & B.frontier",
        "stage E's frontier check, before its raise: construct_cut1 takes "
        "the decomposition decompose made, whose ball reaches 1 + "
        "BALL_MARGIN = 7 past C, while S and N_3(S) lie within 4 of C",
    ),
    (
        "infinite._CutBuilder.check_output_clauses",
        "v",
        "the element of the stray M-set members, which are raised on: an "
        "M set starts as its part, in S, and gains only stage D's separator "
        "vertex u and u's kind II helper, a neighbour of u, so all lie in "
        "S or N(S)",
    ),
)


def _statements(tree: ast.AST):
    """Yield (qualified name, node) for every node, the qualified name
    being the dotted names of the classes and functions around it."""
    stack = [("<module>", tree)]
    while stack:
        name, node = stack.pop()
        yield name, node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if name == "<module>" else f"{name}.{child.name}"
                stack.append((inner, child))
            else:
                stack.append((name, child))


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def source_lines(path: Path):
    """The executable lines of ``path``, as a dict from line number to
    (qualified function name, stripped text, exempt), and the line spans
    of its statements and except clauses."""
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    owner, exempt, spans = {}, set(), []
    # parents are yielded before their children, so the innermost
    # function is the last to claim a line
    for name, node in _statements(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for line in range(node.lineno, node.end_lineno + 1):
                owner[line] = name
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            spans.append(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, ast.Raise) or (
            isinstance(node, ast.ExceptHandler)
            and len(node.body) == 1
            and isinstance(node.body[0], ast.Raise)
        ):
            exempt.update(range(node.lineno, node.end_lineno + 1))
    module = path.stem
    rows = text.splitlines()
    lines = {
        line: (
            f"{module}.{owner.get(line, '<module>')}",
            rows[line - 1].strip(),
            line in exempt,
        )
        for line in _code_lines(compile(text, str(path), "exec"))
        if line > 0
    }
    return lines, spans


def unreached_statements(lines, spans, hit):
    """The unreached executable lines, grouped: each line joins the
    widest statement or except clause around it that no test enters,
    or stands alone inside a statement that runs.  Yields, per group,
    its executable lines in order."""
    missed = [line for line in sorted(lines) if line not in hit]
    dead = [
        span
        for span in spans
        if all(line not in hit for line in span if line in lines)
        and any(line in lines for line in span)
    ]
    done = set()
    for line in missed:
        if line in done:
            continue
        group = max((span for span in dead if line in span), key=len, default=[line])
        group = [m for m in group if m in lines]
        done.update(group)
        yield group


def _worker(out: str, args: list[str]) -> None:
    """Run pytest on ``args`` under the line tracer and write the lines
    of src/hamext it reached, by file, as JSON to ``out``."""
    import pytest

    prefix = str(SRC) + os.sep
    reached: dict[str, set[int]] = {}

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        add = reached.setdefault(Path(path).name, set()).add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line

        return line

    sys.settrace(call)
    try:
        pytest.main([*args, "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    with open(out, "w") as fh:
        json.dump({k: sorted(v) for k, v in reached.items()}, fh)


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _run(args: list[str], scratch: str, i: int) -> dict[str, list[int]]:
    out = os.path.join(scratch, f"{i}.json")
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", out, "--", *args],
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode or not os.path.exists(out):
        sys.exit(f"tracing {' '.join(args)} failed:\n{proc.stderr}")
    with open(out) as fh:
        return json.load(fh)


def runs() -> list[list[str]]:
    """The pytest argument lists, one per process: each tier-1 test
    file, but tests/test_region.py one test at a time."""
    region = "tests/test_region.py"
    listed = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", region],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    return [
        *([f] for f in files if f != region),
        *([node] for node in listed if node.startswith(region + "::")),
    ]


def check(reached: dict[str, set[int]], verbose: bool = False) -> list[str]:
    """The check's failures, given the lines reached by file; prints the
    counts, and with ``verbose`` every unreached line."""
    allowed = {(name, text) for name, text, _ in ALLOWED}
    used, failures = set(), []
    total = unreached = exempt_lines = allowed_lines = 0
    for path in sorted(SRC.glob("*.py")):
        hit = reached.get(path.name, set())
        lines, spans = source_lines(path)
        total += len(lines)
        for line in sorted(hit.intersection(lines)):
            name, text, _ = lines[line]
            if (name, text) in allowed:
                failures.append(
                    f"allowed but reached: src/hamext/{path.name}:{line} [{name}] {text}"
                )
        for group in unreached_statements(lines, spans, hit):
            unreached += len(group)
            name, text, _ = lines[group[0]]
            key = (name, text)
            exempt = all(lines[line][2] for line in group)
            where = f"src/hamext/{path.name}:{group[0]}"
            if len(group) > 1:
                where += f"-{group[-1]}"
            where += f" [{name}] {text}"
            if verbose:
                print(f"unreached{' (raise)' if exempt else ''}: {where}")
            if exempt:
                exempt_lines += len(group)
            elif key in allowed:
                used.add(key)
                allowed_lines += len(group)
            else:
                failures.append(f"reached by no test: {where}")
    failures += [
        f"allowed statement not found unreached: [{name}] {text}"
        for name, text in sorted(allowed - used)
    ]
    print(
        f"{total} executable lines in src/hamext, {unreached} reached by no "
        f"test: {exempt_lines} in raises, {allowed_lines} allowed, "
        f"{unreached - exempt_lines - allowed_lines} elsewhere"
    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true", help="print every unreached line")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("pytest_args", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker, args.pytest_args)
        return 0
    reached: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        with ThreadPoolExecutor(2) as pool:
            results = pool.map(lambda ia: _run(ia[1], scratch, ia[0]), enumerate(runs()))
            for result in results:
                for name, lines in result.items():
                    reached.setdefault(name, set()).update(lines)
    failures = check(reached, args.list)
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
