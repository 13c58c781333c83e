"""Correctness gate of the benchmark, written without hamext's own checkers.

An operation whose output fails here counts as failed, and a run with
a failed operation exits nonzero.
"""

from __future__ import annotations

import json


def cycle_problems(
    order: list[int], n_vertices: int, edge_set: frozenset[tuple[int, int]]
) -> list[str]:
    """Why ``order`` is not a Hamilton cycle of the generated graph on
    vertices ``0 .. n_vertices-1`` with canonical edges ``edge_set``."""
    problems = []
    if len(order) != n_vertices or set(order) != set(range(n_vertices)):
        problems.append(
            f"cycle of length {len(order)} does not visit each of the "
            f"{n_vertices} vertices exactly once"
        )
    for a, b in zip(order, order[1:] + order[:1]):
        if (min(a, b), max(a, b)) not in edge_set:
            problems.append(f"cycle uses ({a}, {b}), which is not an edge")
            break
    return problems


def trace_problems(text: str, all_ok: bool, depth: int, reference: str) -> list[str]:
    """Why the trace JSON ``text`` is not an acceptable depth-``depth``
    sequence: the program's verdict ``all_ok`` must hold, every cycle's
    vertex set must contain the one before it, and the text must equal
    ``reference``, the first trace made from the same input."""
    problems = []
    if not all_ok:
        problems.append("verify_hc_extract rejects the trace")
    try:
        cycles = [set(c) for c in json.loads(text)["cycles"]]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"trace JSON unreadable: {exc!r}"]
    if len(cycles) != depth + 1:
        problems.append(f"trace has {len(cycles)} cycles, expected {depth + 1}")
    for i in range(len(cycles) - 1):
        if not cycles[i] <= cycles[i + 1]:
            problems.append(f"cycle {i + 1} drops vertices of cycle {i}")
            break
    if text != reference:
        problems.append("trace JSON differs from the first trace of the same input")
    return problems
