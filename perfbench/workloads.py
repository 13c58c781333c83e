"""Seeded inputs and the two timed operations of the hamext benchmark.

The program only ever receives what this module generates: plain edge
lists for the finite workloads and family descriptors for the infinite
one.  The seed picks the vertex relabelling of every finite instance
and the order in which each pass runs its instances; it never changes
the sizes, so every seed measures the same amount of work.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import gate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("graphcore", "families", "conditions", "extension", "structure", "infinite")

# Instance sizes are fixed and a pass runs each shape once.  Runs time
# each shape by the median of its repetitions (see run.py); about ten
# repetitions in a 35 s run keep a pass near three seconds on a 2-vCPU
# machine.  Three shapes per workload: the median is the middle one, the
# tail the costliest.
#
# (q, n) of the ring-of-cliques G(q, n) on q * n vertices.
RING_SHAPES = ((100, 4), (400, 3), (500, 4))
# Dense fibers, n = 12, 16, 20, on 170 to 180 vertices.
DENSE_SHAPES = ((14, 12), (11, 16), (9, 20))
# (n, depth) of the infinite family GZn.
DEEP_SHAPES = ((2, 24), (2, 32), (3, 28))

# The baseline machine's clock speed moves by up to a factor of two,
# within seconds and from minute to minute.  Every timing is therefore
# scaled by REFERENCE_S over the time of a fixed pure-Python kernel
# measured next to it: a timing reads as it would at the speed at which
# the kernel takes REFERENCE_S, about that machine's sustained speed.
REFERENCE_S = 0.020

# Each operation re-checks its output several times and keeps the
# fastest check, which leaves out a collector pause; a finite check
# takes about a millisecond, an infinite one tens of milliseconds.
FINITE_VERIFY_REPEATS = 10
INFINITE_VERIFY_REPEATS = 3


def reference_kernel() -> int:
    """Fixed set, tuple and dict work, the kind hamext's layers do."""
    adj = {v: frozenset(range(v % 89, v % 89 + 20)) for v in range(1500)}
    total = 0
    for v in range(1500):
        union = adj[v] | adj[(v * 7) % 1500] | adj[(v * 13) % 1500]
        ordered = tuple(sorted(union))
        index = {w: i for i, w in enumerate(ordered)}
        total += len(index) + ordered[len(ordered) // 2]
    return total


def reference_time() -> float:
    """The faster of two timings of the reference kernel."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def import_program() -> SimpleNamespace:
    """Import the hamext modules afresh from the checkout's ``src``.

    Modules imported earlier are dropped first, so every call pays the
    full import cost.  Raises ImportError when ``src/hamext`` is absent
    or when ``hamext`` would come from anywhere else.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hamext" or m.startswith("hamext.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"hamext.{m}") for m in MODULES}
    origin = Path(mods["graphcore"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"hamext was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class FiniteInstance:
    label: str
    n_vertices: int
    edges: list[tuple[int, int]]
    edge_set: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class InfiniteInstance:
    label: str
    descriptor: dict
    depth: int


def ring_of_cliques(q: int, n: int) -> list[tuple[int, int]]:
    """Edges of G(q, n): complete fibers of size n around a q-cycle,
    consecutive fibers completely joined; vertex id = fiber * n + inner."""
    edges = []
    for f in range(q):
        g = (f + 1) % q
        for i in range(n):
            u = f * n + i
            edges.extend((u, f * n + j) for j in range(i + 1, n))
            edges.extend((u, g * n + j) for j in range(n))
    return edges


def relabelled(q: int, n: int, rng: random.Random) -> FiniteInstance:
    size = q * n
    perm = list(range(size))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in ring_of_cliques(q, n)]
    rng.shuffle(edges)
    return FiniteInstance(
        label=f"G({q},{n})",
        n_vertices=size,
        edges=edges,
        edge_set=frozenset((min(e), max(e)) for e in edges),
    )


def make_pass(workload: str, seed: int, index: int) -> list:
    """The instances of pass ``index``, in their seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "infinite-deep":
        order = list(DEEP_SHAPES)
        rng.shuffle(order)
        return [
            InfiniteInstance(f"GZ{n}@{d}", {"family": "GZn", "params": {"n": n}}, d)
            for n, d in order
        ]
    order = list(RING_SHAPES if workload == "finite-ring" else DENSE_SHAPES)
    rng.shuffle(order)
    return [relabelled(q, n, rng) for q, n in order]


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    """One operation: its latency, its fastest re-check, the vertices on
    the cycle it returned, a digest of its output and the gate's findings."""

    latency_s: float
    verify_s: float
    vertices: int
    digest: str
    problems: list[str]
    # REFERENCE_S over the reference kernel's time around the operation
    scale: float = 1.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_finite(hx: SimpleNamespace, inst: FiniteInstance) -> Outcome:
    """Build the graph, scan for claws and extend to a Hamilton cycle;
    then serialise the cycle, parse it back and re-check it with the
    program's verifier."""
    clock = time.perf_counter
    t0 = clock()
    G = hx.graphcore.FiniteGraph.from_edges(range(inst.n_vertices), inst.edges)
    claw = hx.conditions.is_claw_free(G)
    C = hx.extension.extend_to_hamilton(G)
    t1 = clock()
    checks = []
    for _ in range(FINITE_VERIFY_REPEATS):
        t = clock()
        text = json.dumps(hx.graphcore.cycle_to_json_obj(C))
        report = hx.graphcore.verify_cycle(G, hx.graphcore.cycle_from_json_obj(json.loads(text)))
        checks.append(clock() - t)
    order = list(C.order)
    problems = gate.cycle_problems(order, inst.n_vertices, inst.edge_set)
    if not claw.claw_free:
        problems.append(f"is_claw_free reports a claw at {claw.witness}")
    if not (report.ok and report.is_hamiltonian):
        problems.append(f"verify_cycle rejects the cycle: {report.reason}")
    return Outcome(
        latency_s=t1 - t0,
        verify_s=min(checks),
        vertices=len(order),
        digest=_digest(json.dumps(order)),
        problems=problems,
    )


def run_infinite(
    hx: SimpleNamespace, inst: InfiniteInstance, references: dict[str, str]
) -> Outcome:
    """Build the lazy graph and the depth-D cycle sequence (``infham``);
    then round-trip the trace through JSON and verify it (``verify``).

    ``references`` maps an instance label to the first trace produced
    for it; later traces of the same input must match it byte for byte.
    """
    clock = time.perf_counter
    t0 = clock()
    G = hx.families.descriptor_to_lazy(inst.descriptor)
    trace = hx.infinite.hamilton_sequence(G, inst.depth)
    t1 = clock()
    checks = []
    for _ in range(INFINITE_VERIFY_REPEATS):
        t = clock()
        text = trace.to_json()
        verdict = hx.infinite.verify_hc_extract(hx.infinite.SequenceTrace.from_json(text))
        checks.append(clock() - t)
    reference = references.setdefault(inst.label, text)
    return Outcome(
        latency_s=t1 - t0,
        verify_s=min(checks),
        vertices=len(trace.cycles[-1]),
        digest=_digest(text),
        problems=gate.trace_problems(text, verdict.all_ok, inst.depth, reference),
    )
