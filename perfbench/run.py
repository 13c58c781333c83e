"""Closed-loop benchmark of hamext.

    python3 perfbench/run.py --workload finite-ring --seed 1 --seconds 35 --trace 0

One client in one process, no threads: each operation starts when the
previous one has returned, on fresh program state.  The run executes
whole passes over the workload's seeded instances until ``--seconds``
have gone by, checks every output (see gate.py) and prints each metric
by name with its unit.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports per-layer metrics from spans around the calls
into hamext (see tracer.py) and writes the spans under perfbench/out/.
WORKLOADS.md says what each workload is for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an operation failed and 2 when hamext cannot be imported
from the checkout's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import Tracer, metric_units

WORKLOADS = ("finite-ring", "finite-dense", "infinite-deep")
OUT_DIR = Path(__file__).resolve().parent / "out"


def scale_around(func, *args):
    """Call ``func``; return its result and ``REFERENCE_S`` over the
    mean of the reference kernel's times just before and after it."""
    before = workloads.reference_time()
    result = func(*args)
    after = workloads.reference_time()
    return result, workloads.REFERENCE_S / ((before + after) / 2)


def set_up(workload: str, seed: int, index: int):
    """Import hamext afresh and generate the inputs of pass ``index``;
    return the program, the inputs and the scaled time both took."""

    def timed():
        t0 = time.perf_counter()
        hx = workloads.import_program()
        instances = workloads.make_pass(workload, seed, index)
        return hx, instances, time.perf_counter() - t0

    (hx, instances, elapsed), scale = scale_around(timed)
    return hx, instances, elapsed * scale


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it,
    and its value by nearest rank; the maximum when there are too few."""
    n = len(samples)
    ordered = sorted(samples)
    if n <= 10:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    rank = (p * n + 99) // 100
    return p, ordered[rank - 1]


class Loop:
    """Runs operations one after another and keeps their outcomes."""

    def __init__(self, hx, workload: str) -> None:
        self.hx = hx
        self.infinite = workload == "infinite-deep"
        self.references: dict[str, str] = {}
        self.outcomes: list[tuple[str, workloads.Outcome]] = []
        self.attempted = 0
        self.failed = 0

    def run(self, instance) -> workloads.Outcome | None:
        self.attempted += 1
        try:
            if self.infinite:
                out, scale = scale_around(
                    workloads.run_infinite, self.hx, instance, self.references
                )
            else:
                out, scale = scale_around(workloads.run_finite, self.hx, instance)
            out.scale = scale
        except Exception:
            print(f"operation on {instance.label} raised:", file=sys.stderr)
            traceback.print_exc()
            self.failed += 1
            return None
        if out.problems:
            print(f"gate rejects {instance.label}: {'; '.join(out.problems)}", file=sys.stderr)
            self.failed += 1
        self.outcomes.append((instance.label, out))
        return out

    def run_pass(self, instances, tracer: Tracer | None = None) -> str:
        """Run one pass; return the digest of everything it produced."""
        digest = hashlib.sha256()
        for instance in instances:
            if tracer is None:
                out = self.run(instance)
            else:
                tracer.operation += 1
                out = tracer.span("bench.operation", self.run, instance)
            digest.update((out.digest if out else "raised").encode())
        return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float) -> tuple[Loop, dict, list[str]]:
    """Run passes, each after a set-up of its own, until ``seconds``
    have gone by.

    Timings are scaled to the reference speed (see workloads.py).  Each
    input shape is timed by the median of its repetitions, and the
    latency metrics are taken over those per-shape times.
    """
    hx, instances, setup_s = set_up(workload, seed, 0)
    loop = Loop(hx, workload)
    setups, digests = [setup_s], []
    start = time.perf_counter()
    while True:
        digests.append(loop.run_pass(instances))
        if time.perf_counter() - start >= seconds:
            break
        loop.hx, instances, setup_s = set_up(workload, seed, len(digests))
        setups.append(setup_s)
    elapsed = time.perf_counter() - start
    OUT_DIR.mkdir(exist_ok=True)
    ops_path = OUT_DIR / f"ops-{workload}-seed{seed}.jsonl"
    with open(ops_path, "w") as fh:
        for label, out in loop.outcomes:
            fh.write(json.dumps({"shape": label, "latency_s": out.latency_s,
                                 "verify_s": out.verify_s, "scale": out.scale,
                                 "vertices": out.vertices}) + "\n")
    if not loop.outcomes:
        return loop, {}, ["no operation completed"]
    shapes = defaultdict(list)
    for label, out in loop.outcomes:
        shapes[label].append(out)
    latency = {k: statistics.median(o.latency_s * o.scale for o in outs) for k, outs in shapes.items()}
    verify = {k: statistics.median(o.verify_s * o.scale for o in outs) for k, outs in shapes.items()}
    unscaled = {k: statistics.median(o.latency_s for o in outs) for k, outs in shapes.items()}
    vertices = {k: outs[0].vertices for k, outs in shapes.items()}
    slowest = max(latency, key=latency.get)
    pooled = [o.latency_s for _, o in loop.outcomes]
    pct, pooled_tail = tail(pooled)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(latency.values()) * 1e3, "ms"),
        "op_tail_ms": (latency[slowest] * 1e3, "ms"),
        "vertices_per_s": (sum(vertices.values()) / sum(latency.values()), "1/s"),
        "verify_p50_ms": (statistics.median(verify.values()) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"{loop.attempted} operations in {len(digests)} passes of {len(shapes)} shapes, {elapsed:.1f} s",
        "median per shape, scaled (unscaled) ms: "
        + ", ".join(f"{k} {v * 1e3:.1f} ({unscaled[k] * 1e3:.1f})"
                    for k, v in sorted(latency.items(), key=lambda kv: kv[1])),
        f"mean scale {statistics.mean(o.scale for _, o in loop.outcomes):.3f}",
        f"op_tail_ms is the slowest shape, {slowest}",
        f"over all {len(pooled)} operations: median {statistics.median(pooled) * 1e3:.1f} ms, "
        f"p{pct} {pooled_tail * 1e3:.1f} ms",
        f"set-up median of {len(setups)}: {statistics.median(setups):.4f} s",
        f"digest of pass 0: {digests[0]}",
        f"operations written to {ops_path.relative_to(workloads.ROOT)}",
    ]
    return loop, metrics, notes


def measure_traced(hx, workload: str, seed: int, seconds: float, first) -> tuple[Loop, dict, list[str]]:
    """Alternate untraced and traced passes over the first pass's
    instances until ``seconds`` have gone by; every pass must produce
    the same digest."""
    loop = Loop(hx, workload)
    tracer = Tracer(hx)
    times = {False: defaultdict(list), True: defaultdict(list)}
    digests = {False: set(), True: set()}
    pairs = 0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            mark = len(loop.outcomes)
            if traced:
                tracer.install()
            try:
                digests[traced].add(loop.run_pass(first, tracer if traced else None))
            finally:
                tracer.uninstall()
            for label, out in loop.outcomes[mark:]:
                times[traced][label].append((out.latency_s + out.verify_s) * out.scale)
        pairs += 1
    # scaled per-shape medians, as for the end-to-end latencies
    per_op = {
        traced: statistics.mean(statistics.median(xs) for xs in by_shape.values())
        for traced, by_shape in times.items()
    }
    metrics = tracer.layer_metrics(pairs * len(first))
    metrics["tracing.overhead_s"] = per_op[True] - per_op[False]
    plain, traced = digests[False], digests[True]
    if len(plain | traced) != 1:
        print(f"traced and untraced digests differ: {sorted(plain | traced)}", file=sys.stderr)
        loop.failed += 1
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    units = metric_units()
    notes = [
        f"{pairs} untraced and {pairs} traced passes of {len(first)} operations",
        f"untraced {per_op[False]:.4f} s, traced {per_op[True]:.4f} s per operation",
        f"digest of pass 0: {' '.join(sorted(plain))}",
        f"spans written to {spans_path.relative_to(workloads.ROOT)}",
    ]
    return loop, {name: (metrics[name], unit) for name, unit in units.items()}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.trace:
            hx, first, _ = set_up(args.workload, args.seed, 0)
            loop, metrics, notes = measure_traced(hx, args.workload, args.seed, args.seconds, first)
        else:
            loop, metrics, notes = measure(args.workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"cannot import hamext from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {loop.failed / loop.attempted:g} ({loop.failed} of {loop.attempted})")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
