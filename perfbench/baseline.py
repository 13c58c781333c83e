"""Record the benchmark baseline in perfbench/baseline.json.

    python3 perfbench/baseline.py

For every workload this makes one untraced run on the default seed and
on the held-out seed, and one traced run on the default seed, one after
another.  From the traced run it takes the per-layer metrics, the
tracing overhead and the layers with the most self time, and it checks
the layer predictions made when the workloads were chosen.  A wrong
prediction is recorded as refuted.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED, HELD_OUT_SEED = 1, 7
TOP_LAYERS = 5
TIMING = re.compile(r"untraced ([\d.]+) s, traced ([\d.]+) s per operation")


def run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def self_times(per_layer: dict) -> dict[str, float]:
    """Self seconds per operation of every traced layer."""
    return {k[: -len(".self_s")]: v for k, v in per_layer.items() if k.endswith(".self_s")}


def module_shares(layers: dict[str, float]) -> dict[str, float]:
    """Each module's share of the time spent inside traced layers."""
    total = sum(layers.values())
    shares: dict[str, float] = {}
    for name, value in layers.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + value / total
    return shares


def analyse(name: str, per_layer: dict, notes: list[str]) -> dict:
    """The traced run's record: timings, top layers and the prediction."""
    timing = next(m for m in map(TIMING.search, notes) if m)
    layers = self_times(per_layer)
    total = sum(layers.values())
    top = sorted(layers, key=layers.get, reverse=True)[:TOP_LAYERS]
    return {
        "notes": notes,
        "untraced_s_per_op": float(timing[1]),
        "traced_s_per_op": float(timing[2]),
        "tracing_overhead_s_per_op": per_layer["tracing.overhead_s"],
        "top_self_time": [
            {"layer": k, "self_s_per_op": layers[k], "share": layers[k] / total} for k in top
        ],
        "per_layer": per_layer,
        "prediction": predict(name, per_layer, module_shares(layers)),
    }


def predict(workload: str, per_layer: dict, shares: dict[str, float]) -> dict:
    if workload == "infinite-deep":
        ratio = per_layer["infinite.construct_cut1.tail_over_head"]
        return {
            "prediction": "infinite.construct_cut1.tail_over_head is well above 1 (at least 2)",
            "measured": ratio,
            "verdict": "confirmed" if ratio >= 2 else "refuted",
        }
    module = "extension" if workload == "finite-ring" else "conditions"
    top = max(shares, key=shares.get)
    return {
        "prediction": f"{module}.* dominates {workload}: the largest share of the "
                      "time spent inside traced layers, and more than half of it",
        "measured": {m: round(s, 4) for m, s in sorted(shares.items(), key=lambda kv: -kv[1])},
        "verdict": "confirmed" if top == module and shares[module] > 0.5 else "refuted",
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        entry: dict = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            result, notes = run(name, seed, 0, seconds)
            entry[f"end_to_end_seed{seed}"] = {
                k: v["value"] for k, v in result["metrics"].items()
            }
            entry[f"notes_seed{seed}"] = notes
        result, notes = run(name, DEFAULT_SEED, 1, seconds)
        per_layer = {k: v["value"] for k, v in result["metrics"].items()}
        entry["trace"] = analyse(name, per_layer, notes)
        out["workloads"][name] = entry
        print(name, entry["trace"]["prediction"]["verdict"], flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
