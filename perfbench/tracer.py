"""Outside-in tracing of hamext: spans around calls into its layers.

The tracer replaces each listed function, in every ``hamext`` module
namespace that holds it, by a wrapper that records a span (name, start,
end, parent span, operation), and wraps a few methods at class level.
Nothing inside the program changes; ``uninstall`` puts every original
back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from types import SimpleNamespace

FUNCTIONS = {
    "conditions": ("check_star", "is_claw_free", "check_star_ball", "claw_free_on_ball"),
    "extension": (
        "extend_to_hamilton",
        "extension_sequence",
        "find_extension",
        "apply_extension",
    ),
    "graphcore": ("verify_cycle", "ball", "neighborhood_k"),
    "structure": ("minimal_ray_blocker", "decompose"),
    "infinite": ("hamilton_sequence", "construct_cut1", "steiner_tree_T", "verify_hc_extract"),
    "families": ("descriptor_to_lazy",),
}
METHODS = {
    "graphcore": (("FiniteGraph", "from_edges"), ("LazyGraph", "escapes")),
    "infinite": (("SequenceTrace", "to_json"), ("SequenceTrace", "from_json")),
}
KINDS = ("I", "II", "III")


def layer_names() -> list[str]:
    """Every span name the tracer records, as ``<module>.<function>``."""
    names = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs]
    names += [f"{m}.{c}.{f}" for m, cfs in METHODS.items() for c, f in cfs]
    return names


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"extension.kind_{k}": "count" for k in KINDS})
    units["graphcore.ball.vertices"] = "count"
    units["graphcore.LazyGraph.escapes.distinct"] = "count"
    units["graphcore.LazyGraph.escapes.hit_ratio"] = "1"
    units["structure.decompose.ball_regrowths"] = "count"
    units["infinite.construct_cut1.tail_over_head"] = "1"
    units["tracing.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self, hx: SimpleNamespace) -> None:
        self.hx = hx
        # (span id, parent id, operation, name, start, end), appended on exit
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.operation = 0
        self.kinds: Counter[str] = Counter()
        self.ball_vertices = 0
        self.distinct_escapes = 0
        # distinct (blocked, v) keys per LazyGraph, which has its own cache
        self._escape_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items() if name.startswith("hamext.")]
        for module, functions in FUNCTIONS.items():
            for fname in functions:
                original = getattr(getattr(self.hx, module), fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._undo.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        for module, methods in METHODS.items():
            for cname, fname in methods:
                cls = getattr(getattr(self.hx, module), cname)
                raw = cls.__dict__[fname]
                name = f"{module}.{cname}.{fname}"
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapper = self._wrap(name, raw)
                self._undo.append((cls, fname, raw))
                setattr(cls, fname, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, name: str, func):
        after = {
            "extension.find_extension": self._count_kind,
            "graphcore.ball": self._count_ball,
            "graphcore.LazyGraph.escapes": self._count_escape,
        }.get(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.operation, name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return traced

    def span(self, name: str, func, *args):
        """Call ``func(*args)`` under a span of the benchmark's own."""
        return self._wrap(name, func)(*args)

    def _count_kind(self, args, result) -> None:
        self.kinds[result.kind] += 1

    def _count_ball(self, args, result) -> None:
        self.ball_vertices += len(result.vertices)

    def _count_escape(self, args, result) -> None:
        graph, blocked, v = args
        seen = self._escape_keys.setdefault(graph, set())
        if (blocked, v) not in seen:
            seen.add((blocked, v))
            self.distinct_escapes += 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Per-layer metrics, each a mean per traced operation."""
        calls: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        covered: defaultdict[int, float] = defaultdict(float)
        balls_under: Counter[int] = Counter()
        regrowths = 0
        cut1: defaultdict[int, list[float]] = defaultdict(list)
        for sid, parent, op, name, t0, t1 in self.spans:
            duration = t1 - t0
            calls[name] += 1
            self_s[name] += duration - covered.pop(sid, 0.0)
            covered[parent] += duration
            if name == "graphcore.ball":
                balls_under[parent] += 1
            elif name == "structure.decompose":
                regrowths += max(balls_under.pop(sid, 0) - 1, 0)
            elif name == "infinite.construct_cut1":
                cut1[op].append(duration)
        per_op = 1.0 / operations
        out: dict[str, float] = {}
        for name in layer_names():
            out[f"{name}.calls"] = calls[name] * per_op
            out[f"{name}.self_s"] = self_s[name] * per_op
        for k in KINDS:
            out[f"extension.kind_{k}"] = self.kinds[k] * per_op
        out["graphcore.ball.vertices"] = self.ball_vertices * per_op
        escapes = calls["graphcore.LazyGraph.escapes"]
        out["graphcore.LazyGraph.escapes.distinct"] = self.distinct_escapes * per_op
        out["graphcore.LazyGraph.escapes.hit_ratio"] = (
            1 - self.distinct_escapes / escapes if escapes else 0.0
        )
        out["structure.decompose.ball_regrowths"] = regrowths * per_op
        ratios = [tail_over_head(d) for d in cut1.values() if len(d) >= 10]
        out["infinite.construct_cut1.tail_over_head"] = (
            sum(ratios) / len(ratios) if ratios else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def tail_over_head(durations: list[float]) -> float:
    """Mean of the last tenth of the calls over the mean of the first tenth."""
    tenth = len(durations) // 10
    return sum(durations[-tenth:]) / sum(durations[:tenth])
