"""The records a run hands to its checker, and their JSON.

A trace carries everything an independent checker needs about one
constructed sequence: the cycles, the blockers, the K0 sets, the
membership data of each M set (one CutWitness per infinite component
and iteration) and the component each tracked end selects.
SequenceTrace writes the JSON that ``hamext infham`` prints and reads
the JSON that ``hamext verify`` checks, refusing a malformed trace with
InputError.  Nothing here imports the construction.
"""

from __future__ import annotations

import json
from itertools import chain

from .errors import InputError
from .graphcore import (
    Cycle,
    Edge,
    Record,
    _dumps_at,
    _ids_format,
    canonical_edge,
    cycle_from_json_obj,
    cycle_to_json_obj,
    ids_from_json_obj,
)


def _int_from_json_obj(x: object, what: str) -> int:
    """A plain JSON integer; booleans and numeric strings are refused."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _edge_from_json_obj(obj: object) -> Edge:
    """A JSON pair of plain integer ids, as a canonical edge."""
    ends = ids_from_json_obj(obj, "witness crossing edge")
    if len(ends) != 2:
        raise InputError(f"witness crossing edge must join two ids, got {obj!r}")
    return canonical_edge(*ends)


class CutWitness(Record):
    """Membership description of one M set and its two crossing edges.

    The set itself is (K_j with ``included`` added) minus ``excluded``;
    ``piece`` records the ball-restricted part of K_j at the time the
    witness was frozen, and part is the separator S_j.  Indices j are
    0-based.
    """

    __slots__ = _fields = (
        "j", "part", "piece", "included", "excluded", "crossing_edges"
    )

    def __init__(
        self,
        j: int,
        part: frozenset[int],
        piece: frozenset[int],
        included: frozenset[int],
        excluded: frozenset[int],
        crossing_edges: tuple[Edge, ...],
    ) -> None:
        self.j = j
        self.part = part
        self.piece = piece
        self.included = included
        self.excluded = excluded
        self.crossing_edges = crossing_edges

    def to_json_obj(self) -> dict:
        return {
            "j": self.j,
            "part": sorted(self.part),
            "piece": sorted(self.piece),
            "included": sorted(self.included),
            "excluded": sorted(self.excluded),
            "crossing_edges": [list(e) for e in self.crossing_edges],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "CutWitness":
        try:
            return CutWitness(
                j=_int_from_json_obj(obj["j"], "witness j"),
                part=frozenset(ids_from_json_obj(obj["part"], "witness part")),
                piece=frozenset(ids_from_json_obj(obj["piece"], "witness piece")),
                included=frozenset(
                    ids_from_json_obj(obj["included"], "witness included")
                ),
                excluded=frozenset(
                    ids_from_json_obj(obj["excluded"], "witness excluded")
                ),
                crossing_edges=tuple(
                    _edge_from_json_obj(e) for e in obj["crossing_edges"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed cut witness: {exc}") from None


def _witness_format(edges: tuple[int, ...], *sizes: int) -> str:
    """The %-format of a witness inside a trace, given the length of
    each crossing edge and of its sorted excluded, included, part and
    piece lists; j takes the fourth place."""
    nl = "\n    "
    inner = nl + " "
    crossing = "[]"
    if edges:
        rows = ("," + inner).join(_ids_format(k, inner) for k in edges)
        crossing = "[" + inner + rows + nl + "]"
    excluded, included, part, piece = (_ids_format(k, nl) for k in sizes)
    return (
        f'{{{nl}"crossing_edges": {crossing},{nl}"excluded": {excluded},'
        f'{nl}"included": {included},{nl}"j": %d,{nl}"part": {part},'
        f'{nl}"piece": {piece}\n   }}'
    )


def _witnesses_json(witnesses) -> str:
    """The text ``dumps_json`` writes for a trace's witness lists as a
    top-level value, one format per witness.  A witness holding
    anything but plain ints is written by ``dumps_json`` from its JSON
    object, so the text is exact either way."""
    formats: dict[tuple, str] = {}

    def text(w: CutWitness) -> str:
        edges = w.crossing_edges
        lists = sorted(w.excluded), sorted(w.included), sorted(w.part), sorted(w.piece)
        exc, inc, part, piece = lists
        values = (*chain.from_iterable(edges), *exc, *inc, w.j, *part, *piece)
        if set(map(type, values)) != {int}:
            return _dumps_at(w.to_json_obj(), "\n   ")
        shape = (tuple(map(len, edges)), *map(len, lists))
        fmt = formats.get(shape)
        if fmt is None:
            fmt = formats[shape] = _witness_format(*shape)
        return fmt % values

    rows = [
        "[\n   " + ",\n   ".join(map(text, per_i)) + "\n  ]" if per_i else "[]"
        for per_i in witnesses
    ]
    return "[\n  " + ",\n  ".join(rows) + "\n ]" if rows else "[]"


class SequenceTrace(Record):
    """Everything the checker needs about one constructed sequence.

    cycles has depth+1 entries; blockers, ks, k0s and witnesses have
    one entry per iteration.  end_selectors maps an end name to the
    0-based component index it selects at each iteration.
    """

    __slots__ = _fields = (
        "descriptor", "cycles", "blockers", "ks", "k0s", "witnesses", "end_selectors"
    )

    def __init__(
        self,
        descriptor: dict | None,
        cycles: tuple[Cycle, ...],
        blockers: tuple[frozenset[int], ...],
        ks: tuple[int, ...],
        k0s: tuple[frozenset[int], ...],
        witnesses: tuple[tuple[CutWitness, ...], ...],
        end_selectors: dict[str, tuple[int, ...]],
    ) -> None:
        self.descriptor = descriptor
        self.cycles = cycles
        self.blockers = blockers
        self.ks = ks
        self.k0s = k0s
        self.witnesses = witnesses
        self.end_selectors = end_selectors

    @property
    def depth(self) -> int:
        return len(self.blockers)

    def to_json(self, **extra: object) -> str:
        """The trace as ``dumps_json`` writes its JSON object, with the
        fields of ``extra`` added, joined once from its parts; each
        witness is written straight from its record."""
        obj = {
            "descriptor": self.descriptor,
            "depth": self.depth,
            "cycles": [cycle_to_json_obj(c) for c in self.cycles],
            "blockers": [sorted(b) for b in self.blockers],
            "ks": list(self.ks),
            "k0s": [sorted(p) for p in self.k0s],
            "end_selectors": {
                name: list(sel) for name, sel in sorted(self.end_selectors.items())
            },
            **extra,
        }
        texts = {key: _dumps_at(value, "\n ") for key, value in obj.items()}
        texts["witnesses"] = _witnesses_json(self.witnesses)
        parts = ["{"]
        for key in sorted(texts):
            parts += ('\n "', key, '": ', texts[key], ",")
        parts[-1] = "\n}"
        return "".join(parts)

    @staticmethod
    def from_json_obj(obj: dict) -> "SequenceTrace":
        try:
            depth = _int_from_json_obj(obj["depth"], "trace depth")
            trace = SequenceTrace(
                descriptor=obj["descriptor"],
                cycles=tuple(cycle_from_json_obj(c) for c in obj["cycles"]),
                blockers=tuple(
                    frozenset(ids_from_json_obj(b, "blocker")) for b in obj["blockers"]
                ),
                ks=tuple(_int_from_json_obj(k, "ks entry") for k in obj["ks"]),
                k0s=tuple(frozenset(ids_from_json_obj(p, "K0")) for p in obj["k0s"]),
                witnesses=tuple(
                    tuple(CutWitness.from_json_obj(w) for w in per_i)
                    for per_i in obj["witnesses"]
                ),
                end_selectors={
                    name: ids_from_json_obj(sel, "end selector")
                    for name, sel in obj["end_selectors"].items()
                },
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed trace: {exc}") from None
        if depth != trace.depth:
            raise InputError(
                f"trace depth {depth} does not match its {trace.depth} iterations"
            )
        if len(trace.cycles) != trace.depth + 1:
            raise InputError("trace cycle count does not match depth")
        if not (len(trace.ks) == len(trace.k0s) == len(trace.witnesses) == trace.depth):
            raise InputError("trace iteration data lengths disagree")
        for i, (k, per_i) in enumerate(zip(trace.ks, trace.witnesses)):
            if k != len(per_i):
                raise InputError(
                    f"iteration {i + 1} records k = {k} but {len(per_i)} witnesses"
                )
            for j, w in enumerate(per_i):
                if w.j != j:
                    raise InputError(
                        f"witness {j} of iteration {i + 1} records j = {w.j}"
                    )
        for name, sel in trace.end_selectors.items():
            for i, (x, per_i) in enumerate(zip(sel, trace.witnesses)):
                if x not in range(len(per_i)):
                    raise InputError(
                        f"end {name!r} selects component {x} of iteration "
                        f"{i + 1}, which has {len(per_i)}"
                    )
        return trace

    @staticmethod
    def from_json(text: str) -> "SequenceTrace":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"trace is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise InputError("trace JSON must be an object")
        return SequenceTrace.from_json_obj(obj)
