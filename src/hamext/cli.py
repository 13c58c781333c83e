"""Command-line front end.

Every subcommand prints a single JSON payload on standard output and
maps its outcome onto four exit codes:

* 0: success, or a checked verdict that holds
* 1: a checked verdict that fails (condition violated, cut mismatch,
  no Hamilton cycle found by the oracle)
* 2: malformed input or violated precondition, including bad flags
* 3: an internal invariant was broken

The distinction between 1 and 2/3 matters for scripting: 1 means the
question was answered and the answer is no; 2 and 3 mean the question
could not be answered.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError, InvariantViolation, SamplingExhausted
from .families import DOUBLE_RAYS, RINGS, descriptor_to_lazy, fiber_of, fiber_window
from .graphcore import (
    Cycle,
    Region,
    cycle_to_json_obj,
    dumps_json,
    graph_from_json_obj,
    graph_to_dot,
    graph_to_json_obj,
)

# the condition checks, the extension engine, the separator structure,
# the infinite construction, the verifier and the oracle are imported by
# the subcommands that use them, so that the others do not compile them
# on every start: verify loads none of the construction

EXIT_OK = 0
EXIT_VERDICT_FAILS = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

FINITE_FAMILIES = (*RINGS, "rand")
INFINITE_FAMILIES = tuple(DOUBLE_RAYS)


def _emit(obj: object, out: str | None = None) -> None:
    """Print ``obj`` as JSON; with ``out``, also write the same text there."""
    _print(dumps_json(obj), out)


def _print(text: str, out: str | None = None) -> None:
    """Print ``text``; with ``out``, also write it there.  A reader that
    closes standard output early ends the printing, not the command,
    which returns the code it would have returned."""
    if out is not None:
        _write_text(out, text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the interpreter flushes standard output again at exit: point it
        # at the null device, so that flush neither fails nor prints
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_safe(value: object) -> object:
    """``value`` with sets as sorted lists, tuples as lists and mapping
    keys as strings; anything else JSON cannot hold becomes its repr."""
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def _load_json_file(path: str) -> object:
    text = _read_text(path)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _parse_cycle(spec: str) -> Cycle:
    try:
        order = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise InputError(
            f"cycle must be comma-separated integers, got {spec!r}"
        ) from None
    return Cycle(order)


def _cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    if family in INFINITE_FAMILIES:
        if args.q is not None:
            raise InputError(f"family {family} takes no --q")
        if args.seed is not None:
            raise InputError(f"family {family} takes no --seed")
        if args.n is None:
            raise InputError(f"family {family} needs --n")
        if args.dot is not None:
            raise InputError("DOT output needs a finite graph")
        payload: dict = {"family": family, "params": {"n": args.n}}
        # fail fast on out-of-range parameters
        descriptor_to_lazy(payload)
    else:
        if family == "rand":
            if args.q is not None:
                raise InputError("family rand takes no --q")
            if args.seed is None:
                raise InputError("family rand needs --seed")
            from .oracle import random_star_clawfree

            G = random_star_clawfree(args.seed, args.n if args.n is not None else 14)
        else:
            if args.q is None or args.n is None:
                raise InputError(f"family {family} needs --q and --n")
            if args.seed is not None:
                raise InputError(f"family {family} takes no --seed")
            G = RINGS[family][0](args.q, args.n)
        payload = graph_to_json_obj(G)
        if args.dot is not None:
            _write_text(args.dot, graph_to_dot(G))
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    from .conditions import check_star, check_ungl_kette, is_claw_free

    G = graph_from_json_obj(_load_json_file(args.input))
    if args.what == "star":
        verdict = check_star(G)
        ok = verdict.holds
    elif args.what == "clawfree":
        verdict = is_claw_free(G)
        ok = verdict.claw_free
    else:
        verdict = check_ungl_kette(G)
        ok = verdict.holds
    _emit({"what": args.what, **verdict.to_json_obj()})
    return EXIT_OK if ok else EXIT_VERDICT_FAILS


def _replay_extensions(G, C0: Cycle) -> list[dict]:
    """Re-run the extension loop recording each step for --trace."""
    from .extension import iter_extensions

    return [
        {"extension": ext.to_json_obj(), "cycle": cycle_to_json_obj(C.freeze())}
        for ext, C in iter_extensions(G, C0)
    ]


def _cmd_ham(args: argparse.Namespace) -> int:
    from .extension import extend_to_hamilton, find_initial_cycle

    G = graph_from_json_obj(_load_json_file(args.input))
    seed = _parse_cycle(args.seed_cycle) if args.seed_cycle else None
    C = extend_to_hamilton(G, seed)
    if args.trace is not None:
        C0 = seed if seed is not None else find_initial_cycle(G)
        # saturate's loop, run again from the same start cycle, ends on C
        trace = {
            "graph": graph_to_json_obj(G),
            "initial": cycle_to_json_obj(C0),
            "steps": _replay_extensions(G, C0),
        }
        _write_text(args.trace, dumps_json(trace) + "\n")
    if args.dot is not None:
        _write_text(args.dot, graph_to_dot(G, highlight=C.edges()))
    _emit(
        {"cycle": cycle_to_json_obj(C), "hamiltonian": True, "length": len(C)}
    )
    return EXIT_OK


def _cmd_structure(args: argparse.Namespace) -> int:
    from .structure import decompose

    desc = _load_json_file(args.input)
    if not isinstance(desc, dict):
        raise InputError("structure input must be a descriptor JSON object")
    G = descriptor_to_lazy(desc)
    C = _parse_cycle(args.cycle)
    decomp = decompose(G, C, Region(G, C.order), set())
    payload = decomp.to_json_obj()
    payload["blocker"] = sorted(decomp.script_S)
    _emit(payload)
    return EXIT_OK


def _cmd_infham(args: argparse.Namespace) -> int:
    from .infinite import hamilton_sequence
    from .verify import stable_limit

    desc = _load_json_file(args.descriptor)
    if not isinstance(desc, dict):
        raise InputError("descriptor must be a JSON object")
    G = descriptor_to_lazy(desc)
    if args.window is not None and args.window < 0:
        raise InputError("--window must be non-negative")
    trace = hamilton_sequence(G, args.depth)
    extra = {}
    if args.window is not None:
        # stable edges lie on the last cycle, so the window needs no
        # fiber beyond the farthest one it reaches
        reach = max(abs(fiber_of(desc, v)) for v in trace.cycles[-1].order)
        window = fiber_window(desc, min(args.window, reach))
        stable = stable_limit(trace, window)
        extra["stable_edges"] = [list(e) for e in sorted(stable)]
        extra["window_half_width"] = args.window
    _print(trace.to_json(**extra), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .trace import SequenceTrace
    from .verify import verify_hc_extract

    trace = SequenceTrace.from_json(_read_text(args.trace))
    verdict = verify_hc_extract(trace)
    _emit(verdict.to_json_obj())
    return EXIT_OK if verdict.all_ok else EXIT_VERDICT_FAILS


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import hamilton_oracle

    G = graph_from_json_obj(_load_json_file(args.input))
    C = hamilton_oracle(G)
    if args.dot is not None:
        _write_text(
            args.dot, graph_to_dot(G, highlight=C.edges() if C else ())
        )
    _emit(
        {
            "hamiltonian": C is not None,
            "cycle": cycle_to_json_obj(C) if C is not None else None,
        }
    )
    return EXIT_OK if C is not None else EXIT_VERDICT_FAILS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamext",
        description=(
            "Generate, check, and extend graphs around a local degree "
            "condition; construct and verify infinite cycle sequences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named family instance as JSON")
    p.add_argument(
        "--family", required=True, choices=FINITE_FAMILIES + INFINITE_FAMILIES
    )
    p.add_argument("--q", type=int, default=None, help="cycle length parameter")
    p.add_argument(
        "--n",
        type=int,
        default=None,
        help="blow-up width (vertex bound for family rand)",
    )
    p.add_argument("--seed", type=int, default=None, help="rand family only")
    p.add_argument("--out", default=None, help="also write the JSON to a file")
    p.add_argument("--dot", default=None, help="write Graphviz source to a file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="test a condition on a finite graph")
    p.add_argument("--input", required=True, help="graph JSON file")
    p.add_argument(
        "--what", required=True, choices=("star", "clawfree", "unglkette")
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ham", help="extend to a verified Hamilton cycle")
    p.add_argument("--input", required=True, help="graph JSON file")
    p.add_argument(
        "--seed-cycle", default=None, help="starting cycle, e.g. 0,1,2"
    )
    p.add_argument("--trace", default=None, help="write the step trace here")
    p.add_argument("--dot", default=None, help="write Graphviz source to a file")
    p.set_defaults(func=_cmd_ham)

    p = sub.add_parser(
        "structure", help="separator decomposition around a cycle"
    )
    p.add_argument("--input", required=True, help="descriptor JSON file")
    p.add_argument("--cycle", required=True, help="cycle order, e.g. 0,1,2")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser(
        "infham", help="build a verified cycle sequence on an infinite family"
    )
    p.add_argument("--descriptor", required=True, help="descriptor JSON file")
    p.add_argument("--depth", type=int, required=True, help="iteration count")
    p.add_argument(
        "--window",
        type=int,
        default=None,
        help="also report stable edges on fibers -W..W",
    )
    p.add_argument("--out", default=None, help="also write the trace to a file")
    p.set_defaults(func=_cmd_infham)

    p = sub.add_parser("verify", help="re-check a stored trace")
    p.add_argument("--trace", required=True, help="trace JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive Hamilton cycle search")
    p.add_argument("--input", required=True, help="graph JSON file")
    p.add_argument("--dot", default=None, help="write Graphviz source to a file")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except (InputError, SamplingExhausted) as exc:
        _emit({"error": str(exc), "kind": "input"})
        return EXIT_INPUT
    except InvariantViolation as exc:
        _emit({"error": str(exc), "kind": "invariant", "context": _json_safe(exc.context)})
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
