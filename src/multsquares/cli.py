"""Command-line front end with machine-readable envelopes.

Every subcommand prints a single JSON envelope on stdout (or a text
rendering with --format text) and exits 0 on success, 1 when a check or
constraint fails, 2 on usage errors.  All values serialize as exact
strings; no floats appear anywhere in the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from . import arith, squares, theorem
from .constraints import REP_CAP
from .gaussian import parse_value
from .replay import ReplayMismatchError, replay_script
from .solver import (
    BudgetExceededError,
    ContradictionError,
    DEFAULT_BUDGET,
    MissingValueError,
    check_function,
    solve,
)


def _envelope(command: str, parameters: Dict[str, Any], result: Any, ok: bool,
              elapsed_ms: int) -> Dict[str, Any]:
    return {
        "command": command,
        "parameters": parameters,
        "result": result,
        "status": "ok" if ok else "failed",
        "elapsed_ms": elapsed_ms,
    }


def _dump(envelope: Dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(envelope, sort_keys=True, indent=2))
        return
    print(f"command: {envelope['command']}")
    for key, value in sorted(envelope["parameters"].items()):
        print(f"  {key}: {value}")
    _render_text(envelope["result"], indent="  ")
    print(f"status: {envelope['status']}")


def _render_text(node: Any, indent: str = "") -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            value = node[key]
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _render_text(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, (dict, list)):
                _render_text(item, indent + "  ")
            else:
                print(f"{indent}- {item}")
    else:
        print(f"{indent}{node}")


def _cmd_repr(args) -> (Any, bool):
    if args.k > squares.MAX_K:
        raise ValueError(f"k must be at most {squares.MAX_K}")
    # the count's table limit refuses an n too large to enumerate, so the
    # count runs first
    total = squares.count_representations(args.n, args.k)
    if args.limit is None and total > squares.MAX_LISTED:
        raise ValueError(
            f"{total} representations exceed the listing limit of"
            f" {squares.MAX_LISTED}; pass --limit to list some of them"
        )
    enum = squares.enumerate_representations(args.n, args.k, limit=args.limit)
    result = {
        "n": args.n,
        "k": args.k,
        "count": total,
        "representations": [list(r.parts) for r in enum.representations],
        "truncated": enum.truncated,
    }
    return result, True


def _cmd_exceptions(args) -> (Any, bool):
    values = squares.exceptional_set(args.k, args.bound)
    return {"k": args.k, "bound": args.bound, "exceptional": values}, True


def _cmd_verify_dubouis(args) -> (Any, bool):
    report = squares.verify_dubouis(args.k, args.bound)
    result = {
        "k": report.k,
        "bound": report.bound,
        "computed": list(report.computed),
        "closed_form": list(report.closed_form),
        "agree": report.agree,
    }
    return result, report.agree


def _cmd_solve(args) -> (Any, bool):
    report = solve(args.k, args.bound, args.budget)
    return report.to_dict(include_trace=args.trace), True


def _cmd_replay(args) -> (Any, bool):
    result = replay_script(args.k)
    return result.to_dict(), True


def _cmd_check(args) -> (Any, bool):
    with open(args.values, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
        raise ValueError(
            "--values must hold a JSON object mapping prime powers to value strings"
        )
    table = {int(key): parse_value(text) for key, text in raw.items()}
    violations = check_function(table, args.k, args.bound)
    result = {
        "k": args.k,
        "bound": args.bound,
        "violations": [v.to_dict() for v in violations],
        "violation_count": len(violations),
    }
    return result, not violations


def _cmd_frobenius(args) -> (Any, bool):
    number = arith.frobenius_number(args.a, args.b)
    gaps = arith.nonrepresentable_set(args.a, args.b)
    return {
        "a": args.a,
        "b": args.b,
        "frobenius": number,
        "nonrepresentable": gaps,
    }, True


def _cmd_theorem(args) -> (Any, bool):
    report = theorem.theorem_check(args.k, args.bound)
    ok = report.all_passed is not False
    return report.to_dict(), ok


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multsquares",
        description=(
            "Decide sums of k positive squares, and verify that a "
            "multiplicative function preserving them is the identity."
        ),
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("repr", help="enumerate and count representations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=_int_at_least(0), default=None)
    p.set_defaults(func=_cmd_repr)

    p = sub.add_parser("exceptions", help="integers with no k-square representation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_exceptions)

    p = sub.add_parser(
        "verify-dubouis", help="compare DP exceptional set with closed forms"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_verify_dubouis)

    p = sub.add_parser("solve", help="run the candidate-set solver")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET,
                   help="max queue pops of propagation (deterministic)")
    p.add_argument("--trace", action="store_true", help="include the full trace")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("replay", help="replay a scripted deduction chain")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "check",
        help="evaluate a candidate f against the generated constraints: per "
             f"target up to --bound, at most {REP_CAP} sums of squares and "
             "every coprime split",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--values", required=True,
                   help="JSON file mapping prime powers to exact values")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("frobenius", help="Frobenius number and gaps of a pair")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("theorem", help="run the full case verification")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, default=theorem.DEFAULT_BOUND)
    p.set_defaults(func=_cmd_theorem)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "format", "command") and value is not None
    }
    start = time.monotonic()
    try:
        result, ok = args.func(args)
    except (
        ContradictionError,
        BudgetExceededError,
        MissingValueError,
        ReplayMismatchError,
        arith.NotCoprimeError,
        arith.NonRepresentableError,
    ) as exc:
        elapsed = int((time.monotonic() - start) * 1000)
        envelope = _envelope(
            args.command,
            parameters,
            {"error": type(exc).__name__, "message": str(exc)},
            False,
            elapsed,
        )
        _dump(envelope, args.format)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = int((time.monotonic() - start) * 1000)
    envelope = _envelope(args.command, parameters, result, ok, elapsed)
    _dump(envelope, args.format)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
