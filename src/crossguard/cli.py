"""Command line harness: validate scenarios, run them, sweep semantics.

Exit codes: 0 success, 2 bad argument, scenario parse error or an output
path that cannot be written, 3 scenario validation error, 4 protocol error
inside the simulator.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

from .aggregation import AggregationSemantics
from .determinism import SEED_BOUND
from .model import ProtocolError
from .runner import TRUTH_MODES, run_once, run_sweep
from .scenario import ScenarioParseError, ScenarioValidationError, load_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PROTOCOL = 4

_SEMANTICS_NAMES = [s.value for s in AggregationSemantics]


def _parse_semantics(name: str) -> AggregationSemantics:
    try:
        return AggregationSemantics(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown semantics {name!r}; choose from {', '.join(_SEMANTICS_NAMES)}"
        ) from None


def _parse_semantics_list(text: str) -> list[AggregationSemantics]:
    if text == "all":
        return list(AggregationSemantics)
    chosen = [_parse_semantics(part.strip()) for part in text.split(",") if part.strip()]
    if not chosen:
        raise argparse.ArgumentTypeError("at least one semantics is required")
    return chosen


def _integer(name: str, low: int, high: float, bounds: str) -> Callable[[str], int]:
    """An argparse type for an integer in [low, high); `bounds` says so in its messages."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {name} {text!r}; expected an integer") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"{name} must be {bounds}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossguard",
        description="Deterministic simulator for a collaborative go/stop decision layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    truth = dict(choices=TRUTH_MODES, default="fixed", help="ground-truth mode per session (default fixed)")

    p_validate = sub.add_parser("validate", help="check a scenario file and report problems")
    p_validate.add_argument("scenario", help="path to a .scenario file")

    p_run = sub.add_parser("run", help="run one scenario once and print its metrics")
    p_run.add_argument("scenario", help="path to a .scenario file")
    p_run.add_argument(
        "--semantics",
        type=_parse_semantics,
        default=AggregationSemantics.UNANIMITY_SAFE,
        help=f"decision rule: {', '.join(_SEMANTICS_NAMES)} (default unanimity_safe)",
    )
    p_run.add_argument(
        "--seed",
        type=_integer("seed", 0, SEED_BOUND, "in [0, 2^64)"),
        default=None,
        help="run seed (default: the scenario's network.seed)",
    )
    p_run.add_argument("--truth", **truth)
    p_run.add_argument("--trace", default=None, help="write the full event trace to this file")

    p_sweep = sub.add_parser("sweep", help="compare semantics across many seeded runs")
    p_sweep.add_argument("scenario", help="path to a .scenario file")
    p_sweep.add_argument(
        "--semantics",
        type=_parse_semantics_list,
        default=list(AggregationSemantics),
        help="comma-separated decision rules, or 'all' (default all)",
    )
    p_sweep.add_argument(
        "--seeds",
        type=_integer("seed count", 1, math.inf, ">= 1"),
        default=10,
        help="seed values 0..N-1, each simulated once and decided under every semantics (default 10)",
    )
    p_sweep.add_argument("--truth", **truth)
    p_sweep.add_argument(
        "--out", default=None, help="directory for per-run metrics files and summary.csv"
    )
    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    load_scenario(args.scenario)
    print(f"{args.scenario}: OK")
    return EXIT_OK


def _print_metrics(metrics) -> None:
    print(f"decisions: {metrics.decisions}  stops: {metrics.stops}  gos: {metrics.gos}")
    print(
        f"false gos: {metrics.false_go_count}  false stops: {metrics.false_stop_count}"
        f"  error rate: {metrics.error_rate:.6f}"
    )
    shown = " ".join(f"{reason}={count}" for reason, count in sorted(metrics.exclusions.items()))
    print(f"excluded claims: {shown}")
    for node in sorted(metrics.solo):
        stats = metrics.solo[node]
        print(
            f"node {node} solo error rate: {stats.error_rate:.6f}"
            f" ({stats.errors}/{stats.claims} claims)"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)

    seed = args.seed if args.seed is not None else scenario.network.seed
    trace = nullcontext() if args.trace is None else open(args.trace, "w", encoding="utf-8")
    with trace as trace_stream:
        _, metrics = run_once(
            scenario,
            args.semantics,
            seed=seed,
            truth_mode=args.truth,
            collect_trace=False,
            trace_stream=trace_stream,
        )

    print(f"scenario: {args.scenario}")
    print(f"semantics: {args.semantics.value}  seed: {seed}  truth: {args.truth}")
    _print_metrics(metrics)
    if args.trace is not None:
        print(f"trace written to {args.trace}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.out == "":  # Path("") is the current directory
        print("bad argument: --out must name a directory, got ''", file=sys.stderr)
        return EXIT_PARSE
    scenario = load_scenario(args.scenario)
    result = run_sweep(
        scenario,
        args.semantics,
        seeds=args.seeds,
        truth_mode=args.truth,
        out_dir=args.out,
        scenario_name=Path(args.scenario).stem,
    )

    print(f"scenario: {args.scenario}  seeds: {args.seeds}  truth: {args.truth}")
    header = f"{'semantics':<26} {'decisions':>9} {'stops':>7} {'gos':>7} {'false_go':>8} {'false_stop':>10} {'error_rate':>10}"
    print(header)
    for row in result.rows:
        print(
            f"{row.semantics:<26} {row.decisions:>9} {row.stops:>7} {row.gos:>7}"
            f" {row.false_go_count:>8} {row.false_stop_count:>10} {row.error_rate:>10.6f}"
        )
    for node, rate in result.solo_error_rates.items():
        print(f"node {node} solo error rate: {rate:.6f}")
    if args.out is not None:
        print(f"wrote {len(result.files)} file(s) under {args.out}")
    return EXIT_OK


_COMMANDS = {"validate": _cmd_validate, "run": _cmd_run, "sweep": _cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        for error in exc.errors:
            print(f"validation error: {error}", file=sys.stderr)
        return EXIT_VALIDATION
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except OSError as exc:
        # Reading the scenario is a parse error already; this is an output path.
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
