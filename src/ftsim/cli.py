"""Command-line front end: ``ftsim run <scenario> [options]``."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .report import render_report, write_report, write_trace
from .scenario import ParseError, ValidationError, load_scenario, parse_depth
from .simulate import simulate_detailed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ftsim")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="simulate a scenario file")
    run.add_argument("scenario", help="scenario file path")
    run.add_argument("--trace", metavar="PATH", help="write the execution trace here")
    run.add_argument("--report", metavar="PATH", help="write the savings report here")
    run.add_argument("--format", choices=["csv", "text"], default="csv")
    run.add_argument("--depth", default=None, help="analysis depth (integer or 'auto')")
    run.add_argument("--no-strategies", action="store_true", help="reference run only")
    run.add_argument("--horizon", type=float, default=None, metavar="SECONDS")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.depth is not None:
            scenario = replace(scenario, depth=parse_depth(args.depth, scenario.pattern))
        if args.horizon is not None:
            scenario = replace(scenario, horizon=args.horizon)
        if args.no_strategies:
            scenario = replace(scenario, strategies_enabled=False)
        scenario.validate()
    except (ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2

    result = simulate_detailed(scenario)
    try:
        if args.trace:
            write_trace(result.trace, args.trace)
        if args.report:
            write_report(result.report, args.report, args.format)
        else:
            sys.stdout.write(render_report(result.report, "text"))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
