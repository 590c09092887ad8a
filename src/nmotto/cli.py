"""Command-line entry point.

Subcommands: kernels | stroke | cycle | sweep | phase, each driven by a JSON
config.  Exit code 0 on success; usage and config errors exit 2, runtime
errors exit 1, all with a JSON error summary on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import load_config, parse_config
from .errors import ConfigError, NmottoError
from .sweep import run_cycle, run_phase, run_sweep, write_cycle_csv, write_kernel_csv, write_trace_csv


def _fail(summary: dict) -> None:
    json.dump(summary, sys.stderr)
    sys.stderr.write("\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors keep the CLI contract: exit 2 with JSON on stderr."""

    def error(self, message):
        _fail({"error": "UsageError", "message": message})
        self.exit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nmotto", description="Non-Markovian quantum Otto cycle simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bath=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--dynamics", help="override the config's dynamics: tcl2 or markov")
        p.add_argument("--workers", type=int, help="override the config's worker count")
        if bath:
            p.add_argument("--bath", choices=("hot", "cold"), default="hot")

    common(sub.add_parser("kernels", help="dump tau,D1,D2,a,b,A for one bath"), bath=True)
    stroke = sub.add_parser("stroke", help="dump tau,rho00 for one stroke")
    common(stroke, bath=True)
    stroke.add_argument("--rho00", type=float, default=1.0, help="initial ground population")
    cycle = sub.add_parser("cycle", help="single-cycle report (one CSV row)")
    common(cycle)
    cycle.add_argument("--json", dest="json_out", help="also write the report as JSON")
    common(sub.add_parser("sweep", help="(t_h, t_c) sweep to CSV"))
    common(sub.add_parser("phase", help="(omega ratio, T ratio) phase diagram to CSV"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    named = {}  # resolved path -> first flag naming it: no output may replace another file
    for flag, path in (("--config", args.config), ("--out", args.out),
                       ("--json", getattr(args, "json_out", None))):
        if path == "":  # it would resolve to the working directory
            parser.error(f"{flag} names no file: the path is empty")
        if path and (first := named.setdefault(os.path.realpath(path), flag)) != flag:
            parser.error(f"{flag} and {first} name the same file")
    try:
        config = load_config(args.config)
        # Overrides go through the config's own parser and checks.
        overrides = {key: getattr(args, key) for key in ("dynamics", "workers")
                     if getattr(args, key) is not None}
        config = parse_config({**config.to_dict(), **overrides})
        if args.command == "kernels":
            write_kernel_csv(config, args.out, args.bath)
        elif args.command == "stroke":
            if not 0.0 <= args.rho00 <= 1.0:
                raise ConfigError("rho00: expected a ground-state population in [0, 1]")
            write_trace_csv(config, args.out, args.bath, args.rho00)
        elif args.command == "cycle":
            write_cycle_csv(run_cycle(config), args.out, args.json_out)
        elif args.command == "sweep":
            run_sweep(config, args.out)
        elif args.command == "phase":
            run_phase(config, args.out)
    except ConfigError as exc:
        _fail({"error": type(exc).__name__, "message": str(exc),
               "context": {"config": args.config}})
        return 2
    except (NmottoError, ArithmeticError, OSError) as exc:
        _fail({"error": type(exc).__name__, "message": str(exc),
               "context": {"config": args.config, "command": args.command}})
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
