"""Command-line entry point.

Subcommands: kernels | stroke | cycle | sweep | phase, each driven by a JSON
config.  Exit code 0 on success; config errors exit 2, runtime errors exit 1,
both with a JSON error summary on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import load_config, require_scalar_times
from .errors import ConfigError, NmottoError
from .sweep import run_cycle, run_phase, run_sweep, write_cycle_csv, write_kernel_csv, write_trace_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nmotto",
                                     description="Non-Markovian quantum Otto cycle simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bath=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--dynamics", choices=("tcl2", "markov"), help="override the config's dynamics")
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


def _apply_overrides(config, args):
    updates = {}
    if getattr(args, "dynamics", None):
        updates["dynamics"] = args.dynamics
    if getattr(args, "workers", None) is not None:
        if args.workers < 1:
            raise ConfigError("workers: expected an integer >= 1")
        updates["workers"] = args.workers
    return dataclasses.replace(config, **updates) if updates else config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "kernels":
            write_kernel_csv(config, args.out, args.bath)
        elif args.command == "stroke":
            if not 0.0 <= args.rho00 <= 1.0:
                raise ConfigError("rho00: expected a ground-state population in [0, 1]")
            write_trace_csv(config, args.out, args.bath, args.rho00)
        elif args.command == "cycle":
            require_scalar_times(config)
            report = run_cycle(config)
            write_cycle_csv(report, args.out)
            if args.json_out:
                with open(args.json_out, "w", encoding="utf-8") as fh:
                    json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
        elif args.command == "sweep":
            run_sweep(config, args.out)
        elif args.command == "phase":
            run_phase(config, args.out)
    except ConfigError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "context": {"config": args.config}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (NmottoError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "context": {"config": args.config, "command": args.command}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
