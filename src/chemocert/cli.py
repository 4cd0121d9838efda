"""Command-line interface: simulate, sweep, certify, verify-identities, refine."""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .runner import (
    run_certify,
    run_refine,
    run_simulate,
    run_sweep,
    run_verify_identities,
)
from .solver import SchemeViolationError, SimulationAbortError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemocert",
        description="Simulate the two-species chemotaxis-production system and "
                    "certify its a-priori estimates, identities, and weak forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    out_help = "output directory (default: ./out)"
    # each run is its config file: the commands that read one take no other option
    for name, run, text in (
            ("simulate", run_simulate, "single run: diagnostics, fields, estimates"),
            ("sweep", run_sweep, "regularization ladder with convergence gaps"),
            ("certify", run_certify, "weak-form certificates on sampled bumps"),
            ("refine", run_refine, "grid/time refinement ladder and calibration")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default="out", help=out_help)

    # its evaluation points are fixed in code: 100 per identity, seed 0
    p = sub.add_parser("verify-identities", help="entropy-weight identity suite")
    p.add_argument("--out", default="out", help=out_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify-identities":
            return run_verify_identities(out_dir=args.out)
        return args.run(load_config(args.config), args.out)
    # a ConfigError is a ValueError, a dead walker's ChildProcessError an OSError,
    # and a stepper that gives up raises one of the other two
    except (OSError, ValueError, SimulationAbortError, SchemeViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
