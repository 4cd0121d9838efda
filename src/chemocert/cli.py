"""Command-line interface: simulate, sweep, certify, verify-identities, refine."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, load_config
from .runner import (
    run_certify,
    run_refine,
    run_simulate,
    run_sweep,
    run_verify_identities,
)


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seeds must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemocert",
        description="Simulate the two-species chemotaxis-production system and "
                    "certify its a-priori estimates, identities, and weak forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded: str | None, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        if seeded is not None:
            p.add_argument("--seed", type=_seed, default=None, help=f"override {seeded}")

    p = sub.add_parser("simulate", help="single run: diagnostics, fields, estimates")
    add_common(p, seeded="probe.seed, the uniform-integrability probe's seed")

    p = sub.add_parser("sweep", help="regularization ladder with convergence gaps")
    add_common(p, seeded=None)  # nothing random to seed

    p = sub.add_parser("certify", help="weak-form certificates on sampled bumps")
    add_common(p, seeded="certify.seed, the seed of the bump family")

    p = sub.add_parser("verify-identities", help="entropy-weight identity suite")
    add_common(p, seeded="the seed of the evaluation points (default 0)",
               needs_config=False)
    p.add_argument("--samples", type=int, default=100,
                   help="random evaluation points per identity (default 100)")

    p = sub.add_parser("refine", help="grid/time refinement ladder and calibration")
    add_common(p, seeded="certify.seed, the seed of the bump family")
    p.add_argument("--levels", type=int, default=None,
                   help="number of (h, dt) -> (h/2, dt/4) levels (default: the "
                        "config's refine.levels, else 3)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify-identities":
            return run_verify_identities(samples=args.samples,
                                         seed=0 if args.seed is None else args.seed,
                                         out_dir=args.out)
        cfg = load_config(args.config)
        # set once here, so the manifest echoes the seed and levels actually used
        if getattr(args, "seed", None) is not None:
            key = "probe_seed" if args.command == "simulate" else "bump_seed"
            cfg = replace(cfg, **{key: args.seed})
        if getattr(args, "levels", None) is not None:
            cfg = replace(cfg, refine_levels=args.levels)
        if args.command == "simulate":
            return run_simulate(cfg, args.out)
        if args.command == "sweep":
            return run_sweep(cfg, args.out)
        if args.command == "certify":
            return run_certify(cfg, args.out)
        if args.command == "refine":
            return run_refine(cfg, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
