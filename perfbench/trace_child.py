"""Run one chemocert command with span recorders around its module boundaries.

Usage::

    python3 perfbench/trace_child.py TRACE_JSON TRACE_ID CHEMOCERT_ARGS...

The recorders replace, for the lifetime of this process only, the functions
that one chemocert module looks up in another (for example
``chemocert.solver.solve_diffusion`` or ``chemocert.identities.gradient_values``).
Each call appends one span ``(name, start_ns, end_ns, parent_index)`` to an
in-memory list; the list, a few counters read from arguments and return
values, and the library versions are written to TRACE_JSON when the command
ends. No chemocert source file is changed. The exit status is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy
import scipy

import chemocert
from chemocert import cli, config, grid, identities, runner, solver


class Tracer:
    """Span list plus counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a recorder of spans called ``name``.

        A target the package no longer has stops the run: its layer would
        otherwise read zero and look like a gain.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            raise SystemExit(f"trace_child.py: {owner.__name__}.{attr} is gone; "
                             f"update the recorder of {name}")
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counters, args, result)
            return result

        setattr(owner, attr, recorded)


def _add(counters: dict[str, float], key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


def _count_diffusion(counters, args, result) -> None:
    # computed from array sizes: one read of the right-hand side and one
    # write of the solution; the transforms' own passes are not counted
    _add(counters, "grid.solve_diffusion.bytes_computed", args[1].nbytes + result.nbytes)


def _count_simulate(counters, args, result) -> None:
    _add(counters, "solver.steps", len(result.dts))
    history = getattr(result, "history", None) or []
    held = len(history) * 3 * result.grid.n_cells * 8 / 1e6
    counters["solver.history_mb_computed"] = max(
        counters.get("solver.history_mb_computed", 0.0), held)


def _count_csv(counters, args, result) -> None:
    path, _header, rows = args[:3]
    _add(counters, "runner.write.bytes", Path(path).stat().st_size)
    _add(counters, "runner.write.rows", len(rows))


def _count_manifest(counters, args, result) -> None:
    _add(counters, "runner.write.bytes", (Path(args[1]) / "manifest.cfg").stat().st_size)


def install(tracer: Tracer) -> None:
    tracer.wrap(cli, "load_config", "config.load")
    tracer.wrap(config.RunConfig, "build_initial_family", "config.build_initial")
    tracer.wrap(runner, "initial_state", "model.initial_state")

    tracer.wrap(solver, "solve_diffusion", "grid.solve_diffusion", _count_diffusion)
    tracer.wrap(solver, "face_gradient_values", "grid.face_gradient")
    tracer.wrap(solver, "gradient_sq_values", "grid.gradient.solver")
    tracer.wrap(identities, "gradient_values", "grid.gradient.identities")
    # estimates imports gradient_sq_values from grid inside the function that
    # uses it, so its lookup goes to the grid module itself; no other module
    # does that
    tracer.wrap(grid, "gradient_sq_values", "grid.gradient.estimates")

    for attr in ("reaction_u", "reaction_v", "source_w", "sign_split"):
        tracer.wrap(solver, attr, "model.reactions")

    tracer.wrap(runner, "simulate", "solver.simulate", _count_simulate)
    tracer.wrap(solver, "_stable_dt", "solver.stable_dt")
    tracer.wrap(solver, "_advect", "solver.advect")
    tracer.wrap(solver, "_state_diagnostics", "solver.diagnostics")

    tracer.wrap(runner, "probe_uniform_integrability", "estimates.probe")
    for attr in ("check_mass_bounds", "check_spacetime_bounds", "check_reaction_l1",
                 "check_reaction_plus_unit", "check_positivity", "check_w_lp",
                 "check_dissipation_bounds", "check_w_lp_family",
                 "check_z_dissipation_bounds"):
        tracer.wrap(runner, attr, "estimates.checks")

    tracer.wrap(runner, "sample_bumps", "identities.sample_bumps")
    for attr, kind in (("certify_mass_inequality", "mass"),
                       ("certify_weakform_w", "weakform_w"),
                       ("certify_weakform_v", "weakform_v"),
                       ("certify_entropy_inequality", "entropy"),
                       ("z_evolution_residual", "z_evolution")):
        tracer.wrap(runner, attr, f"identities.{kind}")

    # writers nest (the field writer calls the CSV writer); the benchmark
    # sums only the outermost span of a name, so nothing is counted twice
    tracer.wrap(runner, "_write_csv", "runner.write", _count_csv)
    tracer.wrap(runner, "_write_manifest", "runner.write", _count_manifest)
    for attr in ("_write_diagnostics", "_write_fields", "_write_estimates",
                 "_write_certificates"):
        tracer.wrap(runner, attr, "runner.write")


def main(argv: list[str]) -> int:
    trace_path, trace_id, command = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    status = None
    try:
        status = cli.main(command)
    finally:
        trace_path.write_text(json.dumps({
            "trace_id": trace_id,
            "exit": status,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "chemocert_file": chemocert.__file__,
            "counters": tracer.counters,
            "spans": tracer.spans,
        }), encoding="utf-8")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
