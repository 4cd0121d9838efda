#!/usr/bin/env python3
"""Benchmark of the chemocert command-line tool.

Usage::

    python3 perfbench/run.py --workload simulate-64 --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 0

Run it from the root of a chemocert checkout. Every measured run is one
``python -m chemocert`` child process started by this single parent process,
one after another, with no pool. The child sees a fixed environment
(``PYTHONPATH`` at the checkout's ``src``, ``CHEMO_THREADS`` unset, one BLAS
and OpenMP thread) and only the config this script writes under
``perfbench/work/configs`` from ``configs/canonical.cfg``.

With ``--trace 0`` the script runs the workload's command until the runs'
wall time would exceed ``--seconds`` (at least once), with a set-up run before
each and at least ``SETUP_REPEATS`` set-up runs in all, and reports the
end-to-end metrics as medians over the runs. With ``--trace 1``
it runs the command once untraced and once under ``trace_child.py``, which
records spans at the package's module boundaries, and reports the per-layer
metrics: those every workload reaches as the result's metrics, and those
only this workload reaches on the details line. Each run's outputs are
checked before it is counted: exit status 0, every expected artifact present
and parseable, and the same digest and tolerance margin on every run of the
seed. A run that fails a check counts in ``failed`` and never in the timings.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, per-run figures, artifact digests).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CANONICAL = ROOT / "configs" / "canonical.cfg"
WORK = BENCH_DIR / "work"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    command: str                 # chemocert subcommand
    why: str                     # header comment of the generated config
    overrides: dict[str, str] = field(default_factory=dict)


WORKLOADS = {
    "simulate-64": Workload(
        "simulate",
        "the everyday single run; the only workload where CSV output and the "
        "estimate checks and probes carry real weight"),
    "certify-64": Workload(
        "certify",
        "weak-form certificates over the dense history: identities dominates "
        "the time and the history sets peak memory"),
    # not in BENCHMARK.json: a shared two-core machine needs about 25 s of
    # measuring per run for a steady figure, and a fourth workload at that
    # length does not fit the time the whole benchmark may take
    "sweep-64": Workload(
        "sweep",
        "seven-rung eps ladder with no field CSVs, no history and no "
        "certificates: almost all stepper, grid and model"),
    "sweep-256": Workload(
        "sweep",
        "the stepper at 256^2, where the working set outgrows L2 and the "
        "cosine transforms dominate; the two finest rungs of the canonical "
        "ladder, a shortened horizon and output only at the ends",
        {"grid.cells": "256, 256",
         "sweep.eps_ladder": "0.015625, 0.0078125",
         "run.T": "0.25",
         "run.output_times": "0, 0.25"}),
}


class ArtifactError(Exception):
    """A run's output is missing, unparseable or inconsistent."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_config(name: str, seed: int | None) -> tuple[Path, dict[str, str]]:
    """Write the workload's config from canonical.cfg; return it and its keys.

    The seed becomes ``probe.seed``, which only ``simulate`` reads, so it
    changes nothing on the certify and sweep workloads. ``certify.seed``
    stays at the shipped value: the certificate tolerances are calibrated
    against that bump family, and other seeds make the command fail its own
    gates (see README.md).
    """
    workload = WORKLOADS[name]
    pending = dict(workload.overrides)
    if seed is not None:
        pending["probe.seed"] = str(seed)
    lines = [f"# {name}: {workload.why}",
             "# written by perfbench/run.py from configs/canonical.cfg"
             + ("" if seed is None else f", seed {seed}"), ""]
    for line in CANONICAL.read_text(encoding="utf-8").splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if "=" in line.split("#", 1)[0] and key in pending:
            line = f"{key} = {pending.pop(key)}"
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in pending.items()]
    text = "\n".join(lines) + "\n"
    path = WORK / "configs" / f"{name}-seed{seed}.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    keys = {}
    for line in lines:
        body = line.split("#", 1)[0]
        if "=" in body:
            key, value = body.split("=", 1)
            keys[key.strip()] = value.strip()
    return path, keys


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("CHEMO_THREADS", "PYTHONPATH")}
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    status: int
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], log_path: Path) -> Child:
    """Run one child to its end; wall time and its own peak RSS via wait4."""
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def run_setup(config: Path, log_path: Path) -> tuple[float, dict]:
    child = run_child([sys.executable, str(BENCH_DIR / "setup_child.py"), str(config)],
                      log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines()
    if child.status != 0 or not lines:
        raise ArtifactError(f"set-up child exited {child.status}; see {log_path}")
    versions = json.loads(lines[-1])
    check_imported(versions["chemocert_file"])
    return child.wall_s, versions


def check_imported(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise ArtifactError(f"child imported chemocert from {path}, not from {SRC}")


# ---------------------------------------------------------------------------
# artifact checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    steps: int
    worst_tol_ratio: float
    digest: str


def read_rows(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        raise ArtifactError(f"missing {path.name}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ArtifactError(f"{path.name} has no rows")
    return rows


def number(text: str, where: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ArtifactError(f"{where}: unparseable number {text!r}") from None


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_times(spec: str) -> int:
    """Number of output times in a ``run.output_times`` value."""
    if ":" in spec:
        return int(spec.split(":")[2])
    return len({float(t) for t in spec.split(",")})


def estimate_ratios(path: Path):
    """value/bound of each bounded estimate, last ladder ratio/(1+band) of each band."""
    for row in read_rows(path):
        where = f"{path.name} {row['name']}"
        if row["passed"] != "1":
            raise ArtifactError(f"{where} failed")
        value = number(row["value"], where)
        if row["bound"] and number(row["bound"], where) > 0:
            yield value / number(row["bound"], where)
            continue
        ratios = [number(item.split("=", 1)[1], where)
                  for item in row["details"].split(";") if item.startswith("ratio_")]
        if ratios:
            yield ratios[-1] / (1.0 + number(row["tolerance"], where))


def check_simulate(out: Path, keys: dict[str, str], log: str) -> Outcome:
    diagnostics = read_rows(out / "diagnostics.csv")
    for row in diagnostics:
        if not all(math.isfinite(number(v, "diagnostics.csv")) for v in row.values()):
            raise ArtifactError("diagnostics.csv holds a non-finite value")
    if number(diagnostics[-1]["t"], "diagnostics.csv") != number(keys["run.T"], "run.T"):
        raise ArtifactError("diagnostics.csv does not end at run.T")
    cells = math.prod(int(n) for n in keys["grid.cells"].split(","))
    fields = sorted(out.glob("fields_*.csv"))
    if len(fields) != count_times(keys["run.output_times"]):
        raise ArtifactError(f"{len(fields)} field snapshots written")
    for path in fields:
        rows = read_rows(path)
        if len(rows) != cells or any(not math.isfinite(number(v, path.name))
                                     for row in rows for v in row.values()):
            raise ArtifactError(f"{path.name} is incomplete")
    worst = max(estimate_ratios(out / "estimates.csv"), default=0.0)
    return Outcome(len(diagnostics) - 1, worst, digest(out / "diagnostics.csv"))


def check_certify(out: Path, keys: dict[str, str], log: str) -> Outcome:
    rows = read_rows(out / "certificates.csv")
    pairs = len([p for p in keys["certify.weights"].split(";") if p.strip()])
    if len(rows) != 1 + int(keys["certify.bumps"]) * (2 + 2 * pairs):
        raise ArtifactError(f"certificates.csv has {len(rows)} rows")
    worst = 0.0
    for row in rows:
        where = f"certificates.csv {row['certificate']} {row['bump']}"
        if row["passed"] != "1":
            raise ArtifactError(f"{where} failed")
        worst = max(worst, abs(number(row["residual"], where)) / number(row["tolerance"], where))
    # certify writes no step count; tolerance = C * (h + mean dt), so the
    # mass row's tolerance gives mean dt and with it the number of steps
    mass = next((r for r in rows if r["certificate"] == "mass_inequality"), None)
    if mass is None:
        raise ArtifactError("certificates.csv has no mass_inequality row")
    h = min(number(L, "grid.lengths") / int(n)
            for L, n in zip(keys["grid.lengths"].split(","), keys["grid.cells"].split(",")))
    mean_dt = number(mass["tolerance"], "tolerance") / number(keys["certify.tol_c.mass"],
                                                              "tol_c.mass") - h
    steps = round(number(keys["run.T"], "run.T") / mean_dt)
    return Outcome(steps, worst, digest(out / "certificates.csv"))


def check_sweep(out: Path, keys: dict[str, str], log: str) -> Outcome:
    ladder = [number(e, "sweep.eps_ladder") for e in keys["sweep.eps_ladder"].split(",")]
    rows = read_rows(out / "sweep.csv")
    if [number(r["eps"], "sweep.csv eps") for r in rows] != ladder:
        raise ArtifactError("sweep.csv does not list the configured ladder")
    ratios = list(estimate_ratios(out / "estimates.csv"))
    for name in ("u", "v", "w"):
        gaps = [number(r[f"gap_{name}"], "sweep.csv") for r in rows[:-1]]
        if len(gaps) >= 2:
            # the command's gates: gaps nonincreasing, final below 10% of first
            ratios += [b / a for a, b in zip(gaps[:-1], gaps[1:])]
            ratios.append(gaps[-1] / gaps[0] / 0.1)
    steps = [int(line.rsplit(":", 1)[1].split()[0]) for line in log.splitlines()
             if line.startswith("[sweep] eps=") and line.endswith(" steps")]
    if len(steps) != len(ladder):
        raise ArtifactError(f"step counts reported for {len(steps)} of {len(ladder)} rungs")
    return Outcome(sum(steps), max(ratios, default=0.0), digest(out / "sweep.csv"))


CHECKS = {"simulate": check_simulate, "certify": check_certify, "sweep": check_sweep}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class Run:
    child: Child
    outcome: Outcome | None
    error: str | None = None


def run_workload(name: str, config: Path, keys: dict[str, str], tag: str,
                 trace_path: Path | None = None) -> Run:
    """One checked run of the workload's command, optionally traced."""
    command = WORKLOADS[name].command
    out = WORK / "runs" / name / tag
    shutil.rmtree(out, ignore_errors=True)
    args = [command, "--config", str(config), "--out", str(out / "artifacts")]
    if trace_path is None:
        argv = [sys.executable, "-m", "chemocert", *args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(trace_path),
                f"{name}/{tag}", *args]
    log_path = out / "stdout.log"
    child = run_child(argv, log_path)
    if child.status != 0:
        return Run(child, None, f"exit status {child.status}; see {log_path}")
    try:
        if not (out / "artifacts" / "manifest.cfg").is_file():
            raise ArtifactError("missing manifest.cfg")
        outcome = CHECKS[command](out / "artifacts", keys,
                                  log_path.read_text(encoding="utf-8"))
    except ArtifactError as exc:
        return Run(child, None, str(exc))
    return Run(child, outcome)


def consistent(runs: list[Run]) -> bool:
    """Every checked run of one seed gave the same artifacts and margin."""
    done = [r.outcome for r in runs if r.outcome is not None]
    return len({(o.steps, o.worst_tol_ratio, o.digest) for o in done}) <= 1


def describe(runs: list[Run]) -> dict:
    done = [r.outcome for r in runs if r.outcome is not None]
    return {
        "runs": [{"wall_s": r.child.wall_s, "peak_rss_mb": r.child.peak_rss_mb,
                  "exit": r.child.status, "error": r.error,
                  "steps": r.outcome.steps if r.outcome else None}
                 for r in runs],
        # tracked, not gated: a pure refactor keeps these bytes identical
        "digests": sorted({o.digest for o in done}),
        "worst_tol_ratio": sorted({o.worst_tol_ratio for o in done}),
    }


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "machine": platform.machine()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int | None, seconds: int) -> tuple[dict, dict]:
    config, keys = write_config(name, seed)
    setups: list[float] = []
    versions: dict = {}

    def set_up() -> None:
        nonlocal versions
        wall, versions = run_setup(config, WORK / "runs" / name / f"setup-{len(setups)}.log")
        setups.append(wall)

    # The machine's throughput drifts on a scale of seconds, so set-up runs
    # are spread between the measured runs rather than made in one block.
    runs: list[Run] = []
    while True:
        set_up()
        runs.append(run_workload(name, config, keys, f"run-{len(runs)}"))
        measured = [r.child.wall_s for r in runs]
        if sum(measured) + statistics.median(measured) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        set_up()

    good = [r for r in runs if r.outcome is not None]
    result = {
        "correct": bool(good) and len(good) == len(runs) and consistent(runs),
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "metrics": {},
    }
    if good:
        result["metrics"] = {
            "wall_s": metric(statistics.median(r.child.wall_s for r in good), "s"),
            "steps_per_s": metric(statistics.median(r.outcome.steps / r.child.wall_s
                                                    for r in good), "1/s"),
            "peak_rss_mb": metric(statistics.median(r.child.peak_rss_mb for r in good), "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
            "worst_tol_ratio": metric(max(r.outcome.worst_tol_ratio for r in good), "ratio"),
        }
    details = {"setup_s": setups, "versions": versions, **describe(runs)}
    return result, details


# per-layer metrics: (metric, unit, span name, span field) or, with no span
# field, a counter recorded by trace_child.py under the metric's own name.
# LAYERS are the layers every workload in BENCHMARK.json reaches; they are
# the traced run's metrics. WORKLOAD_LAYERS are reached only by some
# workloads and go on the details line of those. A layer a workload should
# reach that reads zero marks the traced run incorrect: the recorder no
# longer sees the code it was written for.
LAYERS = (
    # load_config builds the initial family itself; config.load_s leaves
    # that nested build out, config.build_initial_s counts every build
    ("config.load_s", "s", "config.load", "self_s"),
    ("config.build_initial_s", "s", "config.build_initial", "s"),
    ("model.initial_state.s", "s", "model.initial_state", "s"),
    ("grid.solve_diffusion.calls", "count", "grid.solve_diffusion", "calls"),
    ("grid.solve_diffusion.s", "s", "grid.solve_diffusion", "s"),
    ("grid.solve_diffusion.bytes_computed", "B", None, None),
    ("grid.face_gradient.calls", "count", "grid.face_gradient", "calls"),
    ("grid.face_gradient.s", "s", "grid.face_gradient", "s"),
    ("grid.gradient.solver.calls", "count", "grid.gradient.solver", "calls"),
    ("grid.gradient.solver.s", "s", "grid.gradient.solver", "s"),
    ("model.reactions.calls", "count", "model.reactions", "calls"),
    ("model.reactions.s", "s", "model.reactions", "s"),
    ("solver.simulate.calls", "count", "solver.simulate", "calls"),
    ("solver.simulate.s", "s", "solver.simulate", "s"),
    ("solver.simulate.self_s", "s", "solver.simulate", "self_s"),
    ("solver.steps", "count", None, None),
    ("solver.stable_dt.s", "s", "solver.stable_dt", "s"),
    ("solver.advect.s", "s", "solver.advect", "s"),
    ("solver.diagnostics.s", "s", "solver.diagnostics", "s"),
    ("runner.write.s", "s", "runner.write", "s"),
    ("runner.write.bytes", "B", None, None),
    ("runner.write.rows", "count", None, None),
)
_SWEEP_LAYERS = (
    ("grid.gradient.estimates.calls", "count", "grid.gradient.estimates", "calls"),
    ("grid.gradient.estimates.s", "s", "grid.gradient.estimates", "s"),
    ("estimates.checks.s", "s", "estimates.checks", "s"),
)
WORKLOAD_LAYERS = {
    "simulate-64": (
        ("estimates.probe.calls", "count", "estimates.probe", "calls"),
        ("estimates.probe.s", "s", "estimates.probe", "s"),
        ("estimates.checks.s", "s", "estimates.checks", "s"),
    ),
    "certify-64": (
        ("grid.gradient.identities.calls", "count", "grid.gradient.identities", "calls"),
        ("grid.gradient.identities.s", "s", "grid.gradient.identities", "s"),
        *((f"identities.{kind}.{fld}", unit, f"identities.{kind}", fld)
          for kind in ("mass", "weakform_w", "weakform_v", "entropy", "z_evolution")
          for fld, unit in (("calls", "count"), ("s", "s"))),
        ("identities.sample_bumps.s", "s", "identities.sample_bumps", "s"),
        ("solver.history_mb_computed", "MB", None, None),
    ),
    "sweep-64": _SWEEP_LAYERS,
    "sweep-256": _SWEEP_LAYERS,
}


def span_totals(spans: list) -> dict[str, dict[str, float]]:
    """calls, seconds and self seconds per span name.

    calls and seconds count only spans with no enclosing span of the same
    name, so nested writers are not counted twice. Self time is a span's
    duration minus that of its direct children.
    """
    duration = [end - start for _, start, end, _ in spans]
    children = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[i]
    totals: dict[str, dict[str, float]] = {}
    for i, (name, _, _, parent) in enumerate(spans):
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        total = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        total["self_s"] += (duration[i] - children[i]) / 1e9
        if parent < 0:
            total["calls"] += 1
            total["s"] += duration[i] / 1e9
    return totals


def measure_traced(name: str, seed: int | None) -> tuple[dict, dict]:
    config, keys = write_config(name, seed)
    trace_path = WORK / "runs" / name / "trace.json"
    trace_path.unlink(missing_ok=True)
    runs = [run_workload(name, config, keys, "untraced"),
            run_workload(name, config, keys, "traced", trace_path)]
    good = [r for r in runs if r.outcome is not None]
    result = {"correct": len(good) == 2 and consistent(runs), "attempted": 2,
              "failed": 2 - len(good), "metrics": {}}
    details = describe(runs)
    if not trace_path.is_file():
        return result, details
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    check_imported(trace["chemocert_file"])
    totals = span_totals(trace["spans"])
    counters = trace["counters"]

    def layer_metrics(layers) -> dict:
        return {metric_name: metric(counters.get(metric_name, 0) if span is None
                                    else totals.get(span, {}).get(fld, 0), unit)
                for metric_name, unit, span, fld in layers}

    metrics = layer_metrics(LAYERS)
    extra = layer_metrics(WORKLOAD_LAYERS[name])
    unreached = [k for k, m in {**metrics, **extra}.items() if not m["value"] > 0]
    untraced, traced = (r.child.wall_s for r in runs)
    metrics["trace_overhead_frac"] = metric((traced - untraced) / untraced, "ratio")
    result["correct"] = result["correct"] and not unreached
    result["metrics"] = metrics
    details.update(versions={"numpy": trace["numpy"], "scipy": trace["scipy"]},
                   spans=len(trace["spans"]), layers=extra, unreached=unreached)
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="becomes probe.seed (default: the shipped 7); only "
                             "simulate reads it")
    parser.add_argument("--seconds", type=int, default=25,
                        help="measuring time per workload; at least one run is made")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "chemocert" / "__init__.py", CANONICAL) if not p.is_file()]
    if missing:
        print(f"error: run from a chemocert checkout; missing {missing[0]}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            if args.trace:
                result, details = measure_traced(name, args.seed)
            else:
                result, details = measure(name, args.seed, args.seconds)
        except ArtifactError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        info = {"workload": name, "seed": args.seed, "trace": args.trace,
                "environment": environment(), **details}
        print(json.dumps(info))
        if len(names) > 1:
            for metric_name, m in result["metrics"].items():
                print(f"{name:12s} {metric_name:38s} {m['value']:.6g} {m['unit']}")
                combined["metrics"][f"{name}.{metric_name}"] = m
            for metric_name, m in details.get("layers", {}).items():
                print(f"{name:12s} {metric_name:38s} {m['value']:.6g} {m['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined if len(names) > 1 else result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
