"""Run orchestration and CSV artifact output for the command-line tool.

Each entry point takes a validated :class:`~chemocert.config.RunConfig`,
executes its piece of the pipeline, writes deterministic full-precision CSV
artifacts plus a manifest that reproduces the run, and returns a process exit
code: 0 when every enabled check passed, 1 when any failed, with individual
failures never aborting the remaining checks.

``run_sweep`` steps the rungs of its ε ladder one share per CPU: share 0 in
this process, each other share in a forked worker, and each rung's initial
state is built in the process that steps it. A worker's results arrive with
their arrays read into their own memory, not beside a copy of the message.
Its artifacts and stdout are byte for byte the same whatever the CPU count,
and its ``[sweep] eps=…`` lines are printed in ladder order once every rung
is done. A span recorder installed in this process sees share 0 only.

``run_certify`` and each level of ``refinement_study`` walk the weak-form
certificates beside the stepper. A walker forked before the first step
takes each instant from a ring in anonymous shared memory, given only its
slot index down a pipe, and sends back the instant's products; the last
instant is walked in this process, which then folds every instant in time
order, so the certificates are the bytes of the walk over the stored
history. A span recorder in this process sees only the last instant's
walk. The dense history is still kept: the benchmark's memory counter
reads it.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import struct
import sys
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import NoReturn

import numpy as np
import scipy

from . import __version__
from .config import FLOAT_FORMAT, TOL_C, ConfigError, RunConfig, _built, _fmt, require_cells_fit
from .estimates import (
    DISSIPATION_BANDS,
    PROBE_ETAS,
    PROBE_TRIALS,
    EstimateRecord,
    check_dissipation_bounds,
    check_mass_bounds,
    check_positivity,
    check_reaction_l1,
    check_reaction_plus_unit,
    check_spacetime_bounds,
    check_w_lp,
    check_w_lp_family,
    check_z_dissipation_bounds,
    per_unit_horizon,
    probe_uniform_integrability,
    uniform_integrability_threshold,
    w_lp_figure,
)
from .grid import Grid, restrict_values
from .identities import (
    CertificateRecord,
    EntropyWeights,
    HistoryPass,
    InstantProducts,
    TimeFold,
    certify_entropy_inequality,
    certify_mass_inequality,
    certify_weakform_v,
    certify_weakform_w,
    check_weight_identities,
    history_pass,
    sample_bumps,
    weight_threshold,
    z_evolution_residual,
)
from .model import initial_state, u_mass_cap
from .solver import SERIES_NAMES, Trajectory, simulate

CERTIFICATE_KINDS = tuple(TOL_C)


# the line end of csv.writer's default dialect, which the header row uses
_LINE_END = csv.excel.lineterminator


def _body_template(n_slots: int, n_rows: int, text_columns: np.ndarray | None = None) -> str:
    """%-template of a CSV body: per line any text columns, then float slots.

    The slots are ``FLOAT_FORMAT``, the format ``_fmt`` applies to each
    value. ``text_columns`` (one row per line) are formatted here, once,
    however often the template is filled.
    """
    slots = ",".join([FLOAT_FORMAT] * n_slots) + _LINE_END
    if text_columns is None:
        return slots * n_rows
    line = ",".join([FLOAT_FORMAT] * text_columns.shape[1]) + "," + slots.replace("%", "%%")
    return (line * n_rows) % tuple(text_columns.ravel().tolist())


@dataclass(frozen=True)
class _Table:
    """Float rows and the body template whose slots they fill, row by row.

    ``len`` counts data rows.
    """

    template: str
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _write_csv(path: Path, header: list[str],
               rows: list[list] | np.ndarray | _Table) -> None:
    """Header plus one line per row, every float as ``_fmt`` writes it.

    ``rows`` may be a 2-D float array or a :class:`_Table`; it is then
    formatted in one pass of its body template, joined the way ``csv.writer``
    joins numbers.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            rows = _Table(_body_template(rows.shape[1], len(rows)), rows)
        if isinstance(rows, _Table):
            fh.write(rows.template % tuple(rows.values.ravel().tolist()))
            return
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _pairs(values: dict[str, float]) -> str:
    """The ``k=v;...`` column of a record's named figures, each as ``_fmt`` writes it."""
    return ";".join(f"{k}={_fmt(v)}" for k, v in values.items())


def _write_manifest(cfg: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# chemocert {__version__} manifest (re-runnable config echo)",
        f"# numpy {np.__version__}, scipy {scipy.__version__}",
    ]
    lines += [f"{k} = {v}" for k, v in cfg.to_mapping().items()]
    (out / "manifest.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_diagnostics(traj: Trajectory, out: Path) -> None:
    header = ["t", "dt"] + [name.removesuffix("_now") for name in SERIES_NAMES]
    dts = np.concatenate([[0.0], traj.dts])
    columns = [traj.times, dts] + [traj.series[name] for name in SERIES_NAMES]
    _write_csv(out / "diagnostics.csv", header, np.column_stack(columns))


def _fields_name(t: float) -> str:
    """File name of the field snapshot at time t."""
    return f"fields_{t:g}.csv"


def _eta_name(eta: float) -> str:
    """Name of the uniform-integrability record at eta."""
    return f"uniform_integrability_eta_{eta:g}"


def _eps_name(eps: float) -> str:
    """The rung at eps as a sweep prints it; its bands key it at the same digits."""
    return f"eps={eps:g}"


def _weights_name(weights: EntropyWeights) -> str:
    """Suffix of a sweep's band names for the weight pair."""
    return f"p{weights.p:g}_k{weights.k:g}"


def _write_fields(traj: Trajectory, out: Path) -> None:
    grid = traj.grid
    coord_names = ["x", "y"][: grid.dim]
    coords = np.column_stack([mesh.ravel() for mesh in grid.meshes()])
    template = _body_template(3, grid.n_cells, text_columns=coords)
    for t, state in traj.snapshots:
        uvw = np.column_stack([f.values.ravel() for f in (state.u, state.v, state.w)])
        _write_csv(out / _fields_name(t), coord_names + ["u", "v", "w"],
                   _Table(template, uvw))


def _estimate_rows(records: list[EstimateRecord]) -> list[list]:
    return [[r.name, r.value,
             "" if r.bound is None else r.bound,
             "" if r.slack is None else r.slack,
             r.tol, int(r.passed), _pairs(r.details)] for r in records]


def _write_estimates(records: list[EstimateRecord], out: Path) -> None:
    _write_csv(out / "estimates.csv",
               ["name", "value", "bound", "slack", "tolerance", "passed", "details"],
               _estimate_rows(records))


def _single_run_estimates(cfg: RunConfig, traj: Trajectory,
                          norms: dict[str, float]) -> list[EstimateRecord]:
    records = []
    records += check_mass_bounds(traj, cfg.params, norms["u0_l1"], norms["v0_l1"])
    records += check_spacetime_bounds(traj, cfg.params, norms["u0_l1"], norms["v0_l1"])
    records += check_reaction_l1(traj, norms["u0_l1"], norms["v0_l1"])
    records.append(check_reaction_plus_unit(traj))
    records.append(check_positivity(traj))
    records.append(check_w_lp(traj, norms["w0_lr"]))
    m1 = u_mass_cap(norms["u0_l1"], cfg.params.theta, cfg.grid.measure)
    for j, eta in enumerate(PROBE_ETAS):
        delta = uniform_integrability_threshold(eta, traj.final_time,
                                                cfg.params.theta, m1, norms["u0_l1"])
        rec = probe_uniform_integrability(traj, eta, delta, PROBE_TRIALS,
                                          seed=cfg.probe_seed + j)
        rec.name = _eta_name(eta)
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _require_distinct_names(key: str, entries, name_of) -> None:
    """Refuse two entries of list ``key`` that ``name_of`` gives one name.

    Their outputs would otherwise be merged or written twice under that name.
    """
    seen = {}
    for entry in entries:
        name = name_of(entry)
        if name in seen:
            raise ConfigError(key, f"entries {seen[name]!r} and {entry!r} would "
                                   f"both be written as {name}")
        seen[name] = entry


def _require_horizon(cfg: RunConfig) -> None:
    """Refuse T = 0 by name: sweep, certify and refine integrate over time.

    simulate takes it and writes the initial snapshot alone.
    """
    if cfg.T <= 0:
        raise ConfigError("run.T", "must be > 0 to integrate over time")


def _bump_family(cfg: RunConfig) -> list:
    """cfg's bump family; a grid too coarse to hold one is refused as grid.cells."""
    return _built("grid.cells", sample_bumps, cfg.grid, cfg.T, cfg.bump_count,
                  cfg.bump_seed)


def run_simulate(cfg: RunConfig, out_dir: str | Path) -> int:
    out = Path(out_dir)
    # simulate snapshots t = 0, every output time in (0, T], and T; config
    # keeps the output times inside [0, T]
    _require_distinct_names("run.output_times", sorted({0.0, cfg.T, *cfg.output_times}),
                            _fields_name)
    family = cfg.initial_family
    norms = family.base_norms(cfg.params.theta)
    traj = simulate(initial_state(family.base()), cfg.params, cfg.solver, cfg.T,
                    cfg.output_times)
    _write_manifest(cfg, out)
    _write_diagnostics(traj, out)
    _write_fields(traj, out)
    ok = True
    if cfg.T > 0:
        records = _single_run_estimates(cfg, traj, norms)
        _write_estimates(records, out)
        for r in records:
            print(f"[estimate] {r.name}: {'pass' if r.passed else 'FAIL'} "
                  f"(value {r.value:.6g}"
                  + (f", bound {r.bound:.6g}" if r.bound is not None else "") + ")")
            ok &= r.passed
    return 0 if ok else 1


def _l1_gaps(coarse: Trajectory, fine: Trajectory) -> dict[str, float]:
    """Per field, the time-trapezoid of the space-L^1 gap between snapshots.

    The finer trajectory is restricted onto the coarser grid first; on equal
    grids the restriction is the identity.
    """
    ts = coarse.snapshot_times()
    gaps = {}
    for name in ("u", "v", "w"):
        dvals = [np.abs(getattr(sc, name).values
                        - restrict_values(fine.grid, coarse.grid,
                                          getattr(sf, name).values)).sum()
                 * coarse.grid.cell_volume
                 for (_, sc), (_, sf) in zip(coarse.snapshots, fine.snapshots)]
        gaps[name] = float(np.trapezoid(dvals, ts))
    return gaps


def _run_share(step, rungs, conn=None) -> list[tuple[Trajectory | None, str | None]]:
    """Step one share of the ladder: ``step(rung)`` for each of its rungs.

    Each rung gives ``(traj, None)``, or ``(None, message)`` when it raised;
    the results come back in rung order. With ``conn``, they are also sent
    down it, one message per rung, once every rung of the share is stepped:
    a send blocks until the reader takes it, which must not stall the rungs
    still to step.
    """
    results = []
    for rung in rungs:
        try:
            results.append((step(rung), None))
        except Exception as exc:  # persist partial results, report, keep going
            results.append((None, str(exc)))
    if conn is not None:
        for result in results:
            _send(conn, result)
    return results


# a buffer of at least this many bytes (a numpy array's data) leaves the
# pickle and follows it in chunks of at most _CHUNK_BYTES, each received in
# place; smaller ones, such as a walked instant's products, stay inside it
_OUT_OF_BAND_BYTES = 1 << 12
_CHUNK_BYTES = 1 << 18


def _send(conn, message) -> None:
    """Send ``message`` as one pickle, then each large buffer it holds in chunks.

    The pickle is prefixed by the count and byte sizes of those buffers, so a
    message without any is a single send, as ``conn.send`` makes.
    """
    buffers = []

    def in_band(buffer: pickle.PickleBuffer) -> bool:
        view = buffer.raw()
        if view.nbytes < _OUT_OF_BAND_BYTES:
            return True
        buffers.append(view)
        return False

    head = pickle.dumps(message, protocol=5, buffer_callback=in_band)
    sizes = [view.nbytes for view in buffers]
    conn.send_bytes(struct.pack(f"!I{len(sizes)}Q", len(sizes), *sizes) + head)
    for view in buffers:
        for offset in range(0, view.nbytes, _CHUNK_BYTES):
            conn.send_bytes(view, offset, min(_CHUNK_BYTES, view.nbytes - offset))


def _recv(conn):
    """A message :func:`_send` sent: its buffers are read into the arrays' own memory.

    So an array received is held once, not beside the bytes it came in.
    """
    data = conn.recv_bytes()
    count, = struct.unpack_from("!I", data)
    buffers = []
    for size in struct.unpack_from(f"!{count}Q", data, 4):
        buffer = bytearray(size)
        for offset in range(0, size, _CHUNK_BYTES):
            conn.recv_bytes_into(buffer, offset)
        buffers.append(buffer)
    return pickle.loads(memoryview(data)[4 + 8 * count:], buffers=buffers)


def _in_child(target, args, conn, parent_end) -> None:
    parent_end.close()  # the parent holds the only copy: its exit is EOF here
    target(*args, conn)


class _Worker:
    """A forked daemon child that runs ``target(*args, conn)``.

    ``conn`` is the child's end of a two-way pipe whose other end is kept
    here, and each side holds the only copy of its end. Messages go both ways
    through :func:`_send` and :func:`_recv`. The child's exit is EOF here:
    :meth:`recv`, and :meth:`send` on a broken pipe, then raise
    ``ChildProcessError("<name> exited with status <code>")``. Use it as a
    context manager: on the way out the child is terminated (a no-op once it
    has exited) and joined.
    """

    def __init__(self, name: str, target, *args):
        import multiprocessing

        self.name = name
        # fork, not spawn: the child inherits shared mappings and patched functions
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_in_child, daemon=True,
                                args=(target, args, child_end, self.conn))
        self.proc.start()
        child_end.close()

    def __enter__(self) -> _Worker:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.join()
        self.conn.close()

    def send(self, message) -> None:
        try:
            _send(self.conn, message)
        except OSError:
            self._died()

    def recv(self):
        try:
            return _recv(self.conn)
        except (EOFError, OSError):
            self._died()

    def _died(self) -> NoReturn:
        self.proc.join()
        raise ChildProcessError(f"{self.name} exited with status {self.proc.exitcode}")


def _run_ladder(step, rungs) -> list[tuple[Trajectory | None, str | None]]:
    """Every rung's ``_run_share`` result, in rung order, one share per CPU.

    Rung j goes to share j % n, and ``step(rung)`` runs in the process of its
    share, so what a rung builds is built where it is stepped. Share 0 runs
    in this process, so what runs only here (a patched ``simulate``, a span
    recorder) still sees it; each other share runs in a forked worker. A
    worker's results are read only after share 0 is done, one message per
    rung, so they do not pile up in this process while it steps. A rung its
    worker never sent fails with the worker's exit status.
    """
    n = min(len(rungs), os.cpu_count() or 1)
    shares = [rungs[i::n] for i in range(n)]
    with ExitStack() as workers:
        forked = [workers.enter_context(_Worker("worker", _run_share, step, share))
                  for share in shares[1:]]
        results = [_run_share(step, shares[0])]
        for worker, share in zip(forked, shares[1:]):
            got = []
            try:
                while len(got) < len(share):
                    got.append(worker.recv())
            except ChildProcessError as exc:  # the worker died before sending them all
                got += [(None, str(exc))] * (len(share) - len(got))
            results.append(got)
    return [results[j % n][j // n] for j in range(len(rungs))]


def _sweep_rung(cfg: RunConfig, eps: float) -> Trajectory:
    """The sweep's rung at eps: cfg's initial data regularized at eps, stepped to T."""
    return simulate(initial_state(cfg.initial_family.regularized(eps)),
                    replace(cfg.params, eps=eps), cfg.solver, cfg.T, cfg.output_times)


def run_sweep(cfg: RunConfig, out_dir: str | Path) -> int:
    out = Path(out_dir)
    _require_horizon(cfg)
    _require_distinct_names("sweep.eps_ladder", cfg.eps_ladder, _eps_name)
    _write_manifest(cfg, out)

    trajs: dict[float, Trajectory] = {}
    failures: list[str] = []
    for eps, (traj, error) in zip(cfg.eps_ladder,
                                  _run_ladder(partial(_sweep_rung, cfg), cfg.eps_ladder)):
        if error is None:
            trajs[eps] = traj
            print(f"[sweep] {_eps_name(eps)}: {len(traj.dts)} steps")
        else:
            failures.append(f"{_eps_name(eps)}: {error}")
            print(f"[sweep] {_eps_name(eps)} FAILED: {error}", file=sys.stderr)

    done = list(trajs.values())  # in ladder order
    gap_rows = [_l1_gaps(a, b) for a, b in zip(done[:-1], done[1:])]

    records: list[EstimateRecord] = []
    if not failures:  # config keeps at least two rungs on the ladder
        records += check_dissipation_bounds(trajs)
        records.append(check_w_lp_family(trajs))
        for r in check_z_dissipation_bounds(trajs, cfg.weights):
            r.name = f"{r.name}_{_weights_name(cfg.weights)}"
            records.append(r)

    header = ["eps", "gap_u", "gap_v", "gap_w", "diss_grad_log1v", "diss_vgradw",
              "diss_grad_w", "w_lp_sup"]
    # the last rung has no finer one to take a gap to
    gaps = (gap_rows + [{name: float("nan") for name in ("u", "v", "w")}])[:len(done)]
    # the figures the bands of estimates.csv read
    table = np.column_stack(
        [list(trajs)]
        + [[g[name] for g in gaps] for name in ("u", "v", "w")]
        + [[per_unit_horizon(t, t.accumulators[key]) for t in done]
           for key in DISSIPATION_BANDS]
        + [[w_lp_figure(t)[1] for t in done]])
    _write_csv(out / "sweep.csv", header, table)
    if records:
        _write_estimates(records, out)

    ok = not failures
    floor = 1e-12
    for name in ("u", "v", "w"):
        gaps = [g[name] for g in gap_rows]
        if len(gaps) < 2:
            print(f"[sweep] {name} gaps: trend unchecked ({len(gaps)} gap; needs >= 2)")
            continue
        noninc = all(b <= a * (1.0 + 1e-9) + floor for a, b in zip(gaps[:-1], gaps[1:]))
        small_end = gaps[-1] < 0.1 * gaps[0] + floor
        print(f"[sweep] {name} gaps nonincreasing: {noninc}; "
              f"final/first = {gaps[-1] / max(gaps[0], floor):.4f}")
        ok &= noninc and small_end
    for r in records:
        print(f"[sweep] {r.name}: {'pass' if r.passed else 'FAIL'}")
        ok &= r.passed
    return 0 if ok else 1


def run_certificates(traj: Trajectory, weights: EntropyWeights,
                     bumps, tols: dict[str, float]) -> list[CertificateRecord]:
    """Mass certificate, then every weak-form kind from one pass over the stored history.

    Records come out as ``certificates.csv`` lists them.
    """
    return _by_bump(_certificate_records(traj, history_pass(traj, bumps, weights),
                                         weights, tols))


def _certificate_records(traj: Trajectory, tested: HistoryPass, weights: EntropyWeights,
                         tols: dict[str, float]) -> dict[str, list[CertificateRecord]]:
    """Each certificate kind's records, from a walk already taken."""
    return {"mass": [certify_mass_inequality(traj, tols["mass"])],
            "weakform_w": certify_weakform_w(tested, tols["weakform_w"]),
            "weakform_v": certify_weakform_v(tested, tols["weakform_v"]),
            "entropy": certify_entropy_inequality(tested, weights, tols["entropy"]),
            "z_evolution": z_evolution_residual(tested, weights, tols["z_evolution"])}


def _by_bump(per_kind: dict[str, list[CertificateRecord]]) -> list[CertificateRecord]:
    """The mass record, then bump by bump each weak-form kind's, in kind order."""
    mass, *weak_forms = per_kind.values()
    return mass + [r for bump_records in zip(*weak_forms) for r in bump_records]


# instants the walk ring holds: how far the forked walker may fall behind the
# stepper before the stepper waits for it
WALK_RING_SLOTS = 8


def _walk_ring(products: InstantProducts, ring: np.ndarray, conn) -> None:
    """The forked walker: for each slot index received, that instant's products."""
    while (slot := _recv(conn)) is not None:
        _send(conn, products(*ring[slot]))


class _Walk:
    """Step observer that walks the weak-form products beside the stepper.

    Each step boundary's (u, v, w) is copied into a ring of one-instant
    slots, in anonymous shared memory made before one walker is forked;
    instant i fills slot ``i % WALK_RING_SLOTS``. An instant is handed off
    when the next one arrives: only its slot index goes down the pipe, and
    its products come back up it. The last instant stays in this process for
    :meth:`finish`: ``perfbench/trace_child.py`` records no span of the
    walker, so that walk is the only ``identities.gradient_values`` call its
    trace of ``certify`` sees. Every instant's products come from the same
    call as in :func:`history_pass`, so they are the same bytes. Use it as a
    context manager: on the way out a walker still running is terminated and
    joined.
    """

    def __init__(self, products: InstantProducts):
        import mmap

        self.products = products
        shape = (WALK_RING_SLOTS, 3, *products.grid.shape)
        # an anonymous shared mapping, made before the fork: the walker reads
        # what this process copies in, and no named segment is left behind
        self.ring = np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)
        self.walker = _Worker("certificate walker", _walk_ring, products, self.ring)
        self.walked: list[np.ndarray] = []  # products of handed-off instants, in order
        self.arrived = 0  # instants copied into the ring

    def __enter__(self) -> _Walk:
        return self

    def __exit__(self, *exc) -> None:
        self.walker.__exit__(*exc)
        self.ring = None

    def __call__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        if self.arrived:
            self.walker.send((self.arrived - 1) % WALK_RING_SLOTS)
            # the slot to fill next still holds an instant the walker has not sent back
            if self.arrived - len(self.walked) == WALK_RING_SLOTS:
                self.walked.append(self.walker.recv())
        for dest, values in zip(self.ring[self.arrived % WALK_RING_SLOTS], (u, v, w)):
            dest[...] = values
        self.arrived += 1

    def finish(self) -> list[np.ndarray]:
        """Every instant's products, in time order; the last instant is walked here."""
        last = self.products(*self.ring[(self.arrived - 1) % WALK_RING_SLOTS])
        self.walker.send(None)
        while len(self.walked) < self.arrived - 1:
            self.walked.append(self.walker.recv())
        return self.walked + [last]


def _walked_run(cfg: RunConfig, bumps) -> tuple[Trajectory, HistoryPass]:
    """``simulate`` on cfg's base data, every weak-form kind walked beside the steps.

    The dense history is still kept: the benchmark reads the memory it holds.
    """
    state = initial_state(cfg.initial_family.base())
    with _Walk(InstantProducts(cfg.grid, cfg.params, bumps, cfg.weights)) as walk:
        traj = simulate(state, cfg.params, cfg.solver, cfg.T, cfg.output_times,
                        keep_history=True, observer=walk)
        products = walk.finish()
    return traj, TimeFold(traj.grid, traj.times, bumps)(products)


def certificate_tolerances(traj: Trajectory) -> dict[str, float]:
    """Each kind's C*(h+dt): h the finest spacing, dt the mean step."""
    scale = traj.grid.min_spacing + traj.mean_dt
    return {kind: TOL_C[kind] * scale for kind in CERTIFICATE_KINDS}


def _write_certificates(records: list[CertificateRecord], out: Path) -> None:
    rows = [[r.name, r.bump_index, r.lhs, r.rhs, r.residual, r.slack,
             r.tol, int(r.passed), _pairs(r.extras)] for r in records]
    _write_csv(out / "certificates.csv",
               ["certificate", "bump", "lhs", "rhs", "residual", "slack",
                "tolerance", "passed", "extras"], rows)


def run_certify(cfg: RunConfig, out_dir: str | Path) -> int:
    out = Path(out_dir)
    _require_horizon(cfg)
    bumps = _bump_family(cfg)
    traj, tested = _walked_run(cfg, bumps)
    per_kind = _certificate_records(traj, tested, cfg.weights, certificate_tolerances(traj))
    _write_manifest(cfg, out)
    _write_certificates(_by_bump(per_kind), out)
    ok = True
    for recs in per_kind.values():
        worst = max(abs(r.residual) for r in recs)
        passed = sum(r.passed for r in recs)
        print(f"[certify] {recs[0].name}: {passed}/{len(recs)} pass, "
              f"worst residual {worst:.3e}, tol {recs[0].tol:.3e}")
        ok &= passed == len(recs)
    return 0 if ok else 1


def run_verify_identities(out_dir: str | Path | None = None) -> int:
    rows = []
    ok = True
    for p in (0.5, 1.0, 2.0, 4.0):
        for factor in (1.1, 2.0, 10.0):
            k = weight_threshold(p) * factor
            report = check_weight_identities(p, k)
            for name, rec in report.items():
                rows.append([p, k, name, rec["max_rel_error"],
                             rec.get("printed_form_error", ""),
                             rec.get("matched_form", ""), int(rec["passed"])])
            passed = all(rec["passed"] for rec in report.values())
            ok &= passed
            print(f"[identities] p={p:g} k={k:.6g}: {'pass' if passed else 'FAIL'}")
    if out_dir is not None:
        _write_csv(Path(out_dir) / "identities.csv",
                   ["p", "k", "identity", "max_rel_error", "printed_form_error",
                    "matched_form", "passed"], rows)
    return 0 if ok else 1


def _scaled_level(cfg: RunConfig, level: int) -> RunConfig:
    grid = Grid(cells=tuple(n * 2 ** level for n in cfg.grid.cells),
                lengths=cfg.grid.lengths)
    solver = replace(cfg.solver, max_dt=cfg.solver.max_dt / 4.0 ** level)
    return replace(cfg, grid=grid, solver=solver)


# values below this floor are fitted as the floor (log2 of zero is -inf)
ORDER_FIT_FLOOR = 1e-14


def fit_order(values: list[float]) -> float:
    """Least-squares slope of log2(value) against level (h halves per level)."""
    vals = np.maximum(np.asarray(values, dtype=float), ORDER_FIT_FLOOR)
    levels = np.arange(len(vals))
    slope = np.polyfit(levels, np.log2(vals), 1)[0]
    return float(-slope)


REFINE_COLUMNS = (["level", "cells", "h", "dt_mean"]
                  + [f"mean_resid_{k}" for k in CERTIFICATE_KINDS]
                  + [f"max_resid_{k}" for k in CERTIFICATE_KINDS]
                  + ["sol_diff_u", "sol_diff_v", "sol_diff_w"])

# no order for the mass certificate: it is solver-exact, at the noise floor
ORDER_KINDS = tuple(k for k in CERTIFICATE_KINDS if k != "mass")


def refinement_study(cfg: RunConfig) -> list[dict]:
    """``refine.csv``'s rows for the (h, dt) -> (h/2, dt/4) ladder of cfg.refine_levels.

    Each row maps ``REFINE_COLUMNS`` to values: one row per level, then the
    ``order_fit`` row and the ``calibrated_C`` row, whose C sit in the
    ``mean_resid_`` columns. Bumps are drawn once on the coarsest grid and
    reused across levels so the residual decay measures discretization
    alone. The calibration constant per certificate kind is max over levels
    of max-residual/(h+dt), doubled as a family-to-family safety margin (the
    certification family may probe scales the calibration family missed).
    """
    finest = _scaled_level(cfg, cfg.refine_levels - 1).grid
    require_cells_fit("refine.levels", finest.cells)
    bumps = _bump_family(cfg)
    blank = dict.fromkeys(REFINE_COLUMNS, "")

    rows = []
    coarse = None
    for level in range(cfg.refine_levels):
        sub = _scaled_level(cfg, level)
        traj, tested = _walked_run(sub, bumps)
        print(f"[refine] level {level}: cells {sub.grid.cells}, "
              f"{len(traj.dts)} steps, mean dt {traj.mean_dt:.3e}")
        row = {**blank, "level": level, "cells": sub.grid.cells[0],
               "h": sub.grid.min_spacing, "dt_mean": traj.mean_dt}
        # tolerance 1.0: residual magnitudes are what the ladder measures
        loose = {k: 1.0 for k in CERTIFICATE_KINDS}
        per_kind = _certificate_records(traj, tested, cfg.weights, loose)
        for kind, records in per_kind.items():
            residuals = [abs(r.residual) for r in records]
            row[f"mean_resid_{kind}"] = float(np.mean(residuals))
            row[f"max_resid_{kind}"] = float(np.max(residuals))
        # a level's gaps are to the next level, which the last one lacks
        row.update((f"sol_diff_{name}", float("nan")) for name in "uvw")
        if coarse is not None:
            rows[-1].update((f"sol_diff_{name}", gap)
                            for name, gap in _l1_gaps(coarse, traj).items())
        rows.append(row)
        # the gaps read snapshots only; drop this level's history before the
        # next level forks its walker
        coarse = replace(traj, history=None)
        del traj

    order = {**blank, "level": "order_fit"}
    calibrated = {**blank, "level": "calibrated_C"}
    for kind in CERTIFICATE_KINDS:
        column = f"mean_resid_{kind}"
        order[column] = (fit_order([row[column] for row in rows])
                         if kind in ORDER_KINDS else float("nan"))
        # a level's h + dt_mean is the h + dt of certificate_tolerances
        calibrated[column] = 2.0 * max(row[f"max_resid_{kind}"] / (row["h"] + row["dt_mean"])
                                       for row in rows)
    for name in "uvw":
        order[f"sol_diff_{name}"] = fit_order([row[f"sol_diff_{name}"] for row in rows[:-1]])
    return rows + [order, calibrated]


def run_refine(cfg: RunConfig, out_dir: str | Path) -> int:
    out = Path(out_dir)
    _require_horizon(cfg)
    rows = refinement_study(cfg)
    _write_manifest(cfg, out)
    _write_csv(out / "refine.csv", REFINE_COLUMNS,
               [[row[column] for column in REFINE_COLUMNS] for row in rows])

    order, calibrated = rows[-2:]
    ok = True
    for kind in ORDER_KINDS:
        column = f"mean_resid_{kind}"
        print(f"[refine] {kind}: order {order[column]:.2f}, "
              f"calibrated C {calibrated[column]:.3e}")
        ok &= order[column] >= 0.9
    for name in "uvw":
        print(f"[refine] solution {name}: order {order[f'sol_diff_{name}']:.2f}")
        ok &= order[f"sol_diff_{name}"] >= 0.9
    return 0 if ok else 1
