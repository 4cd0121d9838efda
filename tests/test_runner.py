"""CSV output against the per-value loop it replaced, and the forked-worker helper."""

import csv
import multiprocessing
import os
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from chemocert import Grid, ModelParams, SolverConfig, State, simulate
from chemocert.config import _fmt, config_from_mapping, parse_config_text
from chemocert import runner
from chemocert.runner import _Worker, _write_csv, _write_diagnostics, _write_fields

from test_cli import SMALL_CFG

SPECIAL = (0.0, 5e-324, 1e300, 0.1 + 0.2, 1 / 3)


def reference_csv(path, header, rows):
    """The writer loop as it was: csv.writer over ``_fmt`` of each Python float."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(float(x)) for x in row])


def reference_fields(traj, out):
    grid = traj.grid
    flat = [m.ravel() for m in grid.meshes()]
    for t, state in traj.snapshots:
        u, v, w = state.u.values.ravel(), state.v.values.ravel(), state.w.values.ravel()
        rows = [[c[i] for c in flat] + [u[i], v[i], w[i]] for i in range(grid.n_cells)]
        reference_csv(out / f"fields_{t:g}.csv", ["x", "y"][: grid.dim] + ["u", "v", "w"],
                      rows)


def special_state(grid, seed):
    rng = np.random.default_rng(seed)
    fields = []
    for j in range(3):
        values = rng.uniform(0.0, 2.0, size=grid.n_cells)
        values[j: j + len(SPECIAL)] = SPECIAL
        fields.append(grid.field(values.reshape(grid.shape)))
    return State(*fields)


@pytest.mark.parametrize("cells, lengths", [((64,), (1.0,)), ((12, 7), (1.0, 0.6))],
                         ids=["1d-64", "2d-12x7"])
def test_fields_match_per_value_loop(tmp_path, cells, lengths):
    grid = Grid(cells=cells, lengths=lengths)
    traj = SimpleNamespace(grid=grid, snapshots=[(t, special_state(grid, seed))
                                                 for seed, t in enumerate((0.0, 0.25, 1.0))])
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    _write_fields(traj, new)
    reference_fields(traj, old)
    names = sorted(p.name for p in old.iterdir())
    assert names == sorted(p.name for p in new.iterdir())
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_table_matches_rows(tmp_path):
    rng = np.random.default_rng(0)
    table = rng.normal(scale=1e3, size=(9, 4))
    table[0] = (-0.0, np.inf, -np.inf, np.nan)
    table[1, :] = SPECIAL[1:]
    table[2, :] = (-5e-324, -1e300, 1e16, 123456789.0)
    _write_csv(tmp_path / "new.csv", ["a", "b", "c", "d"], table)
    reference_csv(tmp_path / "old.csv", ["a", "b", "c", "d"], table.tolist())
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_diagnostics_match_per_value_loop(tmp_path):
    grid = Grid(cells=(16,), lengths=(1.0,))
    rng = np.random.default_rng(1)
    state = State(*(grid.field(rng.uniform(0.0, 2.0, size=grid.shape)) for _ in range(3)))
    traj = simulate(state, ModelParams(theta=2.0, eps=0.25),
                    SolverConfig(max_dt=0.01), 0.05, [0.0, 0.05])
    _write_diagnostics(traj, tmp_path)
    header = ["t", "dt", "mass_u", "mass_v", "mass_w", "int_u_theta", "int_v_sq",
              "int_grad_w_sq", "min_u", "max_u", "min_v", "max_v", "min_w", "max_w"]
    series = ["mass_u", "mass_v", "mass_w", "int_u_theta_now", "int_v_sq_now",
              "int_grad_w_sq_now", "min_u", "max_u", "min_v", "max_v", "min_w", "max_w"]
    dts = [0.0, *traj.dts]
    rows = [[t, dts[i]] + [traj.series[k][i] for k in series]
            for i, t in enumerate(traj.times)]
    reference_csv(tmp_path / "old.csv", header, rows)
    assert len(rows) > 2
    assert (tmp_path / "diagnostics.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _exit_5(conn):
    os._exit(5)


def test_dead_child_fails_recv_and_send():
    with _Worker("helper", _exit_5) as child:
        with pytest.raises(ChildProcessError, match="^helper exited with status 5$"):
            child.recv()
        with pytest.raises(ChildProcessError, match="^helper exited with status 5$"):
            child.send(None)


def test_interrupted_sweep_reaps_its_workers(monkeypatch):
    # _run_share keeps going past an Exception, not past an interrupt; the
    # workers are still stepping when share 0 is interrupted
    main = os.getpid()

    def interrupted(rung):
        if os.getpid() == main:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with pytest.raises(KeyboardInterrupt):
        runner._run_ladder(interrupted, range(3))
    assert multiprocessing.active_children() == []


def _echo(conn):
    while (message := runner._recv(conn)) is not None:
        runner._send(conn, message)


def test_message_round_trips_bit_for_bit():
    # arrays large enough to travel beside the pickle, small ones inside it,
    # and arrays no buffer can hold as they are (strided, of objects)
    rng = np.random.default_rng(4)
    grid = Grid(cells=(256, 256), lengths=(1.0, 1.0))
    big = rng.normal(size=(512, 640))
    big.ravel()[:5] = (np.nan, np.inf, -np.inf, -0.0, 5e-324)
    message = {
        "big": big,
        "field": grid.field(rng.random(grid.shape)),
        "fortran": np.asfortranarray(rng.random((300, 200))),
        "strided": big[::3, ::2],
        "ints": rng.integers(-2 ** 62, 2 ** 62, size=70_000),
        "small": np.arange(7.0),
        "empty": np.zeros((0, 3)),
        "objects": np.array([None, "x", 1.5], dtype=object),
        "text": "rung", "none": None,
    }
    assert sum(a.nbytes for a in message.values() if isinstance(a, np.ndarray)) > 4e6
    with _Worker("echo", _echo) as child:
        for _ in range(2):
            child.send(message)
            got = child.recv()
            assert got.keys() == message.keys()
            for key, sent in message.items():
                back = got[key]
                if key == "objects":
                    assert back.tolist() == sent.tolist()
                elif isinstance(sent, np.ndarray):
                    assert (back.dtype, back.shape) == (sent.dtype, sent.shape), key
                    assert back.tobytes(order="A") == sent.tobytes(order="A"), key
                    assert back.flags.f_contiguous == sent.flags.f_contiguous, key
                elif key == "field":
                    assert back.grid == sent.grid
                    assert back.values.tobytes() == sent.values.tobytes()
                    assert not back.values.flags.writeable
                else:
                    assert back == sent, key
        child.send(None)


def test_sweep_rungs_built_where_stepped(tmp_path, monkeypatch):
    # with two CPUs the second rung is stepped in a forked worker: its
    # initial state is built there too, and its trajectory comes back with
    # the bits of the same rung stepped in this process
    cfg = config_from_mapping(parse_config_text(
        SMALL_CFG.replace("sweep.eps_ladder = 0.5, 0.25, 0.125",
                          "sweep.eps_ladder = 0.5, 0.25")))
    log = tmp_path / "rungs.log"
    built = {}
    real_initial_state, real_simulate = runner.initial_state, runner.simulate

    def initial_state(fields):
        state = real_initial_state(fields)
        built[id(state)] = os.getpid()
        return state

    def recorded(initial, params, *args):
        with log.open("a", encoding="utf-8") as fh:
            fh.write(f"{params.eps} {built[id(initial)]} {os.getpid()}\n")
        return real_simulate(initial, params, *args)

    monkeypatch.setattr(runner, "initial_state", initial_state)
    monkeypatch.setattr(runner, "simulate", recorded)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    results = runner._run_ladder(partial(runner._sweep_rung, cfg), cfg.eps_ladder)
    rows = sorted(line.split() for line in log.read_text(encoding="utf-8").splitlines())
    assert [float(eps) for eps, _, _ in rows] == [0.25, 0.5]
    assert all(built_in == stepped_in for _, built_in, stepped_in in rows)
    assert {stepper for _, _, stepper in rows} == {str(os.getpid()), rows[0][2]}
    assert rows[0][2] != str(os.getpid())

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    here = runner._run_ladder(partial(runner._sweep_rung, cfg), cfg.eps_ladder)
    for (traj, error), (local, _) in zip(results, here):
        assert error is None
        assert traj.times.tobytes() == local.times.tobytes()
        for name, values in local.series.items():
            assert traj.series[name].tobytes() == values.tobytes()
        for (t, state), (t_local, state_local) in zip(traj.snapshots, local.snapshots):
            assert t == t_local
            for name in "uvw":
                assert (getattr(state, name).values.tobytes()
                        == getattr(state_local, name).values.tobytes())
