"""CSV output: the one-pass table format against the per-value loop it replaced."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

from chemocert import Grid, State
from chemocert.config import _fmt
from chemocert.runner import _write_csv, _write_fields

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
