import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import settings

from chemocert import Grid, State

# the same examples on every run, so a property test passes or fails alike
# each time; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def gaussian_field(grid, center, sigma, mass):
    meshes = grid.meshes()
    r2 = sum((m - c) ** 2 for m, c in zip(meshes, center))
    vals = np.exp(-r2 / (2.0 * sigma ** 2))
    vals *= mass / (vals.sum() * grid.cell_volume)
    return grid.field(vals)


def bumpy_state(grid, w0=0.1, u_mass=0.5, v_mass=0.3):
    """Offset-Gaussian initial data that activates every model term."""
    if grid.dim == 1:
        cu, cv = (0.35,), (0.65,)
    else:
        cu, cv = (0.35, 0.55), (0.65, 0.40)
    return State(
        u=gaussian_field(grid, cu, 0.20, u_mass),
        v=gaussian_field(grid, cv, 0.18, v_mass),
        w=grid.constant_field(w0),
    )


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process behind, as the benchmark does.

    ``waitpid`` sees every child, also one not started through
    ``multiprocessing``; it reaps one that has exited but was never joined.
    """
    yield
    left = multiprocessing.active_children()
    assert not left, f"processes left running: {left}"
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("a child process is still running" if pid == 0 else
                f"child {pid} exited with status {status} but was never joined")


@pytest.fixture
def grid_1d():
    return Grid(cells=(64,), lengths=(1.0,))


@pytest.fixture
def grid_2d():
    return Grid(cells=(16, 16), lengths=(1.0, 1.0))
