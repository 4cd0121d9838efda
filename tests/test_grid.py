import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemocert import (
    Field,
    Grid,
    GridError,
    NonFiniteFieldError,
    face_gradient_values,
    gradient_values,
    integrate_values,
    laplacian_values,
    lp_norm_values,
    restrict_values,
    solve_diffusion,
)
from chemocert.grid import _neumann_eigenvalues, _pow


class TestGridConstruction:
    def test_spacing_and_measure(self):
        g = Grid(cells=(8, 4), lengths=(2.0, 1.0))
        assert g.spacing == (0.25, 0.25)
        assert g.measure == 2.0
        assert g.cell_volume == pytest.approx(0.0625)

    def test_rejects_bad_axes(self):
        with pytest.raises(GridError):
            Grid(cells=(0,), lengths=(1.0,))
        with pytest.raises(GridError):
            Grid(cells=(4, 4), lengths=(-1.0, 1.0))
        with pytest.raises(GridError):
            Grid(cells=(4, 4, 4), lengths=(1.0, 1.0, 1.0))

    def test_field_shape_and_finiteness(self):
        g = Grid(cells=(4,), lengths=(1.0,))
        with pytest.raises(ValueError):
            Field(g, np.zeros(5))
        with pytest.raises(NonFiniteFieldError, match=r"cell \(2,\)"):
            Field(g, np.array([0.0, 1.0, np.nan, 2.0]))

    @pytest.mark.parametrize("cells", [(5,), (3, 4)], ids=["1D", "2D"])
    def test_field_stays_read_only_across_pickling(self, cells):
        # sweep rungs come back from worker processes pickled
        g = Grid(cells=cells, lengths=(1.0,) * len(cells))
        f = g.field(np.arange(g.n_cells, dtype=float).reshape(g.shape))
        back = pickle.loads(pickle.dumps(f))
        assert back.grid == g
        assert np.array_equal(back.values, f.values)
        assert not back.values.flags.writeable

    def test_unpickled_field_holds_its_data_once(self):
        # a received field keeps the array the unpickler made; a copy of it
        # would hold a received sweep rung's field data twice
        g = Grid(cells=(256, 256), lengths=(1.0, 1.0))
        f = g.field(np.arange(g.n_cells, dtype=float).reshape(g.shape))
        payload = pickle.dumps(f)
        tracemalloc.start()
        try:
            back = pickle.loads(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.grid == g and np.array_equal(back.values, f.values)
        assert not back.values.flags.writeable
        assert peak < 1.5 * f.values.nbytes

    def test_unpickled_non_finite_field_refused(self):
        g = Grid(cells=(4,), lengths=(1.0,))
        values = np.array([1.5, 2.5, 3.5, 4.5])
        payload = pickle.dumps(g.field(values))
        forged = values.copy()
        forged[1] = np.inf
        assert payload.count(values.tobytes()) == 1
        with pytest.raises(NonFiniteFieldError, match=r"cell \(1,\)"):
            pickle.loads(payload.replace(values.tobytes(), forged.tobytes()))


class TestIntegrate:
    def test_constant_times_measure(self):
        g = Grid(cells=(10, 10), lengths=(2.0, 1.0))
        assert integrate_values(g, g.constant_field(3.0).values) == pytest.approx(6.0)

    def test_zero_field(self):
        g = Grid(cells=(7,), lengths=(1.0,))
        assert integrate_values(g, g.constant_field(0.0).values) == 0.0

    def test_linear_function_exact(self, grid_1d):
        # midpoint rule is exact for linears: closed form gives 1/2
        f = grid_1d.field(grid_1d.centers(0))
        assert integrate_values(f.grid, f.values) == pytest.approx(0.5, abs=1e-14)

    def test_non_finite_rejected_with_index(self, grid_1d):
        vals = np.zeros(grid_1d.shape)
        vals[13] = np.inf
        with pytest.raises(NonFiniteFieldError, match=r"\(13,\)"):
            integrate_values(grid_1d, vals)

    @given(a=st.floats(-10, 10), b=st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, a, b):
        g = Grid(cells=(12,), lengths=(1.5,))
        rng = np.random.default_rng(42)
        f = rng.random(g.shape)
        h = rng.random(g.shape)
        lhs = integrate_values(g, a * f + b * h)
        rhs = a * integrate_values(g, f) + b * integrate_values(g, h)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestLpNorm:
    def test_constant(self):
        g = Grid(cells=(5, 5), lengths=(1.0, 1.0))
        assert lp_norm_values(g, g.constant_field(2.0).values, 3.0) == pytest.approx(2.0)

    def test_zero(self):
        g = Grid(cells=(5,), lengths=(1.0,))
        for p in (1.0, 2.0, 3.7):
            assert lp_norm_values(g, g.constant_field(0.0).values, p) == 0.0

    def test_half_indicator(self):
        # direct summation oracle: 32 of 64 unit-mass cells set to one
        g = Grid(cells=(64,), lengths=(1.0,))
        vals = np.zeros(64)
        vals[:32] = 1.0
        expected = (np.sum(vals ** 2) * g.cell_volume) ** 0.5
        assert lp_norm_values(g, vals, 2.0) == pytest.approx(expected)
        assert expected == pytest.approx(np.sqrt(0.5))

    def test_fractional_p_and_l1(self, grid_1d):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(grid_1d.shape)
        assert lp_norm_values(grid_1d, vals, 1.0) == pytest.approx(
            integrate_values(grid_1d, np.abs(vals)))
        assert lp_norm_values(grid_1d, vals, 2.5) > 0

    def test_p_below_one_rejected(self, grid_1d):
        with pytest.raises(ValueError, match="p"):
            lp_norm_values(grid_1d, grid_1d.constant_field(1.0).values, 0.5)

    @given(scale=st.floats(1.0, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_magnitude(self, scale):
        g = Grid(cells=(16,), lengths=(1.0,))
        rng = np.random.default_rng(3)
        vals = rng.random(g.shape)
        assert lp_norm_values(g, scale * vals, 2.0) >= lp_norm_values(g, vals, 2.0)


class TestPow:
    @pytest.mark.parametrize("expo", [1.0, 2.0, 0.5, 1.7])
    def test_bitwise_masked_exp_log(self, expo):
        # a base without zeros skips the mask; every bit must stay as the
        # masked exp(expo*log) gives it, on strided views too
        rng = np.random.default_rng(1)
        base = rng.uniform(1e-3, 3.0, size=(40, 37))
        zeros = base.copy()
        zeros[::3, ::5] = 0.0
        for x in (base, base[::2, 1::3], base.T, base[5], zeros, zeros[1::2, ::2]):
            want = np.zeros(x.shape)
            pos = x > 0
            want[pos] = np.exp(expo * np.log(x[pos]))
            got = _pow(x, expo)
            assert got.shape == x.shape
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_zero_dim_returns_float(self):
        for x, want in ((2.5, float(np.exp(1.7 * np.log(np.array([2.5])))[0])),
                        (0.0, 0.0)):
            got = _pow(np.float64(x), 1.7)
            assert type(got) is float and got == want


class TestGradient:
    def test_constant_is_exactly_zero(self):
        g = Grid(cells=(12, 9), lengths=(1.0, 2.0))
        for comp in gradient_values(g, np.full(g.shape, 4.2)):
            assert np.all(comp == 0.0)

    def test_linear_profile(self, grid_1d):
        comp, = gradient_values(grid_1d, grid_1d.centers(0))
        assert np.allclose(comp[1:-1], 1.0)
        assert comp[0] == pytest.approx(0.5)  # mirrored ghost at the wall

    def test_symmetric_bump_antisymmetric_gradient(self, grid_1d):
        x = grid_1d.centers(0)
        bump = np.exp(-((x - 0.5) ** 2) / 0.01)
        comp, = gradient_values(grid_1d, bump)
        assert np.allclose(comp, -comp[::-1], atol=1e-13)

    def test_single_cell_axis_zero(self):
        g = Grid(cells=(1,), lengths=(1.0,))
        comp, = gradient_values(g, np.array([3.0]))
        assert comp[0] == 0.0

    def test_face_gradient_no_flux_boundaries(self, grid_2d):
        rng = np.random.default_rng(5)
        vals = rng.random(grid_2d.shape)
        gx, gy = face_gradient_values(grid_2d, vals)
        assert np.all(gx[0, :] == 0.0) and np.all(gx[-1, :] == 0.0)
        assert np.all(gy[:, 0] == 0.0) and np.all(gy[:, -1] == 0.0)


class TestLaplacian:
    def test_constant_zero(self, grid_2d):
        assert np.all(laplacian_values(grid_2d, np.full(grid_2d.shape, 1.7)) == 0.0)

    def test_quadratic_interior(self, grid_1d):
        x = grid_1d.centers(0)
        lap = laplacian_values(grid_1d, x ** 2)
        assert np.allclose(lap[1:-1], 2.0, atol=1e-10)

    def test_zero_total_mass_random(self, grid_2d):
        rng = np.random.default_rng(11)
        vals = rng.random(grid_2d.shape)
        total = integrate_values(grid_2d, laplacian_values(grid_2d, vals))
        scale = lp_norm_values(grid_2d, vals, 2.0)
        assert abs(total) <= 1e-12 * max(1.0, scale)


class TestDiffusionSolve:
    @pytest.mark.parametrize("cells, lengths", [
        ((16, 16), (1.0, 1.0)),
        ((64,), (1.0,)),
        ((12, 7), (1.0, 0.6)),
        ((9, 1), (1.0, 0.3)),
    ], ids=["2d", "1d", "2d-nonsquare", "single-cell-axis"])
    def test_spectral_solves_stencil(self, cells, lengths):
        # oracle: the solution satisfies the mirrored-ghost stencil it inverts
        grid = Grid(cells=cells, lengths=lengths)
        rng = np.random.default_rng(1)
        b = rng.random(grid.shape)
        x = solve_diffusion(grid, b, 0.02)
        res = x - 0.02 * laplacian_values(grid, x) - b
        assert np.abs(res).max() < 1e-12

    @pytest.mark.parametrize("cells, lengths", [((48, 20), (1.0, 0.4)), ((64,), (1.0,))])
    def test_eigenvalues_sum_per_axis(self, cells, lengths):
        grid = Grid(cells=cells, lengths=lengths)
        per_axis = [(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / h ** 2
                    for n, h in zip(grid.cells, grid.spacing)]
        expected = per_axis[0]
        if grid.dim == 2:
            expected = per_axis[0][:, None] + per_axis[1][None, :]
        assert np.array_equal(_neumann_eigenvalues(grid), expected)

    def test_mass_conserved(self, grid_2d):
        rng = np.random.default_rng(3)
        b = rng.random(grid_2d.shape)
        x = solve_diffusion(grid_2d, b, 0.1)
        assert x.sum() == pytest.approx(b.sum(), abs=1e-11)

    def test_tau_zero_identity(self, grid_1d):
        b = np.arange(64, dtype=float)
        assert np.array_equal(solve_diffusion(grid_1d, b, 0.0), b)



class TestRestriction:
    def test_block_average_2d(self):
        fine = Grid(cells=(4, 4), lengths=(1.0, 1.0))
        coarse = Grid(cells=(2, 2), lengths=(1.0, 1.0))
        vals = np.arange(16, dtype=float).reshape(4, 4)
        out = restrict_values(fine, coarse, vals)
        assert out[0, 0] == pytest.approx(vals[:2, :2].mean())
        assert out[1, 1] == pytest.approx(vals[2:, 2:].mean())

    def test_block_average_1d(self):
        fine = Grid(cells=(6,), lengths=(1.0,))
        coarse = Grid(cells=(2,), lengths=(1.0,))
        vals = np.array([1.0, 2.0, 6.0, 0.0, 3.0, 9.0])
        assert np.array_equal(restrict_values(fine, coarse, vals), [3.0, 4.0])

    @pytest.mark.parametrize("cells", [(256, 256), (64,), (48, 20)])
    def test_same_grid_is_identity(self, cells):
        grid = Grid(cells=cells, lengths=(1.0,) * len(cells))
        vals = np.random.default_rng(5).random(grid.shape)
        assert np.array_equal(restrict_values(grid, grid, vals), vals)

    def test_domain_mismatch_rejected(self):
        fine = Grid(cells=(4,), lengths=(2.0,))
        coarse = Grid(cells=(2,), lengths=(1.0,))
        with pytest.raises(GridError):
            restrict_values(fine, coarse, np.zeros(4))
