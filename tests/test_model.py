import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemocert import (
    Grid,
    InitialFamily,
    ModelParams,
    State,
    integrate_values,
    lp_norm_values,
    reaction_u,
    reaction_v,
    regularize_initial,
    sign_split,
    source_w,
    theta_threshold,
    u_mass_cap,
    v_mass_cap,
    w_data_exponent,
    w_lp_exponent_cap,
)

nonneg = st.floats(0.0, 50.0, allow_nan=False)


class TestReactions:
    def test_u_vanishes_at_zero(self):
        assert reaction_u(0.0, 3.0, 1.5) == 0.0

    def test_u_carrying_capacity(self):
        assert reaction_u(1.0, 0.0, 2.0) == 0.0

    def test_u_direct_evaluation(self):
        # oracle: 0.5 * (1 - 0.5**0.5 - 0.25)
        expected = 0.5 * (1.0 - math.sqrt(0.5) - 0.25)
        assert reaction_u(0.5, 0.25, 1.5) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.02145, abs=1e-5)

    def test_v_examples(self):
        assert reaction_v(1.0, 0.0) == 0.0
        assert reaction_v(0.5, 0.5) == 0.0  # coexistence zero
        assert reaction_v(0.2, 0.3) == pytest.approx(0.15)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            reaction_u(-0.1, 0.0, 2.0)
        with pytest.raises(ValueError):
            reaction_v(0.0, -1e-9)

    def test_nonnegativity_check_names_the_field(self):
        field = np.full((4, 4), 0.5)
        field[2, 1] = -1e-9
        with pytest.raises(ValueError, match=r"^v must be nonnegative, got min -1e-09$"):
            source_w(np.ones((4, 4)), field, 0.25)
        with pytest.raises(ValueError, match="^u must be nonnegative"):
            reaction_u(field, np.ones((4, 4)), 2.0)

    def test_nonnegativity_check_accepts_edges(self):
        # a negative zero is not negative; an empty array and a scalar pass too
        assert reaction_v(0.5, -0.0) == 0.0
        assert source_w(np.array([-0.0, 1.0]), np.zeros(2), 0.0).tolist() == [0.0, 1.0]
        assert reaction_u(np.zeros(0), np.zeros(0), 2.0).shape == (0,)
        assert source_w(0.5, 0.25, 0.0) == 0.75

    @given(u=nonneg, v=nonneg, theta=st.floats(1.01, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_u_dominated_by_logistic_part(self, u, v, theta):
        # u(1 - u^(theta-1) - v) <= u - u^theta whenever v >= 0
        lhs = reaction_u(u, v, theta)
        rhs = u - (u ** theta if u > 0 else 0.0)
        assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


class TestSourceW:
    def test_zero(self):
        assert source_w(0.0, 0.0, 0.5) == 0.0

    def test_limit_system(self):
        assert source_w(1.2, 0.8, 0.0) == pytest.approx(2.0)

    def test_saturation_arithmetic(self):
        assert source_w(2.0, 1.0, 0.5) == pytest.approx(1.2)

    @given(u=nonneg, v=nonneg, eps=st.floats(0.001, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, u, v, eps):
        s = source_w(u, v, eps)
        assert 0.0 <= s <= min(u + v, 1.0 / eps) + 1e-12

    @given(s1=nonneg, s2=nonneg, eps=st.floats(0.0, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_total(self, s1, s2, eps):
        lo, hi = min(s1, s2), max(s1, s2)
        assert source_w(lo, 0.0, eps) <= source_w(hi, 0.0, eps) + 1e-12


class TestSignSplit:
    @pytest.mark.parametrize("f,expected", [
        (0.0, (0.0, 0.0)),
        (-2.0, (0.0, 2.0)),
        (0.25, (0.25, 0.0)),
    ])
    def test_examples(self, f, expected):
        assert sign_split(f) == expected

    def test_reaction_value(self):
        f = reaction_u(0.5, 0.0, 2.0)
        assert sign_split(f) == (pytest.approx(0.25), 0.0)

    @given(f=st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_reconstruction(self, f):
        plus, minus = sign_split(f)
        assert plus >= 0.0 and minus >= 0.0
        assert plus - minus == f
        assert plus + minus == abs(f)
        assert plus * minus == 0.0


class TestExponents:
    @pytest.mark.parametrize("n,expected", [(2, 1.0), (3, 4.0 / 3.0), (4, 1.5)])
    def test_theta_threshold(self, n, expected):
        assert theta_threshold(n) == pytest.approx(expected)

    def test_threshold_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            theta_threshold(0)

    @pytest.mark.parametrize("theta,n,expected", [
        (2.0, 2, 2.0), (2.0, 5, 2.0),
        (1.2, 3, 6.0),
        (1.5, 4, 2.0),
    ])
    def test_w_data_exponent(self, theta, n, expected):
        assert w_data_exponent(theta, n) == pytest.approx(expected)

    def test_w_data_exponent_rejects_theta(self):
        with pytest.raises(ValueError):
            w_data_exponent(1.0, 2)

    @given(theta=st.floats(1.01, 5.0), n=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_w_data_exponent_at_least_two(self, theta, n):
        assert w_data_exponent(theta, n) >= 2.0

    @pytest.mark.parametrize("theta,n,expected", [
        (2.0, 2, 2.0),
        (2.0, 4, 1.0),
        (1.5, 3, 2.0),
    ])
    def test_w_lp_cap(self, theta, n, expected):
        assert w_lp_exponent_cap(theta, n) == pytest.approx(expected)

    @pytest.mark.parametrize("theta, n, expected", [
        (1.2, 1, 2.0), (1.2, 2, 4.0), (1.2, 3, 6.0),
        (1.3, 3, 3.5),
    ])
    def test_exponents_exact_on_decimal_theta(self, theta, n, expected):
        # N(2-theta)/(2(theta-1)) in floating point lands a hair off: above 2N
        # at theta = 1.2, 3.499999999999999 at theta = 1.3 and N = 3
        assert w_data_exponent(theta, n) == expected
        if theta > theta_threshold(n):  # the cap exists only above it
            assert w_lp_exponent_cap(theta, n) == expected

    @given(theta=st.floats(1.0, 1e6, exclude_min=True), n=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_exponent_is_the_decimal_quotient_rounded_once(self, theta, n):
        # reference: the quotient in exact rational arithmetic on repr(theta)
        t = Fraction(repr(theta))
        assert w_data_exponent(theta, n) == max(2.0, float(n * (2 - t) / (2 * (t - 1))))

    def test_w_lp_cap_needs_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            w_lp_exponent_cap(1.3, 3)  # threshold is 4/3

    @given(theta=st.floats(1.01, 5.0), n=st.integers(2, 3))
    @settings(max_examples=100, deadline=None)
    def test_cap_below_data_exponent_low_dim(self, theta, n):
        if theta <= theta_threshold(n):
            return
        assert w_lp_exponent_cap(theta, n) <= w_data_exponent(theta, n) + 1e-12


class TestMassCaps:
    def test_u_examples(self):
        assert u_mass_cap(0.5, 2.0, 1.0) == pytest.approx(1.5)
        assert u_mass_cap(0.0, 2.0, 2.0) == pytest.approx(2.0)
        # oracle: (theta-1) * (2/theta)^(theta/(theta-1)) at theta=1.5
        logistic = 0.5 * (4.0 / 3.0) ** 3
        assert u_mass_cap(0.0, 1.5, 1.0) == pytest.approx(max(1.0, logistic))
        assert logistic == pytest.approx(1.1852, abs=1e-4)

    def test_v_examples(self):
        assert v_mass_cap(0.0, 1.0) == pytest.approx(1.0)
        assert v_mass_cap(3.0, 1.0) == pytest.approx(4.0)
        assert v_mass_cap(0.0, 5.0) == pytest.approx(5.0)

    def test_rejections(self):
        with pytest.raises(ValueError):
            u_mass_cap(-1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            u_mass_cap(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            v_mass_cap(0.0, 0.0)

    @given(a=nonneg, b=nonneg, omega=st.floats(0.1, 10), theta=st.floats(1.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, a, b, omega, theta):
        lo, hi = min(a, b), max(a, b)
        assert u_mass_cap(lo, theta, omega) <= u_mass_cap(hi, theta, omega)
        assert v_mass_cap(lo, omega) <= v_mass_cap(hi, omega)
        assert u_mass_cap(lo, theta, omega) <= u_mass_cap(lo, theta, 2 * omega)
        assert v_mass_cap(lo, omega) <= v_mass_cap(lo, 2 * omega)


class TestParamsAndState:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="theta"):
            ModelParams(theta=1.0)
        with pytest.raises(ValueError, match="eps"):
            ModelParams(theta=2.0, eps=1.0)

    def test_state_requires_nonnegative(self):
        g = Grid(cells=(4,), lengths=(1.0,))
        with pytest.raises(ValueError, match="negative"):
            State(u=g.field([-0.1, 0, 0, 0]), v=g.constant_field(0.0),
                  w=g.constant_field(0.0))

    def test_state_requires_shared_grid(self):
        g1 = Grid(cells=(4,), lengths=(1.0,))
        g2 = Grid(cells=(5,), lengths=(1.0,))
        with pytest.raises(ValueError, match="grid"):
            State(u=g1.constant_field(0.0), v=g2.constant_field(0.0),
                  w=g1.constant_field(0.0))


class TestRegularizeInitial:
    def _family(self, grid):
        x = grid.centers(0)
        u0 = grid.field(2.0 * np.exp(-((x - 0.4) ** 2) / 0.02))
        v0 = grid.field(np.where(np.abs(x - 0.6) < 0.1, 1.5, 0.0))
        w0 = grid.constant_field(0.2)
        return InitialFamily(u0=u0, v0=v0, w0=w0)

    def test_small_eps_returns_base(self, grid_1d):
        fam = self._family(grid_1d)
        u0e, v0e, w0e = fam.regularized(1e-3)
        assert np.allclose(u0e.values, fam.u0.values)  # clip inactive
        assert np.array_equal(w0e.values, fam.w0.values)

    def test_spike_clipped_at_inverse_eps(self, grid_1d):
        vals = np.zeros(grid_1d.shape)
        vals[30] = 10.0
        base = (grid_1d.field(vals),) * 3
        u0e, _, _ = regularize_initial(base, 0.5)
        assert u0e.max() == 2.0  # cut to exactly 1/eps
        assert np.array_equal(np.delete(u0e.values, 30), np.delete(vals, 30))
        # no mass gained
        assert integrate_values(grid_1d, u0e.values) <= integrate_values(grid_1d, vals)

    def test_l1_bounds_hold_on_ladder(self, grid_1d):
        fam = self._family(grid_1d)
        for eps in (0.5, 0.25, 0.125, 1.0 / 64):
            u0e, v0e, w0e = fam.regularized(eps)
            g = grid_1d
            assert lp_norm_values(g, u0e.values, 1.0) <= 1.0 + lp_norm_values(g, fam.u0.values, 1.0)
            assert lp_norm_values(g, v0e.values, 1.0) <= 1.0 + lp_norm_values(g, fam.v0.values, 1.0)
            assert lp_norm_values(g, w0e.values, 2.0) <= 1.0 + lp_norm_values(g, fam.w0.values, 2.0)

    def test_default_family_reaches_base_exactly(self, grid_1d):
        fam = self._family(grid_1d)
        u0e, v0e, w0e = fam.regularized(0.25)  # 1/eps above every sup
        assert np.array_equal(u0e.values, fam.u0.values)
        assert np.array_equal(v0e.values, fam.v0.values)
        assert np.array_equal(w0e.values, fam.w0.values)

    def test_unclipped_fields_are_the_base_fields(self, grid_1d):
        fam = self._family(grid_1d)
        base = fam.base()
        # eps = 0 clips nothing, and 1/eps = 4 or 2 lies above every sup (u0's
        # is just under 2); 1/0.6 cuts u0 only, and 1/0.9 cuts u0 and v0
        for eps, clipped in ((0.0, ()), (0.25, ()), (0.5, ()), (0.6, (0,)), (0.9, (0, 1))):
            out = regularize_initial(base, eps)
            for j, (f, g) in enumerate(zip(base, out)):
                if j in clipped:
                    assert g is not f
                    assert np.array_equal(g.values, np.minimum(f.values, 1.0 / eps))
                    assert not g.values.flags.writeable
                else:
                    assert g is f

    def test_negative_base_rejected(self, grid_1d):
        bad = Grid(cells=(4,), lengths=(1.0,))
        field = bad.constant_field(0.0)
        neg = bad.field([0.0, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="negative"):
            regularize_initial((neg, field, field), 0.5)
