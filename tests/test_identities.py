import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from chemocert import (
    EntropyWeights,
    Grid,
    ModelParams,
    SolverConfig,
    SpaceTimeBump,
    State,
    certify_entropy_inequality,
    certify_mass_inequality,
    certify_weakform_v,
    certify_weakform_w,
    check_weight_identities,
    history_pass,
    sample_bumps,
    second_order_floor,
    simulate,
    weight_threshold,
    z_evolution_residual,
    z_values,
)
from chemocert.identities import (
    InstantProducts,
    TimeFold,
    bump_profile,
    bump_profile_d1,
    cap_phi,
    cap_phi_d1,
    phi,
    phi_d1,
    phi_d2,
    xi,
    xi_d1,
    xi_d2,
)

from conftest import bumpy_state


class TestWeightPrimitives:
    def test_phi_at_zero(self):
        for p in (0.5, 1.0, 3.0):
            assert phi(0.0, p) == 1.0

    def test_second_derivative_and_companion(self):
        assert phi_d2(0.0, 1.0) == pytest.approx(2.0)
        assert cap_phi_d1(0.0, 1.0) == pytest.approx(math.sqrt(2.0))
        assert cap_phi_d1(0.0, 1.0) == pytest.approx(math.sqrt(phi_d2(0.0, 1.0)))

    def test_xi_at_zero(self):
        assert xi(0.0, 3.0) == 1.0
        assert xi_d1(0.0, 3.0) == pytest.approx(-3.0)
        assert xi_d2(0.0, 3.0) == pytest.approx(9.0)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            phi(-0.1, 1.0)
        with pytest.raises(ValueError):
            phi(1.0, 0.0)
        with pytest.raises(ValueError):
            xi(1.0, -1.0)

    def test_finite_difference_consistency(self):
        # first derivatives against central differences of the primitives,
        # second derivatives against central differences of the first
        s = np.linspace(0.01, 10.0, 57)
        h = 1e-6
        for p in (0.5, 1.0, 2.0):
            fd1 = (phi(s + h, p) - phi(s - h, p)) / (2 * h)
            assert np.max(np.abs(fd1 - phi_d1(s, p)) / np.abs(phi_d1(s, p))) < 1e-6
            fd2 = (phi_d1(s + h, p) - phi_d1(s - h, p)) / (2 * h)
            assert np.max(np.abs(fd2 - phi_d2(s, p)) / np.abs(phi_d2(s, p))) < 1e-6
            fdP = (cap_phi(s + h, p) - cap_phi(s - h, p)) / (2 * h)
            assert np.max(np.abs(fdP - cap_phi_d1(s, p)) / cap_phi_d1(s, p)) < 1e-6
        for k in (0.7, 2.0):
            fd1 = (xi(s + h, k) - xi(s - h, k)) / (2 * h)
            assert np.max(np.abs(fd1 - xi_d1(s, k)) / np.abs(xi_d1(s, k))) < 1e-6
            fd2 = (xi_d1(s + h, k) - xi_d1(s - h, k)) / (2 * h)
            assert np.max(np.abs(fd2 - xi_d2(s, k)) / np.abs(xi_d2(s, k))) < 1e-6


class TestWeightIdentities:
    def test_lattice_suite(self):
        # 12 (p, k) pairs, 100 points each, against the symbolic oracle
        for p in (0.5, 1.0, 2.0, 4.0):
            for factor in (1.1, 2.0, 10.0):
                k = weight_threshold(p) * factor
                report = check_weight_identities(p, k, samples=100, seed=0)
                assert all(rec["passed"] for rec in report.values()), (p, k, report)

    def test_fourth_identity_matches_oracle_not_printed_form(self):
        report = check_weight_identities(1.0, 2.0, samples=50, seed=1)
        rec = report["gradient_pairing_coefficient"]
        assert rec["matched_form"] == "oracle"
        assert rec["max_rel_error"] < 1e-10
        assert rec["printed_form_error"] > 1e-2  # the unsigned variant is off

    def test_second_order_closed_form_example(self):
        # at s = st = 0, p = 1, k = 2 both sides equal (16 - 0)/8 = 2
        p, k = 1.0, 2.0
        lhs = (phi(0.0, p) * xi_d2(0.0, k)
               - (phi_d1(0.0, p) / math.sqrt(phi_d2(0.0, p))
                  * xi_d1(0.0, k) / math.sqrt(xi(0.0, k))) ** 2
               - 0.25 * 0.0 ** 2 * phi_d2(0.0, p) * xi(0.0, k))
        assert lhs == pytest.approx(2.0, rel=1e-12)

    def test_fifth_identity_vanishes_at_zero(self):
        p, k, st_ = 1.0, 2.0, 0.7
        lhs = (0.0 * phi_d1(0.0, p) * xi(st_, k)
               - phi(0.0, p) * xi_d1(st_, k)
               + 0.5 * cap_phi(0.0, p) * phi_d1(0.0, p)
               / math.sqrt(phi_d2(0.0, p)) * xi_d1(st_, k))
        assert abs(lhs) < 1e-14  # factor s kills the closed form exactly

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            check_weight_identities(1.0, 2.0, samples=0)


class TestWeightsAndZ:
    def test_admissibility(self):
        EntropyWeights(1.0, 2.0)
        with pytest.raises(ValueError, match="inadmissible"):
            EntropyWeights(1.0, 1.0)  # exactly at the threshold

    def test_floor_constant(self):
        assert second_order_floor(1.0, 2.0) == pytest.approx(1.5)
        assert second_order_floor(1.0, 1.0) == pytest.approx(0.0)

    def test_z_examples(self):
        assert z_values(0.0, 0.0, 1.0, 2.0) == pytest.approx(1.0)
        assert z_values(1.0, 0.0, 1.0, 2.0) == pytest.approx(0.5)
        assert z_values(1e6, 0.0, 1.0, 2.0) < 1e-5
        assert z_values(0.0, 1e3, 1.0, 2.0) < 1e-300 or \
            z_values(0.0, 1e3, 1.0, 2.0) >= 0.0

    def test_z_range_on_a_field(self):
        g = Grid(cells=(8,), lengths=(1.0,))
        rng = np.random.default_rng(0)
        u = g.field(rng.uniform(0, 5, g.shape))
        w = g.field(rng.uniform(0, 5, g.shape))
        z = z_values(u.values, w.values, 1.0, 2.0)
        assert np.all(z > 0.0) and np.all(z <= 1.0)

    @given(u=st.floats(0, 100), w=st.floats(0, 100),
           p=st.floats(0.1, 5), k=st.floats(0.1, 5))
    @settings(max_examples=100, deadline=None)
    def test_z_range_property(self, u, w, p, k):
        z = z_values(u, w, p, k)
        assert 0.0 < z <= 1.0

    @given(s=st.floats(1e-6, 1e3), k=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_decay_pairing_bounded(self, s, k):
        # k*s*exp(-k*s) peaks at exp(-1)
        assert k * s * math.exp(-k * s) <= math.exp(-1.0) * (1 + 1e-12)

    @given(u=st.floats(0, 1e6), p=st.floats(0.1, 4.0),
           factor=st.floats(1.01, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_second_order_coefficient_above_floor(self, u, p, factor):
        # the u-dependent coefficient never dips below its u -> inf floor
        k = weight_threshold(p) * factor
        frac = u / (u + 1.0)
        coeff = (4 * k ** 2 - p * (p + 1) ** 2 * frac ** 2) / (4 * (p + 1))
        floor = second_order_floor(p, k)
        assert coeff >= floor - 1e-12 * abs(floor)
        assert floor > 0.0


class TestBumps:
    def test_profile_values(self):
        assert bump_profile(0.0) == pytest.approx(math.exp(-1.0))
        assert bump_profile(1.0) == 0.0
        assert bump_profile(-1.5) == 0.0

    def test_profile_derivative_matches_fd(self):
        y = np.linspace(-0.95, 0.95, 41)
        h = 1e-7
        fd = (bump_profile(y + h) - bump_profile(y - h)) / (2 * h)
        assert np.max(np.abs(fd - bump_profile_d1(y))) < 1e-6

    def test_sampling_determinism_and_support(self):
        g = Grid(cells=(32, 32), lengths=(1.0, 1.0))
        a = sample_bumps(g, 2.0, 5, seed=42)
        b = sample_bumps(g, 2.0, 5, seed=42)
        assert a == b
        h = max(g.spacing)
        for bump in a:
            for c, r, L in zip(bump.center, bump.radius, g.lengths):
                assert c - r >= h - 1e-12 and c + r <= L - h + 1e-12
            assert bump.t_center + bump.t_radius < 2.0
        assert a[0].t_center == 0.0  # active at the initial time

    def test_sampling_rejects_coarse_grid(self):
        g = Grid(cells=(4, 4), lengths=(1.0, 1.0))
        with pytest.raises(ValueError, match="coarse"):
            sample_bumps(g, 1.0, 1, seed=0)

    def test_bump_quadrature_against_1d_oracle(self):
        # separable bump: integral = prod radius_a * I_B with
        # I_B = int_{-1}^{1} exp(1/(y^2-1)) dy by adaptive quadrature
        i_b, _ = scipy.integrate.quad(lambda y: math.exp(1.0 / (y * y - 1.0)),
                                      -1.0, 1.0)
        bump = SpaceTimeBump(center=(0.5,), radius=(0.3,), t_center=0.5,
                             t_radius=0.2)
        errs = []
        for n in (64, 256):
            g = Grid(cells=(n,), lengths=(1.0,))
            got = bump.spatial(g)[0].sum() * g.cell_volume
            errs.append(abs(got - 0.3 * i_b))
        assert errs[1] < 1e-4
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("cells, lengths", [((64, 64), (1.0, 1.0)), ((64,), (1.0,)),
                                                ((48, 20), (1.0, 0.4))])
    def test_spatial_factor_is_outer_product(self, cells, lengths):
        # reference: one factor per axis
        g = Grid(cells=cells, lengths=lengths)
        for bump in sample_bumps(g, 1.0, 20, seed=9):
            ys = [(g.centers(a) - c) / r
                  for a, (c, r) in enumerate(zip(bump.center, bump.radius))]
            vals = [bump_profile(y) for y in ys]
            ders = [bump_profile_d1(y) / r for y, r in zip(ys, bump.radius)]
            if g.dim == 1:
                expected = vals[0]
                expected_grads = (ders[0],)
            else:
                expected = vals[0][:, None] * vals[1][None, :]
                expected_grads = (ders[0][:, None] * vals[1][None, :],
                                  vals[0][:, None] * ders[1][None, :])
            got_vals, got_grads = bump.spatial(g)
            assert np.array_equal(got_vals, expected)
            for got, want in zip(got_grads, expected_grads, strict=True):
                assert np.array_equal(got, want)

    def test_fits_validation(self):
        g = Grid(cells=(16,), lengths=(1.0,))
        bad = SpaceTimeBump(center=(0.05,), radius=(0.2,), t_center=0.2,
                            t_radius=0.1)
        with pytest.raises(ValueError, match="support"):
            bad.require_fits(g, 1.0)
        late = SpaceTimeBump(center=(0.5,), radius=(0.2,), t_center=0.95,
                             t_radius=0.1)
        with pytest.raises(ValueError, match="support"):
            late.require_fits(g, 1.0)


def assert_same_pass(want, got, weights):
    for name in ("signal", "log_v"):
        for a, b in zip(getattr(want, name), getattr(got, name), strict=True):
            np.testing.assert_array_equal(a, b)
    for w in weights:
        for a, b in zip(want.superposition[w], got.superposition[w], strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(want.z_worst[w], got.z_worst[w])
    np.testing.assert_array_equal(want.z_instants, got.z_instants)


def zero_traj(T=1.0):
    g = Grid(cells=(16, 16), lengths=(1.0, 1.0))
    zero = State(u=g.constant_field(0.0), v=g.constant_field(0.0),
                 w=g.constant_field(0.0))
    params = ModelParams(theta=2.0, eps=0.25)
    return simulate(zero, params, SolverConfig(max_dt=0.01), T,
                    output_times=[T], keep_history=True)


class TestCertificatesOnOracles:
    def test_zero_trajectory_residuals_vanish(self):
        traj = zero_traj()
        weights = EntropyWeights(1.0, 2.0)
        tested = history_pass(traj, sample_bumps(traj.grid, 1.0, 4, seed=3), [weights])
        for rec_w, rec_v, rec_e, rec_z in zip(
                certify_weakform_w(tested, 1e-12),
                certify_weakform_v(tested, 1e-12),
                certify_entropy_inequality(tested, weights, 1e-12),
                z_evolution_residual(tested, weights, 1e-12), strict=True):
            assert abs(rec_w.residual) < 1e-14
            assert abs(rec_v.residual) < 1e-14
            assert abs(rec_e.residual) < 1e-14
            assert rec_z.residual < 1e-14
        assert certify_mass_inequality(traj, 1e-12).residual == 0.0

    def test_constant_config_scalar_balance(self):
        g = Grid(cells=(16, 16), lengths=(1.0, 1.0))
        init = State(u=g.constant_field(0.5), v=g.constant_field(0.5),
                     w=g.constant_field(0.1))
        params = ModelParams(theta=2.0, eps=0.25)
        traj = simulate(init, params, SolverConfig(max_dt=0.002), T=1.0,
                        output_times=np.linspace(0.1, 1.0, 10), keep_history=True)
        weights = EntropyWeights(1.0, 2.0)
        dt = traj.mean_dt
        tested = history_pass(traj, sample_bumps(g, 1.0, 4, seed=5), [weights])
        for rz, re_, rv in zip(z_evolution_residual(tested, weights, 2 * dt),
                               certify_entropy_inequality(tested, weights, 1e-4),
                               certify_weakform_v(tested, 1e-6), strict=True):
            assert rz.passed, f"z residual {rz.residual} vs 2dt {2 * dt}"
            assert re_.passed and abs(re_.residual) < 1e-4
            assert abs(rv.slack) < 1e-6  # reduces to the reaction balance

    def test_mass_certificate_near_equality(self):
        g = Grid(cells=(24,), lengths=(1.0,))
        params = ModelParams(theta=2.0, eps=0.25)
        traj = simulate(bumpy_state(g), params, SolverConfig(max_dt=0.002),
                        T=1.0, output_times=[1.0])
        rec = certify_mass_inequality(traj, 1e-8)
        assert rec.passed
        assert abs(rec.residual) < 1e-10  # identity up to solver tolerance

    def test_entropy_eps_discrepancy_sign(self):
        g = Grid(cells=(16, 16), lengths=(1.0, 1.0))
        params = ModelParams(theta=2.0, eps=0.5)
        traj = simulate(bumpy_state(g), params, SolverConfig(max_dt=0.004),
                        T=0.6, output_times=[0.6], keep_history=True)
        weights = EntropyWeights(1.0, 2.0)
        bump = sample_bumps(g, 0.6, 1, seed=8)[0]
        rec, = certify_entropy_inequality(history_pass(traj, [bump], [weights]),
                                          weights, 1e-3)
        # saturated source beats the limit form: positive discrepancy, and the
        # limit-form slack is lower by exactly that amount
        assert rec.extras["eps_discrepancy"] > 0
        assert rec.extras["limit_form_slack"] == pytest.approx(
            rec.slack - rec.extras["eps_discrepancy"], abs=1e-12)

    def test_z_evolution_requires_dense_history(self):
        g = Grid(cells=(16, 16), lengths=(1.0, 1.0))
        params = ModelParams(theta=2.0, eps=0.25)
        traj = simulate(bumpy_state(g), params, SolverConfig(max_dt=0.004),
                        T=0.5, output_times=[0.5], keep_history=True)
        # every fifth instant: a cadence of five steps
        traj = replace(traj, history=traj.history[::5])
        bump = sample_bumps(g, 0.5, 1, seed=1)[0]
        with pytest.raises(ValueError, match="cadence"):
            history_pass(traj, [bump], [EntropyWeights(1.0, 2.0)])

    def test_certificates_need_history(self):
        g = Grid(cells=(16, 16), lengths=(1.0, 1.0))
        params = ModelParams(theta=2.0, eps=0.25)
        traj = simulate(bumpy_state(g), params, SolverConfig(max_dt=0.004),
                        T=0.5, output_times=[0.5])
        bump = sample_bumps(g, 0.5, 1, seed=1)[0]
        with pytest.raises(ValueError, match="history"):
            history_pass(traj, [bump], [EntropyWeights(1.0, 2.0)])

    def test_fold_refuses_a_walk_one_instant_short(self):
        g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
        params = ModelParams(theta=2.0, eps=0.25)
        traj = simulate(bumpy_state(g), params, SolverConfig(max_dt=0.01),
                        T=0.1, output_times=[0.1], keep_history=True)
        bumps = sample_bumps(g, 0.1, 2, seed=1)
        weights = [EntropyWeights(1.0, 2.0)]
        walk = InstantProducts(g, params, bumps, weights)
        products = [walk(*(fields[name] for name in "uvw")) for fields in traj.history]
        fold = TimeFold(g, traj.times, bumps, weights)
        with pytest.raises(ValueError, match="cadence"):
            fold(products[:-1])

    def test_instants_outside_every_window_weigh_zero(self):
        # the walk may visit instants no bump window holds: overwriting their
        # fields, here two steps or more from every window, changes nothing
        g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
        params = ModelParams(theta=2.0, eps=0.25)
        traj = simulate(bumpy_state(g), params, SolverConfig(max_dt=0.01),
                        T=1.0, output_times=[1.0], keep_history=True)
        bumps = [SpaceTimeBump(center=(0.5, 0.5), radius=(0.2, 0.2),
                               t_center=0.0, t_radius=0.15),
                 SpaceTimeBump(center=(0.4, 0.6), radius=(0.25, 0.2),
                               t_center=0.7, t_radius=0.1)]
        near = np.zeros(len(traj.times), dtype=bool)
        for bump in bumps:
            lo, hi = bump.time_window()
            held = np.flatnonzero((traj.times >= lo) & (traj.times <= hi))
            near[max(held[0] - 2, 0):held[-1] + 3] = True
        far = np.flatnonzero(~near)
        # some lie between the windows, some after the last
        assert far.min() < held[0] and far.max() > held[-1]
        rng = np.random.default_rng(0)
        history = list(traj.history)
        for i in far:
            history[i] = {name: rng.uniform(0.0, 3.0, g.shape) for name in "uvw"}
        weights = [EntropyWeights(1.0, 2.0)]
        want = history_pass(traj, bumps, weights)
        got = history_pass(replace(traj, history=history), bumps, weights)
        assert_same_pass(want, got, weights)

    @pytest.mark.parametrize("case, message", [
        ("empty", "bump family is empty"),
        ("outside", "must lie strictly inside"),
        ("short", "history too short"),
        ("between", "no interior history points"),
    ])
    def test_history_pass_errors_named(self, case, message):
        g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
        params = ModelParams(theta=2.0, eps=0.25)
        T = 0.004 if case == "short" else 0.1  # a single step when short
        traj = simulate(bumpy_state(g), params, SolverConfig(max_dt=0.01),
                        T=T, output_times=[T], keep_history=True)
        bump = SpaceTimeBump(center=(0.5, 0.5), radius=(0.2, 0.2),
                             t_center=0.0, t_radius=0.002)
        bumps = {"empty": [],
                 "outside": [SpaceTimeBump(center=(0.1, 0.5), radius=(0.2, 0.2),
                                           t_center=0.05, t_radius=0.02)],
                 # a window shorter than one step, strictly between instants
                 "between": [SpaceTimeBump(center=(0.5, 0.5), radius=(0.2, 0.2),
                                           t_center=traj.times[1] + 1e-4,
                                           t_radius=1e-5)],
                 }.get(case, [bump])
        with pytest.raises(ValueError, match=message):
            history_pass(traj, bumps, [EntropyWeights(1.0, 2.0)])
