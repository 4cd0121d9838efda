import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemocert import (
    EntropyWeights,
    Grid,
    InitialFamily,
    ModelParams,
    SolverConfig,
    State,
    check_dissipation_bounds,
    check_mass_bounds,
    check_positivity,
    check_reaction_l1,
    check_spacetime_bounds,
    check_w_lp,
    check_w_lp_family,
    check_z_dissipation_bounds,
    lp_norm_values,
    probe_uniform_integrability,
    reaction_l1_identity_gap,
    simulate,
    u_mass_cap,
    uniform_integrability_threshold,
    uniformity_band,
)

from conftest import bumpy_state


PARAMS = ModelParams(theta=2.0, eps=0.25)


def small_run(T=1.0, cells=(24, 24), eps=0.25, theta=2.0):
    g = Grid(cells=cells, lengths=(1.0,) * len(cells))
    params = ModelParams(theta=theta, eps=eps)
    init = bumpy_state(g)
    traj = simulate(init, params, SolverConfig(max_dt=0.004), T,
                    output_times=np.linspace(0.0, T, 11))
    norms = {"u0_l1": lp_norm_values(g, init.u.values, 1.0),
             "v0_l1": lp_norm_values(g, init.v.values, 1.0),
             "w0_lr": lp_norm_values(g, init.w.values, 2.0)}
    return traj, params, norms


def zero_run(T=1.0):
    g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
    zero = State(u=g.constant_field(0.0), v=g.constant_field(0.0),
                 w=g.constant_field(0.0))
    return simulate(zero, PARAMS, SolverConfig(max_dt=0.01), T,
                    output_times=np.linspace(0.0, T, 6))


def full_cumsum_probe(traj, eta, delta, trials, seed):
    """The probe's trial loop with the running measure over every drawn atom.

    The draw is the probe's: a sample without replacement of as many atoms as
    can reach the target, then a whole permutation if roundoff left that
    short of it.
    """
    times = traj.snapshot_times()
    weights = np.empty_like(times)
    weights[1:-1] = 0.5 * (times[2:] - times[:-2])
    weights[0] = 0.5 * (times[1] - times[0])
    weights[-1] = 0.5 * (times[-1] - times[-2])
    vol = traj.grid.cell_volume
    u_flat = np.stack([s.u.values.ravel() for _, s in traj.snapshots])
    n_time, n_cells = u_flat.shape
    atom_measure = np.repeat(weights, n_cells) * vol
    atom_integral = (u_flat * weights[:, None]).ravel() * vol
    rng = np.random.default_rng(seed)
    worst, violations = 0.0, 0
    for _ in range(trials):
        target = rng.uniform(0.2, 0.999) * delta
        n_atoms = n_time * n_cells
        n_draw = n_atoms
        if atom_measure.min() > 0:
            n_draw = int(min(n_atoms, target / atom_measure.min() + 2))
        order = rng.choice(n_atoms, n_draw, replace=False)
        meas = np.cumsum(atom_measure[order])
        if meas[-1] < target and n_draw < n_atoms:
            order = rng.permutation(n_atoms)
            meas = np.cumsum(atom_measure[order])
        take = order[:int(np.searchsorted(meas, target))]
        value = float(atom_integral[take].sum())
        worst = max(worst, value)
        violations += value >= eta
    return worst, float(violations)


class TestClosedFormBounds:
    def test_zero_data_passes(self):
        traj = zero_run()
        for rec in (check_mass_bounds(traj, PARAMS, 0.0, 0.0)
                    + check_spacetime_bounds(traj, PARAMS, 0.0, 0.0)
                    + check_reaction_l1(traj, 0.0, 0.0)):
            assert rec.passed
            assert rec.value == 0.0

    def test_constant_half_half(self):
        g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
        init = State(u=g.constant_field(0.5), v=g.constant_field(0.5),
                     w=g.constant_field(0.1))
        params = ModelParams(theta=2.0, eps=0.0)
        traj = simulate(init, params, SolverConfig(max_dt=0.002), T=2.0,
                        output_times=[1.0, 2.0])
        recs = check_mass_bounds(traj, params, 0.5, 0.5)
        assert recs[0].value == pytest.approx(0.5, abs=1e-12)
        assert recs[0].bound == pytest.approx(1.5)  # max(1.5, 1.0)
        assert all(r.passed for r in recs)
        st_recs = check_spacetime_bounds(traj, params, 0.5, 0.5)
        assert st_recs[0].value == pytest.approx(0.25 * 2.0, rel=1e-6)
        assert st_recs[0].bound == pytest.approx(1.5 * 2.0 + 1.5)
        assert all(r.passed for r in st_recs)

    def test_supercritical_mass_decays_below_cap(self):
        # initial mass 5 on a unit domain exceeds the logistic level, so the
        # cap is max(1+5, 1) = 6 and the mass has to decay under it
        g = Grid(cells=(32,), lengths=(1.0,))
        init = State(u=g.constant_field(5.0), v=g.constant_field(0.0),
                     w=g.constant_field(0.0))
        params = ModelParams(theta=2.0, eps=0.0)
        traj = simulate(init, params, SolverConfig(max_dt=0.002), T=1.0,
                        output_times=[0.5, 1.0])
        recs = check_mass_bounds(traj, params, 5.0, 0.0)
        assert recs[0].bound == pytest.approx(6.0)
        assert recs[0].value == pytest.approx(5.0, abs=1e-10)  # sup is at t=0
        assert all(r.passed for r in recs)
        assert traj.series["mass_u"][-1] < 5.0  # strict decay toward the cap

    def test_bumpy_run_passes_with_slack(self):
        traj, params, norms = small_run()
        recs = (check_mass_bounds(traj, params, norms["u0_l1"], norms["v0_l1"])
                + check_spacetime_bounds(traj, params, norms["u0_l1"], norms["v0_l1"])
                + check_reaction_l1(traj, norms["u0_l1"], norms["v0_l1"]))
        for rec in recs:
            assert rec.passed, rec
            assert rec.slack > 0

    def test_reaction_sign_split_identity(self):
        traj, _, _ = small_run(T=0.5)
        gaps = reaction_l1_identity_gap(traj)
        scale = max(1.0, gaps["abs_reaction_u"])
        assert gaps["gap_u"] <= 1e-12 * scale
        assert gaps["gap_v"] <= 1e-12 * scale

    def test_positivity_record(self):
        traj, _, _ = small_run(T=0.3)
        rec = check_positivity(traj)
        assert rec.passed and rec.value >= 0.0

    def test_reaction_plus_stays_below_one(self):
        from chemocert import check_reaction_plus_unit

        # the positive part u(1 - u^(theta-1) - v)^+ peaks below
        # (theta-1)/theta * theta^(-1/(theta-1)) < 1 for every theta > 1
        for theta in (1.3, 2.0, 2.5):
            traj, _, _ = small_run(T=0.3, theta=theta)
            rec = check_reaction_plus_unit(traj)
            assert rec.passed, rec
            peak = (theta - 1.0) / theta * theta ** (-1.0 / (theta - 1.0))
            assert rec.value <= peak + 1e-12


class TestUniformityBand:
    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            uniformity_band([1.0])

    def test_zero_sequence_passes(self):
        ok, ratios = uniformity_band([0.0, 0.0, 0.0])
        assert ok and ratios == [1.0, 1.0]

    def test_saturating_sequence_passes(self):
        ok, _ = uniformity_band([1.0, 1.5, 1.65, 1.7, 1.71])
        assert ok

    def test_diverging_sequence_fails(self):
        ok, _ = uniformity_band([1.0, 2.0, 4.0, 8.0])
        assert not ok

    def test_rebound_above_band_fails(self):
        ok, _ = uniformity_band([1.0, 1.2, 1.32, 1.7])
        assert not ok

    def test_noise_inside_band_allowed(self):
        ok, _ = uniformity_band([1.0, 1.001, 1.003, 1.002])
        assert ok


def constant_family(eps_ladder, T=2.0):
    """Constant (1/2, 1/2) data: exact scalar dynamics at every eps."""
    g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
    trajs = {}
    for eps in eps_ladder:
        init = State(u=g.constant_field(0.5), v=g.constant_field(0.5),
                     w=g.constant_field(0.1))
        params = ModelParams(theta=2.0, eps=eps)
        trajs[eps] = simulate(init, params, SolverConfig(max_dt=0.002), T,
                              output_times=np.linspace(0.0, T, 21))
    return trajs


LADDER = tuple(2.0 ** -j for j in range(1, 8))


class TestEpsUniformity:
    def test_ladder_validation(self):
        trajs = constant_family([0.5])
        with pytest.raises(ValueError, match="two levels"):
            check_dissipation_bounds(trajs)
        bad = constant_family([0.25, 0.5])  # increasing
        with pytest.raises(ValueError, match="decreasing"):
            check_dissipation_bounds(bad)

    def test_constant_data_dissipation_zero(self):
        trajs = constant_family(LADDER[:4])
        for rec in check_dissipation_bounds(trajs):
            assert rec.passed
            assert rec.value == 0.0  # no gradients ever form

    def test_constant_data_w_lp_family(self):
        # needs enough rungs for the (1+eps)^-1 source factor to settle into
        # the 5% band: the final ratio is (1+eps_5)/(1+eps_6) ~= 1.03
        trajs = constant_family(LADDER[:5], T=6.0)
        params = ModelParams(theta=2.0, eps=0.0)
        rec = check_w_lp_family(trajs, params, w0_lr=0.1)
        assert rec.passed
        # oracle: w(t) = g + (w0 - g) e^{-t} with g = s/(1+eps*s), s = 1, rises
        # monotonically, so the snapshot sup is the exact value at T
        for eps in LADDER[:5]:
            g_level = 1.0 / (1.0 + eps)
            expected = max(0.1, g_level + (0.1 - g_level) * np.exp(-6.0))
            assert trajs[eps].sup_w_lp(2.0) == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("cells, exponent", [((16,), 2.0), ((8, 8), 4.0)],
                             ids=["1D", "2D"])
    def test_w_lp_exponent_follows_grid(self, cells, exponent):
        # N is the grid's dimension: at theta = 1.2 the cap and the data
        # exponent are max(2, N(2-theta)/(2(theta-1))) = max(2, 2N)
        traj, params, norms = small_run(T=0.05, cells=cells, theta=1.2)
        p = check_w_lp(traj, params, norms["w0_lr"]).details["p"]
        assert p == pytest.approx(exponent, rel=1e-12)
        initial = traj.snapshots[0][1]
        family = InitialFamily(u0=initial.u, v0=initial.v, w0=initial.w)
        r = family.base_norms(1.2)["w_data_exponent"]
        assert r == pytest.approx(exponent, rel=1e-12)

    def test_z_dissipation_requires_admissible_weights(self):
        trajs = constant_family(LADDER[:2])
        with pytest.raises(ValueError, match="sqrt"):
            check_z_dissipation_bounds(trajs, EntropyWeights(1.0, 1.0))

    def test_z_dissipation_constant_data(self):
        trajs = constant_family(LADDER[:4])
        for rec in check_z_dissipation_bounds(trajs, EntropyWeights(1.0, 2.0)):
            assert rec.passed
            assert rec.value == 0.0
            assert rec.details["coefficient_floor"] == pytest.approx(1.5)


class TestUniformIntegrability:
    def test_threshold_examples(self):
        # eta^theta / denom, then power 1/(theta-1)
        assert uniform_integrability_threshold(1.0, 2.0, 2.0, 1.5, 0.0) == \
            pytest.approx(0.25)
        val = uniform_integrability_threshold(0.5, 0.0, 1.5, 0.0, 3.5)
        assert val == pytest.approx((0.5 ** 1.5 / 4.5) ** 2)
        assert val == pytest.approx(0.006173, abs=1e-6)

    def test_threshold_monotone_in_eta(self):
        vals = [uniform_integrability_threshold(eta, 2.0, 2.0, 1.5, 0.5)
                for eta in (0.1, 0.2, 0.5, 1.0)]
        assert all(a < b for a, b in zip(vals[:-1], vals[1:]))

    def test_threshold_rejections(self):
        with pytest.raises(ValueError):
            uniform_integrability_threshold(0.0, 1.0, 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            uniform_integrability_threshold(1.0, 1.0, 1.0, 1.0, 0.0)

    def test_probe_zero_field(self):
        traj = zero_run()
        rec = probe_uniform_integrability(traj, 0.5, 0.01, trials=20, seed=1)
        assert rec.passed and rec.value == 0.0

    def test_probe_bumpy_run(self):
        traj, params, norms = small_run(T=1.0)
        m1 = u_mass_cap(norms["u0_l1"], params.theta, traj.grid.measure)
        eta = 0.25
        delta = uniform_integrability_threshold(eta, traj.final_time,
                                                params.theta, m1, norms["u0_l1"])
        rec = probe_uniform_integrability(traj, eta, delta, trials=50, seed=3)
        assert rec.passed
        assert rec.details["violations"] == 0.0
        assert rec.details["analytic_ok"] == 1.0
        assert rec.details["holder_bound"] <= eta * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_probe_matches_full_cumsum(self, seed):
        traj, params, norms = small_run(T=0.5)
        m1 = u_mass_cap(norms["u0_l1"], params.theta, traj.grid.measure)
        for eta in (0.25, 1.0, 1e6):  # at 1e6 the set takes every atom
            delta = uniform_integrability_threshold(eta, traj.final_time, params.theta,
                                                    m1, norms["u0_l1"])
            rec = probe_uniform_integrability(traj, eta, delta, trials=30, seed=seed)
            assert (rec.value, rec.details["violations"]) == full_cumsum_probe(
                traj, eta, delta, trials=30, seed=seed)

    @given(c=st.floats(0.01, 100.0), cells=st.lists(st.integers(1, 8), min_size=1, max_size=2),
           times=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6, unique=True),
           share=st.floats(1e-3, 1.0), trials=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_probe_constant_field_takes_the_right_atoms(self, c, cells, times, share,
                                                        trials, seed):
        # with u = c everywhere, each trial's set E has |E| < target <= |E| +
        # the largest atom, and its integral is c|E|; the target lies in
        # [0.2, 0.999) * delta. A draw of too few or too many atoms leaves that.
        # A single trial's target is the seed's first draw, which pins it.
        g = Grid(cells=tuple(cells), lengths=(1.0,) * len(cells))
        snap_times = [0.0] + sorted(times)
        state = State(u=g.constant_field(c), v=g.constant_field(0.0),
                      w=g.constant_field(0.0))
        traj = dataclasses.replace(zero_run(), grid=g, final_time=snap_times[-1],
                                   snapshots=[(t, state) for t in snap_times])
        half_steps = 0.5 * np.diff(snap_times)
        widths = np.concatenate([half_steps, [0.0]]) + np.concatenate([[0.0], half_steps])
        m_max = widths.max() * g.cell_volume
        delta = share * snap_times[-1] * g.measure
        roundoff = 1e-12 * c * delta
        rec = probe_uniform_integrability(traj, np.inf, delta, trials=trials, seed=seed)
        assert c * (0.2 * delta - m_max) - roundoff <= rec.value < c * 0.999 * delta + roundoff
        target = np.random.default_rng(seed).uniform(0.2, 0.999) * delta
        one = probe_uniform_integrability(traj, np.inf, delta, trials=1, seed=seed)
        assert c * (target - m_max) - roundoff <= one.value < c * target + roundoff

    def test_probe_zero_measure_atoms(self):
        # a repeated snapshot time gives its middle instant zero weight
        traj, _, _ = small_run(T=0.5)
        snaps = traj.snapshots
        traj = dataclasses.replace(traj, snapshots=snaps[:5] + [snaps[5]] * 3 + snaps[6:])
        rec = probe_uniform_integrability(traj, 0.5, 0.01, trials=20, seed=4)
        assert (rec.value, rec.details["violations"]) == full_cumsum_probe(
            traj, 0.5, 0.01, trials=20, seed=4)

    def test_probe_is_seeded(self):
        traj, _, _ = small_run(T=0.5)
        r1 = probe_uniform_integrability(traj, 0.5, 0.005, trials=10, seed=9)
        r2 = probe_uniform_integrability(traj, 0.5, 0.005, trials=10, seed=9)
        assert r1.value == r2.value
