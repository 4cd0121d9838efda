import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemocert import (
    Grid,
    ModelParams,
    SolverConfig,
    State,
    simulate,
    stable_dt,
    step,
)
from chemocert.config import load_config
from chemocert.grid import face_gradient_values, gradient_sq_values
from chemocert import solver
from chemocert.solver import SchemeViolationError, _advance, _clamp_nonneg

from conftest import bumpy_state


PARAMS = ModelParams(theta=2.0, eps=0.25)


class TestStableDt:
    def test_no_drift_no_reaction(self):
        g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
        state = State(u=g.constant_field(0.0), v=g.constant_field(0.0),
                      w=g.constant_field(1.0))
        cfg = SolverConfig(cfl_safety=0.5, max_dt=0.25)
        # transport limit inactive, reaction Lipschitz bound is 1
        assert stable_dt(state, PARAMS, cfg) == pytest.approx(0.5 * 0.25)

    def test_reaction_limited(self):
        g = Grid(cells=(8,), lengths=(1.0,))
        state = State(u=g.constant_field(0.5), v=g.constant_field(0.5),
                      w=g.constant_field(0.0))
        cfg = SolverConfig(cfl_safety=0.5, max_dt=10.0)
        # L = 1 + 2*0.5 + 0.5 + 1 = 3.5
        assert stable_dt(state, PARAMS, cfg) == pytest.approx(0.5 / 3.5)

    def test_transport_scaling(self):
        g = Grid(cells=(64,), lengths=(1.0,))
        x = g.centers(0)
        cfg = SolverConfig(cfl_safety=1.0, max_dt=10.0)
        zero = g.constant_field(0.0)
        dt1 = stable_dt(State(u=zero, v=zero, w=g.field(0.5 * x)), PARAMS, cfg)
        dt2 = stable_dt(State(u=zero, v=zero, w=g.field(1.0 * x)), PARAMS, cfg)
        assert dt2 == pytest.approx(dt1 / 2.0)
        assert dt2 == pytest.approx(g.min_spacing / (2.0 * 1.0 * 1.0))


def converging_drift_case(theta, cfl):
    """3 cells of u = 5, v = 0, w peaked in the middle so steeply that the
    transport limit equals the reaction limit 1/L at the pre-advection maxima.

    The drift carries u into the middle cell, where the reactions then see
    up to (1 + cfl) times the old maximum.
    """
    h = 1.0 / 3.0
    l_reac = 1.0 + theta * 5.0 ** (theta - 1.0) + 5.0
    peak = h * h * l_reac / 2.0  # h / (2 * peak / h) == 1 / l_reac
    return ((3,), [5.0] * 3, [0.0] * 3, [0.0, peak, 0.0], theta, cfl, 10.0)


# a reaction limit taken at the pre-advection maxima lets one stable_dt step
# drive u to -1.46 and to -0.51 on these
CONVERGING_DRIFT = [converging_drift_case(3.0, 1.0), converging_drift_case(8.0, 0.5)]


@st.composite
def stepper_cases(draw):
    """A nonnegative state on a 1D or 2D grid of at most 8 cells per axis."""
    cells = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=2)))
    n = int(np.prod(cells))

    def values(hi):
        return draw(st.lists(st.floats(0.0, hi), min_size=n, max_size=n))

    return (cells, values(10.0), values(10.0), values(50.0),
            draw(st.floats(1.05, 12.0)), draw(st.sampled_from([0.25, 0.5, 1.0])),
            draw(st.floats(1e-3, 1.0)))


def one_stable_step(case):
    cells, u, v, w, theta, cfl, max_dt = case
    g = Grid(cells=cells, lengths=(1.0,) * len(cells))
    state = State(u=g.field(np.reshape(u, cells)), v=g.field(np.reshape(v, cells)),
                  w=g.field(np.reshape(w, cells)))
    params = ModelParams(theta=theta, eps=0.25)
    cfg = SolverConfig(cfl_safety=cfl, max_dt=max_dt)
    return state, params, cfg, stable_dt(state, params, cfg)


class TestStableStepInvariants:
    @pytest.mark.parametrize("case", CONVERGING_DRIFT, ids=["theta3-cfl1", "theta8-cfl0.5"])
    def test_converging_drift_keeps_u_nonnegative(self, case):
        state, params, cfg, dt = one_stable_step(case)
        out = step(state, params, cfg, dt)
        assert out.u.min() >= 0.0

    @given(case=stepper_cases())
    @example(case=CONVERGING_DRIFT[0])
    @example(case=CONVERGING_DRIFT[1])
    @settings(max_examples=40, deadline=None)
    def test_one_step_nonnegative_and_mass_balanced(self, case):
        state, params, cfg, dt = one_stable_step(case)
        out = step(state, params, cfg, dt)
        for f in (out.u, out.v, out.w):
            assert f.min() >= 0.0
        # the per-step mass identity, with the stage integrals the step applied
        g, w = state.grid, state.w.values
        *fields, stats = _advance(g, state.u.values, state.v.values, w,
                                  face_gradient_values(g, w), params, cfg, dt, 0.0)
        for values, f in zip(fields, (out.u, out.v, out.w)):
            assert np.array_equal(values, f.values)
        vol = g.cell_volume
        for before, after, rate in ((state.u, out.u, "cum_reaction_u"),
                                    (state.v, out.v, "cum_reaction_v"),
                                    (state.w, out.w, "cum_source_w")):
            scale = max(1.0, before.values.sum() * vol, after.values.sum() * vol)
            gap = (after.values.sum() - before.values.sum()) * vol - dt * stats[rate]
            assert abs(gap) <= 1e-12 * scale


class TestStep:
    def test_zero_state_fixed_point(self):
        g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
        zero = State(u=g.constant_field(0.0), v=g.constant_field(0.0),
                     w=g.constant_field(0.0))
        out = step(zero, PARAMS, SolverConfig(), 0.001)
        for f in (out.u, out.v, out.w):
            assert np.all(f.values == 0.0)

    def test_rejects_nonpositive_dt(self):
        g = Grid(cells=(4,), lengths=(1.0,))
        zero = State(u=g.constant_field(0.0), v=g.constant_field(0.0),
                     w=g.constant_field(0.0))
        with pytest.raises(ValueError):
            step(zero, PARAMS, SolverConfig(), 0.0)

    def test_mass_identity_per_step(self):
        g = Grid(cells=(48,), lengths=(1.0,))
        state = bumpy_state(g)
        cfg = SolverConfig(max_dt=0.005)
        traj = simulate(state, PARAMS, cfg, T=0.5, output_times=[0.5])
        gap_u = traj.series["mass_u"][-1] - (traj.series["mass_u"][0]
                                             + traj.cumulative["cum_reaction_u"][-1])
        gap_v = traj.series["mass_v"][-1] - (traj.series["mass_v"][0]
                                             + traj.cumulative["cum_reaction_v"][-1])
        gap_w = traj.series["mass_w"][-1] - (traj.series["mass_w"][0]
                                             + traj.cumulative["cum_source_w"][-1])
        for gap in (gap_u, gap_v, gap_w):
            assert abs(gap) < 1e-10

    def test_clamp_floor(self):
        clamped, minimum = _clamp_nonneg("u", np.array([-5e-14, 1.0]), 0.0)
        assert np.all(clamped >= 0.0) and minimum == clamped.min() == 0.0
        with pytest.raises(SchemeViolationError, match="u"):
            _clamp_nonneg("u", np.array([-1e-12, 1.0]), 0.0)

    def test_single_step_mass_identities(self):
        # one step: each field's mass change equals dt times the integrated
        # reaction/source at the stage values actually applied
        from chemocert.grid import face_gradient_values
        from chemocert.solver import _advance

        g = Grid(cells=(32,), lengths=(1.0,))
        state = bumpy_state(g)
        u0, v0, w0 = state.u.values, state.v.values, state.w.values
        dt = 1e-3
        u1, v1, w1, stats = _advance(g, u0, v0, w0, face_gradient_values(g, w0), PARAMS,
                                     SolverConfig(), dt, 0.0)
        vol = g.cell_volume
        assert (u1.sum() - u0.sum()) * vol == pytest.approx(
            dt * stats["cum_reaction_u"], abs=1e-12)
        assert (v1.sum() - v0.sum()) * vol == pytest.approx(
            dt * stats["cum_reaction_v"], abs=1e-12)
        assert (w1.sum() - w0.sum()) * vol == pytest.approx(
            dt * stats["cum_source_w"], abs=1e-12)


class TestConstantDataOracle:
    """Constant (1/2, 1/2) data freezes the species; w solves w' = -w + g."""

    def run(self, eps, T=1.0, max_dt=1e-3):
        g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
        init = State(u=g.constant_field(0.5), v=g.constant_field(0.5),
                     w=g.constant_field(0.1))
        params = ModelParams(theta=2.0, eps=eps)
        cfg = SolverConfig(cfl_safety=0.5, max_dt=max_dt)
        return simulate(init, params, cfg, T,
                        output_times=np.linspace(0.1, T, 10))

    def test_species_frozen(self):
        traj = self.run(eps=0.0)
        for _, s in traj.snapshots:
            assert np.abs(s.u.values - 0.5).max() < 1e-12
            assert np.abs(s.v.values - 0.5).max() < 1e-12

    def test_w_follows_scalar_ode(self):
        traj = self.run(eps=0.0)
        worst = 0.0
        for t, s in traj.snapshots:
            exact = 0.1 * np.exp(-t) + (1.0 - np.exp(-t))
            worst = max(worst, np.abs(s.w.values - exact).max())
        # forward-Euler reaction: global error about |w0-1| * e^-1 * dt / 2
        assert worst < 1e-3
        assert worst == pytest.approx(0.9 * np.exp(-1.0) * 5e-4 / 2, rel=0.2)

    def test_saturated_source_level(self):
        eps = 0.5
        traj = self.run(eps=eps, T=4.0)
        target = 1.0 / (1.0 + eps)  # steady level of w' = -w + s/(1+eps*s)
        final = traj.snapshots[-1][1].w.values
        assert np.abs(final - (target + (0.1 - target) * np.exp(-4.0))).max() < 1e-3


class TestLogisticOracle:
    def test_single_cell_logistic(self):
        # pure ODE mode: u' = u(1-u), closed form u0 e^t/(1-u0+u0 e^t)
        g = Grid(cells=(1,), lengths=(1.0,))
        for u0 in (0.2, 1.0, 1.7):
            init = State(u=g.constant_field(u0), v=g.constant_field(0.0),
                         w=g.constant_field(0.0))
            params = ModelParams(theta=2.0, eps=0.0)
            cfg = SolverConfig(cfl_safety=0.5, max_dt=1e-3)
            traj = simulate(init, params, cfg, T=3.0,
                            output_times=np.linspace(0.5, 3.0, 6))
            worst = 0.0
            for t, s in traj.snapshots:
                exact = u0 * np.exp(t) / (1.0 - u0 + u0 * np.exp(t))
                worst = max(worst, abs(float(s.u.values[0]) - exact))
            assert worst < 2e-3, f"u0={u0}: error {worst}"


def assert_matches_public_step_loop(init, cfg, T, outputs):
    """simulate against a loop over the public stable_dt and step."""
    g = init.grid
    traj = simulate(init, PARAMS, cfg, T, outputs)

    def grad_w_sq_now(state):
        return float(gradient_sq_values(g, state.w.values).sum()) * g.cell_volume

    state, t = init, 0.0
    times, dts, now, snapshots = [t], [], [grad_w_sq_now(state)], [state]
    minima = {name: [getattr(state, name).min()] for name in ("u", "v", "w")}
    int_grad_w_sq = int_vgradw_sq = 0.0
    time_eps = 1e-12 * max(1.0, T)
    for target in outputs:
        hit = False
        while not hit:
            dt = stable_dt(state, PARAMS, cfg)
            hit = t + dt >= target - time_eps
            if hit:
                dt = target - t
            v = state.v.values
            grad_w_sq = gradient_sq_values(g, state.w.values)
            int_grad_w_sq += dt * now[-1]
            int_vgradw_sq += dt * (float(((v / (1.0 + v)) ** 2 * grad_w_sq).sum())
                                   * g.cell_volume)
            state = step(state, PARAMS, cfg, dt)
            t = target if hit else t + dt
            times.append(t)
            dts.append(dt)
            now.append(grad_w_sq_now(state))
            for name, mins in minima.items():
                mins.append(getattr(state, name).min())
        snapshots.append(state)

    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.dts, dts)
    assert np.array_equal(traj.series["int_grad_w_sq_now"], now)
    for name, mins in minima.items():
        assert np.array_equal(traj.series[f"min_{name}"], mins)
        assert np.array_equal(np.signbit(traj.series[f"min_{name}"]), np.signbit(mins))
    assert traj.accumulators["int_grad_w_sq"] == int_grad_w_sq
    assert traj.accumulators["int_vgradw_sq"] == int_vgradw_sq
    assert [t for t, _ in traj.snapshots] == [0.0] + outputs
    for (_, got), want in zip(traj.snapshots, snapshots, strict=True):
        for name in ("u", "v", "w"):
            assert np.array_equal(getattr(got, name).values,
                                  getattr(want, name).values)


class TestSimulate:
    def test_keep_history_records_every_step(self):
        g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
        traj = simulate(bumpy_state(g), PARAMS, SolverConfig(max_dt=0.01), T=0.1,
                        output_times=[0.05, 0.1], keep_history=True)
        assert len(traj.history) == len(traj.times)
        for (t, snap) in traj.snapshots:
            kept = traj.history[int(np.flatnonzero(traj.times == t)[0])]
            for name in ("u", "v", "w"):
                assert np.array_equal(kept[name], getattr(snap, name).values)
        assert simulate(bumpy_state(g), PARAMS, SolverConfig(max_dt=0.01), T=0.1).history is None

    def test_t_zero_single_snapshot(self):
        g = Grid(cells=(8,), lengths=(1.0,))
        init = bumpy_state(g)
        traj = simulate(init, PARAMS, SolverConfig(), T=0.0)
        assert len(traj.snapshots) == 1
        assert all(v == 0.0 for v in traj.accumulators.values())

    @pytest.mark.parametrize("T", [np.inf, np.nan, -1.0])
    def test_rejects_meaningless_final_time(self, T):
        g = Grid(cells=(4,), lengths=(1.0,))
        with pytest.raises(ValueError, match="final time"):
            simulate(bumpy_state(g), PARAMS, SolverConfig(), T=T)

    def test_zero_data_stays_zero(self):
        g = Grid(cells=(8, 8), lengths=(1.0, 1.0))
        zero = State(u=g.constant_field(0.0), v=g.constant_field(0.0),
                     w=g.constant_field(0.0))
        traj = simulate(zero, PARAMS, SolverConfig(max_dt=0.05), T=5.0,
                        output_times=[2.5, 5.0])
        assert traj.sup_series("mass_u") == 0.0
        assert traj.sup_series("mass_w") == 0.0
        assert all(v == 0.0 for v in traj.accumulators.values())

    def test_step_budget_counts_the_steps_left(self, monkeypatch):
        # zero data steps at max_dt / 2 = 0.05, so T = 1 takes 20 steps: a
        # budget of 19 refuses the run before its first step, 21 admits it
        g = Grid(cells=(8,), lengths=(1.0,))
        zero = State(u=g.constant_field(0.0), v=g.constant_field(0.0),
                     w=g.constant_field(0.0))
        cfg = SolverConfig(max_dt=0.1)
        monkeypatch.setattr(solver, "MAX_STEPS", 21)
        assert len(simulate(zero, PARAMS, cfg, T=1.0).dts) == 20
        monkeypatch.setattr(solver, "MAX_STEPS", 19)
        with pytest.raises(solver.SimulationAbortError,
                           match=r"0 steps reach t=0 of T=1, and the max_dt limit sets "
                                 r"dt=0\.05 \(solver\.max_dt = 0\.1\)"):
            simulate(zero, PARAMS, cfg, T=1.0)

    def test_landing_stretches_a_step_by_at_most_half(self):
        # T lies below the 1e-12 landing tolerance; the run still steps at
        # max_dt / 2 and lands on T, instead of taking T in one step
        g = Grid(cells=(8,), lengths=(1.0,))
        zero = State(u=g.constant_field(0.0), v=g.constant_field(0.0),
                     w=g.constant_field(0.0))
        traj = simulate(zero, PARAMS, SolverConfig(max_dt=1e-14), T=1e-13)
        assert traj.times[-1] == 1e-13
        assert len(traj.dts) == 20
        assert max(traj.dts) <= 0.75 * 1e-14

    def test_output_times_hit_exactly(self):
        g = Grid(cells=(16,), lengths=(1.0,))
        traj = simulate(bumpy_state(g), PARAMS, SolverConfig(max_dt=0.0013),
                        T=0.5, output_times=[0.1, 0.25, 0.3333, 0.5])
        assert [t for t, _ in traj.snapshots] == [0.0, 0.1, 0.25, 0.3333, 0.5]

    @given(cells=st.lists(st.integers(1, 8), min_size=1, max_size=2),
           T=st.floats(1e-3, 0.2),
           fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
                              max_size=6, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_lands_on_every_output_time(self, cells, T, fractions):
        g = Grid(cells=tuple(cells), lengths=(1.0,) * len(cells))
        outputs = [f * T for f in fractions]  # in (0, T], in drawn order
        traj = simulate(bumpy_state(g), PARAMS, SolverConfig(max_dt=0.01), T, outputs)
        assert traj.snapshot_times().tolist() == [0.0] + sorted({*outputs, T})
        for t in outputs:
            assert np.any(traj.times == t)
        assert np.all(traj.dts > 0.0)

    def test_matches_public_step_loop(self, monkeypatch):
        # simulate shares one face gradient of w per step boundary between the
        # diagnostics, the dt choice and the step, samples the dissipation
        # from the |grad w|^2 of the previous step's diagnostics, takes max u
        # and max v for dt from the diagnostics, and their minima from the
        # post-diffusion clamp; that reuse must change no bit of what a loop
        # over the public stable_dt and step computes. The one-cell spikes
        # make the diffusion solve undershoot zero, so that clamp fires.
        fired = []

        def recorded(grid, rhs, tau):
            out = solve(grid, rhs, tau)
            fired.append(float(out.min()) < 0.0)
            return out

        solve = solver.solve_diffusion
        monkeypatch.setattr(solver, "solve_diffusion", recorded)
        g = Grid(cells=(12, 12), lengths=(1.0, 1.0))
        assert_matches_public_step_loop(bumpy_state(g), SolverConfig(max_dt=0.004),
                                        0.1, [0.03, 0.05, 0.1])
        line = Grid(cells=(32,), lengths=(1.0,))
        spikes = [np.zeros(32) for _ in range(3)]
        for values, cell, height in zip(spikes, (10, 21, 16), (5.0, 3.0, 2.0)):
            values[cell] = height
        fired.clear()
        assert_matches_public_step_loop(State(*(line.field(x) for x in spikes)),
                                        SolverConfig(max_dt=0.004), 0.05, [0.02, 0.05])
        assert any(fired)

    def test_positivity_and_monotone_time(self):
        g = Grid(cells=(24, 24), lengths=(1.0, 1.0))
        traj = simulate(bumpy_state(g), PARAMS, SolverConfig(max_dt=0.004),
                        T=0.5, output_times=[0.5])
        assert np.all(np.diff(traj.times) > 0)
        for name in ("min_u", "min_v", "min_w"):
            assert traj.series[name].min() >= 0.0

    def test_determinism(self):
        g = Grid(cells=(16, 16), lengths=(1.0, 1.0))
        cfg = SolverConfig(max_dt=0.004)
        t1 = simulate(bumpy_state(g), PARAMS, cfg, T=0.3, output_times=[0.3])
        t2 = simulate(bumpy_state(g), PARAMS, cfg, T=0.3, output_times=[0.3])
        assert np.array_equal(t1.snapshots[-1][1].u.values,
                              t2.snapshots[-1][1].u.values)
        assert np.array_equal(t1.times, t2.times)

    def test_comparison_bound_constant_u(self):
        # spatially constant u with v = 0: mass change is dt * int(u - u^theta)
        g = Grid(cells=(8,), lengths=(1.0,))
        init = State(u=g.constant_field(1.5), v=g.constant_field(0.0),
                     w=g.constant_field(0.0))
        params = ModelParams(theta=2.0, eps=0.0)
        traj = simulate(init, params, SolverConfig(max_dt=1e-3), T=0.1,
                        output_times=[0.1])
        masses = traj.series["mass_u"]
        series_u = traj.series["max_u"]  # constant in space, so max == value
        for n in range(len(traj.dts)):
            u_n = series_u[n]
            bound = traj.dts[n] * (u_n - u_n ** 2) * g.measure
            assert masses[n + 1] - masses[n] <= bound + 1e-12

    def test_refinement_decreases_l1_gap(self):
        params = ModelParams(theta=2.0, eps=0.25)
        diffs = []
        trajs = []
        for n, mdt in ((64, 0.016), (128, 0.004), (256, 0.001)):
            g = Grid(cells=(n,), lengths=(1.0,))
            trajs.append(simulate(bumpy_state(g), params, SolverConfig(max_dt=mdt),
                                  T=0.5, output_times=np.linspace(0.1, 0.5, 5)))
        from chemocert import restrict_values
        for a, b in zip(trajs[:-1], trajs[1:]):
            ts = a.snapshot_times()
            gap = [np.abs(sa.u.values - restrict_values(b.grid, a.grid, sb.u.values)).sum()
                   * a.grid.cell_volume
                   for (_, sa), (_, sb) in zip(a.snapshots, b.snapshots)]
            diffs.append(float(np.trapezoid(gap, ts)))
        assert diffs[1] < diffs[0]
        assert np.log2(diffs[0] / diffs[1]) >= 0.9


def test_step_working_set(tmp_path):
    # a step holds each field-sized array only while it is read: over a few
    # steps at 128^2 of the canonical physics, the most numpy holds at once
    # is within 16 field sizes, the fields and the face gradient of w among
    # them; tracemalloc counts numpy's own allocations, not the allocator's
    text = (Path(__file__).resolve().parents[1] / "configs" / "canonical.cfg").read_text(
        encoding="utf-8").replace("grid.cells = 64, 64", "grid.cells = 128, 128")
    (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
    cfg = load_config(tmp_path / "run.cfg")
    state = State(*cfg.initial_family.base())
    T = 4 * cfg.solver.max_dt
    simulate(state, cfg.params, cfg.solver, T, [T])  # the solve's eigenvalues are cached
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        traj = simulate(state, cfg.params, cfg.solver, T, [T])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.dts) >= 3
    assert (peak - start) / (cfg.grid.n_cells * 8) <= 16
