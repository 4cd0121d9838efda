"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``; a
summary test reprints them all). Heavy runs are shared through session
fixtures; the whole module targets well under ten minutes on a laptop.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from chemocert import (
    EntropyWeights,
    Grid,
    ModelParams,
    SolverConfig,
    State,
    check_dissipation_bounds,
    check_mass_bounds,
    check_reaction_l1,
    check_spacetime_bounds,
    check_w_lp_family,
    check_weight_identities,
    check_z_dissipation_bounds,
    history_pass,
    lp_norm_values,
    probe_uniform_integrability,
    reaction_l1_identity_gap,
    sample_bumps,
    simulate,
    u_mass_cap,
    uniform_integrability_threshold,
    weight_threshold,
    z_evolution_residual,
    z_values,
)
from chemocert.config import TOL_C, load_config
from chemocert.estimates import PROBE_TRIALS
from chemocert.model import initial_state
from chemocert.runner import (
    certificate_tolerances,
    refinement_study,
    run_certificates,
)

from conftest import bumpy_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
_LINES: list[str] = []


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    _LINES.append(line)
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------

SIX_CONFIGS = (
    # (theta, eps, cells)
    (1.6, 0.5, (64, 64)),
    (1.6, 0.125, (256,)),
    (2.0, 0.5, (256,)),
    (2.0, 0.125, (64, 64)),
    (2.5, 0.5, (64, 64)),
    (2.5, 0.125, (64, 64)),
)


@pytest.fixture(scope="session")
def six_runs():
    runs = []
    for theta, eps, cells in SIX_CONFIGS:
        grid = Grid(cells=cells, lengths=(1.0,) * len(cells))
        params = ModelParams(theta=theta, eps=eps)
        init = bumpy_state(grid)
        cfg = SolverConfig(cfl_safety=0.5, max_dt=0.002)
        t0 = time.time()
        traj = simulate(init, params, cfg, T=2.0,
                        output_times=np.linspace(0.0, 2.0, 21))
        elapsed = time.time() - t0
        norms = {"u0_l1": lp_norm_values(grid, init.u.values, 1.0),
                 "v0_l1": lp_norm_values(grid, init.v.values, 1.0)}
        runs.append((params, traj, norms, elapsed))
    return runs


@pytest.fixture(scope="session")
def canonical_cfg():
    return load_config(CONFIG_DIR / "canonical.cfg")


@pytest.fixture(scope="session")
def canonical_traj(canonical_cfg):
    cfg = canonical_cfg
    family = cfg.build_initial_family()
    return simulate(initial_state(family.base()), cfg.params, cfg.solver,
                    cfg.T, cfg.output_times, keep_history=True)


@pytest.fixture(scope="session")
def refinement(canonical_cfg):
    refine_cfg = load_config(CONFIG_DIR / "refine.cfg")
    return refinement_study(refine_cfg)


@pytest.fixture(scope="session")
def sweep_trajs(canonical_cfg):
    cfg = canonical_cfg
    family = cfg.build_initial_family()
    trajs = {}
    for eps in cfg.eps_ladder:
        params = dataclasses.replace(cfg.params, eps=eps)
        init = initial_state(family.regularized(eps))
        trajs[eps] = simulate(init, params, cfg.solver, cfg.T, cfg.output_times)
    return trajs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_mass_bounds(six_runs):
    worst = np.inf
    slowest = 0.0
    for params, traj, norms, elapsed in six_runs:
        slowest = max(slowest, elapsed)
        for rec in check_mass_bounds(traj, params, norms["u0_l1"], norms["v0_l1"]):
            assert rec.passed, rec
            worst = min(worst, rec.slack / max(1.0, rec.bound))
    report(1, "mass bounds", True,
           f"6 configs, min relative slack {worst:.3f}, slowest run {slowest:.1f}s")
    assert slowest <= 30.0


def test_criterion_2_spacetime_bounds(six_runs):
    worst = np.inf
    for params, traj, norms, _ in six_runs:
        for rec in check_spacetime_bounds(traj, params, norms["u0_l1"], norms["v0_l1"]):
            assert rec.passed, rec
            worst = min(worst, rec.slack / max(1.0, rec.bound))
    report(2, "space-time bounds", True, f"min relative slack {worst:.3f}")


def test_criterion_3_reaction_l1(six_runs):
    worst_gap = 0.0
    for params, traj, norms, _ in six_runs:
        for rec in check_reaction_l1(traj, norms["u0_l1"], norms["v0_l1"]):
            assert rec.passed, rec
        gaps = reaction_l1_identity_gap(traj)
        scale = max(1.0, gaps["abs_reaction_u"], gaps["abs_reaction_v"])
        worst_gap = max(worst_gap, gaps["gap_u"] / scale, gaps["gap_v"] / scale)
    assert worst_gap <= 1e-12
    report(3, "reaction L1 bound + sign-split identity", True,
           f"worst split gap {worst_gap:.2e}")


def test_criterion_4_weight_identity_suite():
    t0 = time.time()
    worst = 0.0
    matched = set()
    for p in (0.5, 1.0, 2.0, 4.0):
        for factor in (1.1, 2.0, 10.0):
            k = weight_threshold(p) * factor
            rep = check_weight_identities(p, k)
            assert all(rec["passed"] for rec in rep.values()), (p, k)
            for rec in rep.values():
                worst = max(worst, rec["max_rel_error"])
            matched.add(rep["gradient_pairing_coefficient"]["matched_form"])
    elapsed = time.time() - t0
    assert matched == {"oracle"}
    assert elapsed < 1.0
    report(4, "five weight identities, 12-pair lattice", True,
           f"worst rel err {worst:.2e}, oracle form matched, {elapsed:.2f}s")


def test_criterion_5_positivity_and_z_range(six_runs, canonical_traj):
    trajs = [traj for _, traj, _, _ in six_runs] + [canonical_traj]
    min_seen = np.inf
    for traj in trajs:
        for name in ("min_u", "min_v", "min_w"):
            min_seen = min(min_seen, float(traj.series[name].min()))
        for _, s in traj.snapshots:
            z = z_values(s.u.values, s.w.values, 1.0, 2.0)
            assert np.all(z > 0.0) and np.all(z <= 1.0)
    assert min_seen >= 0.0  # clamping below -1e-13 would have raised
    report(5, "positivity and z-range", True,
           f"global field min {min_seen:.2e}, z in (0, 1] on all snapshots")


def test_criterion_6_exact_solution_oracle():
    grid = Grid(cells=(32, 32), lengths=(1.0, 1.0))
    init = State(u=grid.constant_field(0.5), v=grid.constant_field(0.5),
                 w=grid.constant_field(0.1))
    params = ModelParams(theta=2.0, eps=0.0)
    cfg = SolverConfig(cfl_safety=0.5, max_dt=1e-3)
    traj = simulate(init, params, cfg, T=5.0,
                    output_times=np.linspace(0.5, 5.0, 10))
    dev_u = max(np.abs(s.u.values - 0.5).max() for _, s in traj.snapshots)
    dev_v = max(np.abs(s.v.values - 0.5).max() for _, s in traj.snapshots)
    assert dev_u < 1e-12 and dev_v < 1e-12
    dev_w = max(np.abs(s.w.values - (0.1 * np.exp(-t) + 1 - np.exp(-t))).max()
                for t, s in traj.snapshots)
    assert dev_w < 1e-4
    report(6, "exact-solution oracle", True,
           f"species deviation {max(dev_u, dev_v):.1e}, w error {dev_w:.2e}")


def test_criterion_7_weakform_certificates(canonical_cfg, canonical_traj,
                                           refinement):
    cfg, traj = canonical_cfg, canonical_traj
    bumps = sample_bumps(cfg.grid, cfg.T, cfg.bump_count, cfg.bump_seed)
    tols = certificate_tolerances(traj)
    order_fit, calibrated = refinement[-2:]
    assert calibrated["level"] == "calibrated_C"
    for kind in TOL_C:
        # the constants fixed in code must dominate the fresh calibration
        c = calibrated[f"mean_resid_{kind}"]
        assert TOL_C[kind] >= c * 0.99, (kind, c, TOL_C[kind])
    records = run_certificates(traj, cfg.weights, bumps, tols)
    assert all(r.passed for r in records), \
        [r for r in records if not r.passed]
    assert order_fit["level"] == "order_fit"
    orders = {k: order_fit[f"mean_resid_{k}"]
              for k in ("weakform_w", "weakform_v", "entropy")}
    assert all(o >= 0.9 for o in orders.values()), orders
    worst = max(abs(r.residual) / r.tol for r in records)
    report(7, "weak-form certificates", True,
           f"{len(records)} records, worst residual/tol {worst:.2f}, "
           f"orders {', '.join(f'{k}={v:.2f}' for k, v in orders.items())}")


def test_criterion_8_z_evolution(refinement):
    order_fit = refinement[-2]
    assert order_fit["level"] == "order_fit"
    order = order_fit["mean_resid_z_evolution"]
    assert order >= 0.9
    # constant-config instantaneous residual stays below 2*dt
    grid = Grid(cells=(16, 16), lengths=(1.0, 1.0))
    init = State(u=grid.constant_field(0.5), v=grid.constant_field(0.5),
                 w=grid.constant_field(0.1))
    params = ModelParams(theta=2.0, eps=0.25)
    traj = simulate(init, params, SolverConfig(max_dt=0.002), T=1.0,
                    output_times=np.linspace(0.1, 1.0, 10), keep_history=True)
    dt = traj.mean_dt
    worst = 0.0
    weights = EntropyWeights(1.0, 2.0)
    tested = history_pass(traj, sample_bumps(grid, 1.0, 5, seed=5), weights)
    for rec in z_evolution_residual(tested, weights, 2.0 * dt):
        assert rec.passed, rec
        worst = max(worst, rec.residual)
    report(8, "z-evolution identity", True,
           f"refinement order {order:.2f}, constant-config residual "
           f"{worst:.1e} <= 2dt = {2 * dt:.1e}")


def test_criterion_9_eps_sweep(canonical_cfg, sweep_trajs):
    cfg = canonical_cfg
    trajs = sweep_trajs
    ladder = list(cfg.eps_ladder)
    grid = trajs[ladder[0]].grid
    ratios = {}
    for name in ("u", "v", "w"):
        gaps = []
        for e1, e2 in zip(ladder[:-1], ladder[1:]):
            a, b = trajs[e1], trajs[e2]
            ts = a.snapshot_times()
            dvals = [np.abs(getattr(sa, name).values - getattr(sb, name).values).sum()
                     * grid.cell_volume
                     for (_, sa), (_, sb) in zip(a.snapshots, b.snapshots)]
            gaps.append(float(np.trapezoid(dvals, ts)))
        assert all(b <= a * (1 + 1e-9) for a, b in zip(gaps[:-1], gaps[1:])), \
            (name, gaps)
        assert gaps[-1] < 0.1 * gaps[0], (name, gaps)
        ratios[name] = gaps[-1] / gaps[0]
    records = check_dissipation_bounds(trajs)
    records.append(check_w_lp_family(trajs))
    records += check_z_dissipation_bounds(trajs, EntropyWeights(1.0, 2.0))
    assert all(r.passed for r in records), [r.name for r in records if not r.passed]
    report(9, "eps-sweep convergence and uniformity bands", True,
           "final/first gaps " + ", ".join(f"{n}={r:.3f}" for n, r in ratios.items())
           + f"; {len(records)} bands pass")


def test_criterion_10_uniform_integrability(canonical_cfg, canonical_traj):
    cfg, traj = canonical_cfg, canonical_traj
    family = cfg.build_initial_family()
    u0_l1 = lp_norm_values(family.u0.grid, family.u0.values, 1.0)
    m1 = u_mass_cap(u0_l1, cfg.params.theta, cfg.grid.measure)
    details = []
    for j, eta in enumerate((0.25, 1.0)):
        delta = uniform_integrability_threshold(eta, cfg.T, cfg.params.theta,
                                                m1, u0_l1)
        rec = probe_uniform_integrability(traj, eta, delta, trials=PROBE_TRIALS,
                                          seed=cfg.probe_seed + j)
        assert rec.passed, rec
        assert rec.details["violations"] == 0.0
        assert rec.details["analytic_ok"] == 1.0
        details.append(f"eta={eta:g}: delta={delta:.4g}, worst {rec.value:.3g}, "
                       f"holder {rec.details['holder_bound']:.3g}")
    report(10, "uniform-integrability probe", True, "; ".join(details))


def test_zz_summary():
    print()
    for line in _LINES:
        print(line)
    assert len(_LINES) == 10
