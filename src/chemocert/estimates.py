"""Checks of the time-uniform and space-time a-priori estimates.

Closed-form bounds (mass caps, space-time integrals, the reaction L^1 bound)
are compared directly against the trajectory's accumulators. Bounds whose
constants the analysis leaves implicit are certified as eps-uniformity
instead: across a decreasing regularization ladder the monitored quantity
must saturate, i.e. successive ratios must decay and the final ratio must
sit inside a 5% band. Saturation, not monotonicity, is the testable content
of an eps-independent bound; early rungs of the ladder legitimately move by
the O(eps) source factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .identities import EntropyWeights, second_order_floor, z_values
from .model import ModelParams, u_mass_cap, v_mass_cap, w_lp_exponent_cap
from .solver import Trajectory

# relative tolerance of the closed-form bounds, scaled by max(1, |bound|)
REL_TOL = 1e-3
# eps-uniformity: the final ladder ratio must sit inside 1 + BAND
BAND = 0.05
# ladder values at or below this count as zero
ZERO_FLOOR = 1e-12


@dataclass
class EstimateRecord:
    """One checked estimate: value, bound (if closed-form), slack, verdict."""

    name: str
    value: float
    bound: float | None
    slack: float | None
    tol: float
    passed: bool
    details: dict[str, float] = field(default_factory=dict)


def _bounded_record(name: str, value: float, bound: float) -> EstimateRecord:
    tol = REL_TOL * max(1.0, abs(bound))
    slack = bound - value
    return EstimateRecord(name=name, value=value, bound=bound, slack=slack,
                          tol=tol, passed=bool(slack >= -tol))


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def check_mass_bounds(traj: Trajectory, params: ModelParams, u0_l1: float,
                      v0_l1: float) -> list[EstimateRecord]:
    """Sup-in-time species masses against their closed-form caps."""
    if len(traj.times) == 0:
        raise ValueError("trajectory is empty")
    omega = traj.grid.measure
    m1 = u_mass_cap(u0_l1, params.theta, omega)
    m2 = v_mass_cap(v0_l1, omega)
    return [
        _bounded_record("mass_u_cap", traj.sup_series("mass_u"), m1),
        _bounded_record("mass_v_cap", traj.sup_series("mass_v"), m2),
    ]


def check_spacetime_bounds(traj: Trajectory, params: ModelParams, u0_l1: float,
                           v0_l1: float) -> list[EstimateRecord]:
    """Accumulated iint u^theta and iint v^2 against cap*T + 1 + initial mass."""
    omega = traj.grid.measure
    T = traj.final_time
    m1 = u_mass_cap(u0_l1, params.theta, omega)
    m2 = v_mass_cap(v0_l1, omega)
    return [
        _bounded_record("spacetime_u_theta", traj.accumulators["int_u_theta"],
                        m1 * T + 1.0 + u0_l1),
        _bounded_record("spacetime_v_sq", traj.accumulators["int_v_sq"],
                        m2 * T + 1.0 + v0_l1),
    ]


def check_reaction_l1(traj: Trajectory, u0_l1: float,
                      v0_l1: float) -> list[EstimateRecord]:
    """Space-time L^1 of each reaction against 2|Omega|T + 1 + initial mass.

    The bound rests on the sign split: |f| = 2 f_plus - f with f_plus <= 1
    pointwise, plus the exact mass balance for the signed part.
    """
    base = 2.0 * traj.grid.measure * traj.final_time + 1.0
    return [
        _bounded_record("reaction_u_l1", traj.accumulators["int_abs_reaction_u"],
                        base + u0_l1),
        _bounded_record("reaction_v_l1", traj.accumulators["int_abs_reaction_v"],
                        base + v0_l1),
    ]


def check_reaction_plus_unit(traj: Trajectory) -> EstimateRecord:
    """Cellwise sup of the positive u-reaction part against one.

    The reaction L^1 bound leans on this pointwise fact; it is certified
    from the trajectory rather than assumed.
    """
    value = traj.accumulators["sup_reaction_u_plus"]
    return EstimateRecord(name="reaction_u_plus_sup", value=value, bound=1.0,
                          slack=1.0 - value, tol=1e-12,
                          passed=bool(value <= 1.0 + 1e-12))


def reaction_l1_identity_gap(traj: Trajectory) -> dict[str, float]:
    """Both sides of |f| = 2 f_plus - f integrated over space-time.

    Exact up to floating-point summation for any trajectory, since the
    identity holds cellwise before quadrature.
    """
    out = {}
    for sp in ("u", "v"):
        direct = traj.accumulators[f"int_abs_reaction_{sp}"]
        split = (2.0 * traj.accumulators[f"int_reaction_{sp}_plus"]
                 - traj.cumulative[f"cum_reaction_{sp}"][-1])
        out[f"abs_reaction_{sp}"] = direct
        out[f"split_reaction_{sp}"] = split
        out[f"gap_{sp}"] = abs(direct - split)
    return out


def check_positivity(traj: Trajectory) -> EstimateRecord:
    """Cellwise minimum over every recorded step; must be >= 0 after clamping."""
    value = min(float(np.min(traj.series[name]))
                for name in ("min_u", "min_v", "min_w"))
    return EstimateRecord(name="positivity_min", value=value, bound=0.0,
                          slack=value, tol=0.0, passed=bool(value >= 0.0))


# ---------------------------------------------------------------------------
# eps-uniformity bands
# ---------------------------------------------------------------------------

def uniformity_band(values: list[float]) -> tuple[bool, list[float]]:
    """Saturation test for a quantity along a decreasing-eps ladder.

    Ratios r_j = values[j+1]/values[j] must (a) end inside 1 + BAND and
    (b) never rise once above the band: each ratio may exceed its predecessor
    only while staying inside the band. Pairs of values at or below
    ``ZERO_FLOOR`` count as ratio one. A diverging sequence fails (a); an
    erratic one fails (b).
    """
    if len(values) < 2:
        raise ValueError("uniformity band needs at least two ladder values")
    ratios = []
    for a, b in zip(values[:-1], values[1:]):
        if abs(a) <= ZERO_FLOOR and abs(b) <= ZERO_FLOOR:
            ratios.append(1.0)
        elif abs(a) <= ZERO_FLOOR:
            ratios.append(np.inf)
        else:
            ratios.append(b / a)
    ok = ratios[-1] <= 1.0 + BAND
    for prev, nxt in zip(ratios[:-1], ratios[1:]):
        if nxt > max(prev, 1.0 + BAND) + 1e-9:
            ok = False
    return bool(ok), ratios


def _band_record(name: str, eps_ladder: list[float],
                 values: list[float]) -> EstimateRecord:
    passed, ratios = uniformity_band(values)
    details = {f"eps_{e:g}": v for e, v in zip(eps_ladder, values)}
    details.update({f"ratio_{j}": r for j, r in enumerate(ratios)})
    return EstimateRecord(name=name, value=values[-1], bound=None, slack=None,
                          tol=BAND, passed=passed, details=details)


def _validate_ladder(trajs_by_eps: dict[float, Trajectory]) -> list[float]:
    eps_ladder = list(trajs_by_eps.keys())
    if len(eps_ladder) < 2:
        raise ValueError("eps ladder needs at least two levels")
    if any(e2 >= e1 for e1, e2 in zip(eps_ladder[:-1], eps_ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    return eps_ladder


def per_unit_horizon(traj: Trajectory, value: float) -> float:
    """A rung's ladder figure: ``value`` per unit of (1 + T), T the rung's horizon."""
    return value / (1.0 + traj.final_time)


# the accumulators whose figure per unit of (1+T) a dissipation band tracks
DISSIPATION_BANDS = {"int_grad_log1v_sq": "eps_uniform_grad_log1v",
                     "int_vgradw_sq": "eps_uniform_vgradw",
                     "int_grad_w_sq": "eps_uniform_grad_w"}


def check_dissipation_bounds(trajs_by_eps: dict[float, Trajectory],
                             ) -> list[EstimateRecord]:
    """eps-uniformity of the gradient dissipation accumulators over (1+T)."""
    eps_ladder = _validate_ladder(trajs_by_eps)
    records = []
    for key, name in DISSIPATION_BANDS.items():
        values = [per_unit_horizon(trajs_by_eps[e], trajs_by_eps[e].accumulators[key])
                  for e in eps_ladder]
        records.append(_band_record(name, eps_ladder, values))
    return records


def w_lp_figure(traj: Trajectory) -> tuple[float, float]:
    """p and the sup over snapshots of the signal's L^p norm.

    p is the admissible cap for the trajectory's theta in its grid's
    dimension; the cap enforces theta above the threshold.
    """
    p = w_lp_exponent_cap(traj.params.theta, traj.grid.dim)
    return p, traj.sup_w_lp(p)


def check_w_lp(traj: Trajectory, w0_lr: float) -> EstimateRecord:
    """Sup over snapshots of the signal's L^p norm (single run, informational).

    The pass/fail content lives in :func:`check_w_lp_family`, because the
    bound's constant is only known to be eps-independent, not explicit.
    """
    p, value = w_lp_figure(traj)
    return EstimateRecord(name="w_lp_sup", value=value, bound=None, slack=None,
                          tol=0.0, passed=True,
                          details={"p": p, "w0_lr": w0_lr})


def check_w_lp_family(trajs_by_eps: dict[float, Trajectory]) -> EstimateRecord:
    """eps-uniform stability of sup_t |w|_{L^p} across the ladder."""
    eps_ladder = _validate_ladder(trajs_by_eps)
    figures = [w_lp_figure(trajs_by_eps[e]) for e in eps_ladder]
    rec = _band_record("eps_uniform_w_lp", eps_ladder, [value for _, value in figures])
    rec.details["p"] = figures[0][0]
    return rec


# ---------------------------------------------------------------------------
# uniform integrability
# ---------------------------------------------------------------------------

def uniform_integrability_threshold(eta: float, T: float, theta: float,
                                    mass_cap: float, u0_l1: float) -> float:
    """Measure threshold delta making iint_E u < eta for |E| < delta.

    delta = (eta^theta / (mass_cap*T + 1 + |u0|_L1))^(1/(theta-1)); the Holder
    route from the space-time bound makes any measurable E work, not just the
    sampled ones.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not theta > 1.0:
        raise ValueError(f"theta must exceed 1, got {theta}")
    if T < 0 or mass_cap < 0 or u0_l1 < 0:
        raise ValueError("T, mass_cap and u0_l1 must be nonnegative")
    denom = mass_cap * T + 1.0 + u0_l1
    return float((eta ** theta / denom) ** (1.0 / (theta - 1.0)))


# the levels eta a run probes, and the random subsets each probe draws; the
# Holder threshold holds for every eta > 0, so these are fixed samples of it
PROBE_ETAS = (0.25, 1.0)
PROBE_TRIALS = 200


def probe_uniform_integrability(traj: Trajectory, eta: float, delta: float,
                                trials: int, seed: int = 0,
                                ) -> EstimateRecord:
    """Sample random space-time cell subsets of measure < delta; check iint_E u < eta.

    Also asserts the analytic implication: with A = iint u^theta and theta
    from the trajectory, A^(1/theta) * delta^((theta-1)/theta) < eta whenever
    the space-time bound held, so the probe cannot fail by bad luck alone.
    The details' ``delta_atoms`` is delta over the smallest positive atom
    measure (0 if none is positive): below 1, every probed set is empty.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    theta = traj.params.theta
    times = traj.snapshot_times()
    if len(times) < 2:
        raise ValueError("need at least two snapshots to probe")
    weights = np.empty_like(times)
    weights[1:-1] = 0.5 * (times[2:] - times[:-2])
    weights[0] = 0.5 * (times[1] - times[0])
    weights[-1] = 0.5 * (times[-1] - times[-2])

    # an atom is one cell at one snapshot: atom i lies at snapshot i // n_cells,
    # so its measure and integral are formed only for the atoms a trial draws
    vol = traj.grid.cell_volume
    u_flat = np.stack([s.u.values.ravel() for _, s in traj.snapshots]).ravel()
    n_atoms = u_flat.size
    n_cells = traj.grid.n_cells
    measures = weights * vol
    min_measure = float(measures.min())
    positive = measures[measures > 0.0]
    delta_atoms = delta / float(positive.min()) if positive.size else 0.0

    rng = np.random.default_rng(seed)

    def running_measure(order: np.ndarray) -> np.ndarray:
        meas = weights[order // n_cells]
        meas *= vol
        return np.cumsum(meas, out=meas)

    def sampled_integral(target: float) -> float:
        """iint u over the atoms a random order takes before its measure reaches target.

        A function, so that its draw is freed before the next trial draws.
        """
        # every atom weighs at least min_measure, so the running measure
        # passes target within this many atoms unless roundoff says
        # otherwise; an ordered sample without replacement of that many is
        # distributed as the same prefix of a permutation of all of them
        bound = target / min_measure if min_measure > 0 else np.inf
        n_prefix = int(min(n_atoms, bound + 2))
        order = rng.choice(n_atoms, n_prefix, replace=False)
        meas = running_measure(order)
        if n_prefix < n_atoms and meas[-1] < target:
            order = rng.permutation(n_atoms)
            meas = running_measure(order)
        take = order[:int(np.searchsorted(meas, target))]
        return float((u_flat[take] * weights[take // n_cells] * vol).sum())

    worst = 0.0
    violations = 0
    for _ in range(trials):
        value = sampled_integral(rng.uniform(0.2, 0.999) * delta)
        worst = max(worst, value)
        if value >= eta:
            violations += 1

    accum = traj.accumulators["int_u_theta"]
    holder = accum ** (1.0 / theta) * delta ** ((theta - 1.0) / theta)
    analytic_ok = holder <= eta * (1.0 + 1e-12)
    return EstimateRecord(
        name="uniform_integrability", value=worst, bound=eta, slack=eta - worst,
        tol=0.0, passed=bool(violations == 0 and analytic_ok),
        details={"delta": delta, "delta_atoms": delta_atoms, "trials": float(trials),
                 "violations": float(violations), "holder_bound": holder,
                 "analytic_ok": float(analytic_ok)})


# ---------------------------------------------------------------------------
# superposition-field dissipation (snapshot reconstruction)
# ---------------------------------------------------------------------------

def z_dissipation_integrals(traj: Trajectory,
                            weights: EntropyWeights) -> dict[str, float]:
    """Time-trapezoid reconstruction of iint |grad z^(1/2)|^2 and iint z |grad w|^2.

    z = (u+1)^(-p) e^(-kw) is the superposition field; both integrals are
    rebuilt from stored snapshots rather than accumulated in-loop, so their
    time quadrature step equals the snapshot cadence (recorded in the output).
    """
    from .grid import gradient_sq_values

    times = traj.snapshot_times()
    if len(times) < 2:
        raise ValueError("need at least two snapshots")
    grid = traj.grid
    vals_grad_z = []
    vals_z_gradw = []
    for _, s in traj.snapshots:
        z_half = z_values(s.u.values, s.w.values, weights.p / 2.0, weights.k / 2.0)
        vals_grad_z.append(float(gradient_sq_values(grid, z_half).sum()) * grid.cell_volume)
        z_full = z_half ** 2
        del z_half
        gw = gradient_sq_values(grid, s.w.values)
        vals_z_gradw.append(float((z_full * gw).sum()) * grid.cell_volume)
    return {
        "int_grad_z_half_sq": float(np.trapezoid(vals_grad_z, times)),
        "int_z_grad_w_sq": float(np.trapezoid(vals_z_gradw, times)),
        "time_quadrature_step": float(np.max(np.diff(times))),
    }


def check_z_dissipation_bounds(trajs_by_eps: dict[float, Trajectory],
                               weights: EntropyWeights) -> list[EstimateRecord]:
    """eps-uniformity of the superposition-field dissipation integrals.

    The weights are admissible, k > sqrt(p)(p+1)/2, which makes the
    second-order coefficient floor (4k^2 - p(p+1)^2) / (4(p+1)) positive.
    """
    floor_const = second_order_floor(weights.p, weights.k)
    eps_ladder = _validate_ladder(trajs_by_eps)
    per_eps = {e: z_dissipation_integrals(trajs_by_eps[e], weights) for e in eps_ladder}
    records = []
    for key, name in (("int_grad_z_half_sq", "eps_uniform_grad_z_half"),
                      ("int_z_grad_w_sq", "eps_uniform_z_gradw")):
        values = [per_unit_horizon(trajs_by_eps[e], per_eps[e][key]) for e in eps_ladder]
        rec = _band_record(name, eps_ladder, values)
        rec.details["coefficient_floor"] = floor_const
        rec.details["time_quadrature_step"] = max(
            per_eps[e]["time_quadrature_step"] for e in eps_ladder)
        records.append(rec)
    return records
