"""IMEX time integration of the regularized chemotaxis system.

One step advances (u, v, w) through three substages, in this fixed order:

1. explicit face-upwind advection of u and v along the current signal
   gradient (monotone, exactly mass-conserving),
2. explicit reactions evaluated at the post-advection values, and the signal
   decay/production ``-w + source_w(u, v, eps)``,
3. backward-Euler diffusion ``(I - dt*Lap) x = intermediate`` for each field.

Every substage preserves nonnegativity when ``dt`` respects the stability
rule of :func:`stable_dt`; values in [-1e-13, 0) are treated as roundoff and
clamped to zero, anything lower aborts the run as a scheme violation.

The trajectory records a full-resolution diagnostic series (per step: masses,
norms, extrema), running space-time accumulators by the rectangle rule in
time, snapshots at requested output times (the stepper lands on them
exactly), and optionally a dense history: the fields at every step. An
optional observer sees the fields at every step boundary as they are
stepped; the certificate walk is one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    Grid,
    _axis_slice,
    gradient_sq_from_faces,
    face_gradient_values,
    gradient_sq_values,
    lp_norm_values,
    solve_diffusion,
)
from .model import ModelParams, State, _pow, reaction_u, reaction_v, sign_split, source_w

CLAMP_FLOOR = 1e-13

# no run takes more steps than this, counting those taken and those (T - t)/dt
# left at the current step. The largest shipped run, refine.cfg's 256^2
# level, takes 32 000; a steep signal bump drives dt down in proportion to its
# mass, and is stopped at its first step once that count passes the bound
MAX_STEPS = 1_000_000


class SchemeViolationError(RuntimeError):
    """A field left the nonnegative cone by more than the roundoff floor."""


class SimulationAbortError(RuntimeError):
    """An accumulator or field became non-finite, or the step budget ran out."""


@dataclass(frozen=True)
class SolverConfig:
    # a config sets only max_dt: every run steps at cfl_safety = 0.5
    cfl_safety: float = 0.5
    max_dt: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not self.max_dt > 0:
            raise ValueError(f"max_dt must be positive, got {self.max_dt}")


# accumulators integrated by the rectangle rule over every step; the last is
# a running sup rather than an integral (still nondecreasing in time)
ACCUMULATOR_NAMES = (
    "int_u_theta",          # iint u^theta            (post-advection values)
    "int_v_sq",             # iint v^2                (post-advection values)
    "int_grad_w_sq",        # iint |grad w|^2
    "int_grad_log1v_sq",    # iint |grad ln(1+v)|^2
    "int_vgradw_sq",        # iint (v/(1+v))^2 |grad w|^2
    "int_abs_reaction_u",   # iint |u(1-u^(theta-1)-v)|
    "int_abs_reaction_v",   # iint |v(1-v-u)|
    "int_reaction_u_plus",  # iint positive part of the u reaction
    "int_reaction_v_plus",
    "sup_reaction_u_plus",  # cellwise sup of that positive part over all steps
)

SERIES_NAMES = (
    "mass_u", "mass_v", "mass_w",
    "int_u_theta_now", "int_v_sq_now", "int_grad_w_sq_now",
    "min_u", "max_u", "min_v", "max_v", "min_w", "max_w",
)

CUMULATIVE_NAMES = (
    "cum_reaction_u",   # signed iint of the u reaction up to each boundary
    "cum_reaction_v",
    "cum_source_w",     # signed iint of (source_w - w)
)


@dataclass
class Trajectory:
    """Time-stepping record: snapshots, diagnostics, and accumulators."""

    grid: Grid
    params: ModelParams
    times: np.ndarray                       # step boundaries, t_0 .. t_M
    dts: np.ndarray                         # step sizes, length M
    series: dict[str, np.ndarray]           # per-boundary diagnostics
    cumulative: dict[str, np.ndarray]       # signed space-time integrals
    accumulators: dict[str, float]          # final rectangle-rule integrals
    snapshots: list[tuple[float, State]]
    history: list[dict[str, np.ndarray]] | None = None  # fields, one per entry of times

    @property
    def final_time(self) -> float:
        """T: simulate lands its last step on it exactly."""
        return float(self.times[-1])

    @property
    def mean_dt(self) -> float:
        if len(self.dts) == 0:
            return 0.0
        return float(np.mean(self.dts))

    def snapshot_times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    def sup_series(self, name: str) -> float:
        return float(np.max(self.series[name]))

    def sup_w_lp(self, p: float) -> float:
        """Sup over snapshots of the signal's L^p norm."""
        return max(lp_norm_values(self.grid, s.w.values, p) for _, s in self.snapshots)


def stable_dt(state: State, params: ModelParams, cfg: SolverConfig) -> float:
    """Largest step the explicit substages tolerate, scaled by cfl_safety.

    Transport limit: h_min / (2 * dim * max |dw/dn|) over all faces. Reaction
    limit: 1 / L with L = 1 + theta*U^(theta-1) + U + 2*V, a bound on the
    reaction Lipschitz constants at the values the reactions see. Those are
    the post-advection values, where converging drift can raise a maximum:
    U = a*max(u) and V = a*max(v) with a = 1 + 2 * dim * max |dw/dn| * dt0 /
    h_min, which bounds what the faces of a cell carry in over a step no
    longer than dt0 = cfl_safety * min(transport, max_dt). Without drift
    a = 1. The configured max_dt caps both limits.
    """
    u, v = state.u.values, state.v.values
    if u.size == 0:
        raise ValueError("empty state")
    return _stable_dt(state.grid, float(u.max()), float(v.max()),
                      face_gradient_values(state.grid, state.w.values), params, cfg)[0]


def _stable_dt(grid: Grid, max_u: float, max_v: float, face_g: tuple,
               params: ModelParams, cfg: SolverConfig) -> tuple[float, str]:
    """:func:`stable_dt` from the step's maxima and face gradients, with the
    limit that set it: ``"transport"``, ``"reaction"`` or ``"max_dt"``.
    """
    max_g = max(float(np.max(np.abs(g))) for g in face_g)
    if max_g > 0.0:
        transport = grid.min_spacing / (2.0 * grid.dim * max_g)
    else:
        transport = np.inf
    # inflow over a step no longer than dt0 grows a maximum by at most this
    dt0 = cfg.cfl_safety * min(transport, cfg.max_dt)
    growth = 1.0 + 2.0 * grid.dim * max_g * dt0 / grid.min_spacing
    umax = growth * max_u
    vmax = growth * max_v
    l_reac = 1.0 + params.theta * _pow(umax, params.theta - 1.0) + umax + 2.0 * vmax
    limits = {"transport": transport, "reaction": 1.0 / l_reac, "max_dt": cfg.max_dt}
    limit = min(limits, key=limits.get)
    return float(cfg.cfl_safety * limits[limit]), limit


def _clamp_nonneg(name: str, values: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """The values with roundoff negatives set to zero, and their minimum."""
    m = float(values.min())
    if m >= 0.0:
        return values, m
    if m < -CLAMP_FLOOR:
        idx = np.unravel_index(int(np.argmin(values)), values.shape)
        raise SchemeViolationError(
            f"{name} reached {m:.6e} at cell {tuple(int(i) for i in idx)}, "
            f"t={t:.6g}: below the -{CLAMP_FLOOR:g} roundoff floor")
    out = np.maximum(values, 0.0)
    # fires rarely; the result's own minimum, so a -0.0 left in place is kept
    return out, float(out.min())


def _advect(grid: Grid, s: np.ndarray, face_grads: tuple[np.ndarray, ...],
            dt: float) -> np.ndarray:
    """Explicit upwind drift along the signal gradient; conserves the sum."""
    out = s.copy()
    for a in range(grid.dim):
        n = grid.cells[a]
        if n < 2:
            continue
        h = grid.spacing[a]
        g = face_grads[a]
        sl = lambda lo, hi: _axis_slice(grid.dim, a, slice(lo, hi))
        g_int = g[sl(1, n)]
        # the upwind value times the gradient, formed in the interior faces
        full = np.zeros_like(g)
        flux = full[sl(1, n)]
        np.copyto(flux, s[sl(1, None)])
        np.copyto(flux, s[sl(None, -1)], where=g_int > 0.0)
        flux *= g_int
        change = full[sl(1, None)] - full[sl(None, -1)]
        change *= dt / h
        out -= change
    return out


def _advance(grid: Grid, u: np.ndarray, v: np.ndarray, w: np.ndarray, face_g: tuple,
             params: ModelParams, dt: float, t: float,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, float]]:
    """One IMEX step on raw arrays; returns new fields plus step rates.

    Each rate is keyed by the accumulator or cumulative series it feeds: the
    space integral whose dt multiple the step adds, or for
    ``sup_reaction_u_plus`` the step's cellwise maximum. The rates also carry
    ``min_u``, ``min_v`` and ``min_w``, the minima of the new fields.
    """
    vol = grid.cell_volume

    u1, _ = _clamp_nonneg("u", _advect(grid, u, face_g, dt), t)
    v1, _ = _clamp_nonneg("v", _advect(grid, v, face_g, dt), t)

    # each reaction's sign split is dropped once its statistics are taken
    fu = reaction_u(u1, v1, params.theta)
    fu_plus, fu_minus = sign_split(fu)
    stats = {
        "cum_reaction_u": float(fu.sum()) * vol,
        "int_abs_reaction_u": float((fu_plus + fu_minus).sum()) * vol,
        "int_reaction_u_plus": float(fu_plus.sum()) * vol,
        "sup_reaction_u_plus": float(fu_plus.max()),
    }
    del fu_plus, fu_minus
    fv = reaction_v(u1, v1)
    fv_plus, fv_minus = sign_split(fv)
    stats.update({
        "cum_reaction_v": float(fv.sum()) * vol,
        "int_abs_reaction_v": float((fv_plus + fv_minus).sum()) * vol,
        "int_reaction_v_plus": float(fv_plus.sum()) * vol,
    })
    del fv_plus, fv_minus
    dw = source_w(u1, v1, params.eps) - w
    stats.update({
        "cum_source_w": float(dw.sum()) * vol,
        "int_u_theta": float(_pow(u1, params.theta).sum()) * vol,
        "int_v_sq": float((v1 ** 2).sum()) * vol,
    })

    # the reaction stage goes once the three right sides exist, and each right
    # side once it is solved. Dropping u1 and fu before v2 exists would hold
    # fewer arrays still, but then the heap's top would shrink and regrow
    # several times a step, each time faulting its pages in afresh
    u2 = u1 + dt * fu
    v2 = v1 + dt * fv
    w2 = w + dt * dw
    del u1, v1, fu, fv, dw

    u3, stats["min_u"] = _clamp_nonneg("u", solve_diffusion(grid, u2, dt), t + dt)
    del u2
    v3, stats["min_v"] = _clamp_nonneg("v", solve_diffusion(grid, v2, dt), t + dt)
    del v2
    w3, stats["min_w"] = _clamp_nonneg("w", solve_diffusion(grid, w2, dt), t + dt)
    return u3, v3, w3, stats


def step(state: State, params: ModelParams, dt: float) -> State:
    """Advance one step of size dt (caller guarantees dt <= stable_dt).

    Postconditions: all fields nonnegative, and the change of each field's
    integral equals dt times the integral of its reaction/source evaluated at
    the post-advection values, up to roundoff.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid, w = state.grid, state.w.values
    u3, v3, w3, _ = _advance(grid, state.u.values, state.v.values, w,
                             face_gradient_values(grid, w), params, dt, state.time)
    return State(u=Field(grid, u3), v=Field(grid, v3), w=Field(grid, w3),
                 time=state.time + dt)


def _state_diagnostics(grid: Grid, u, v, w, grad_w_sq, theta: float,
                       minima: dict[str, float]) -> dict[str, float]:
    """Diagnostics row of one step boundary; ``minima`` holds min_u/v/w."""
    return {
        "mass_u": float(u.sum()) * grid.cell_volume,
        "mass_v": float(v.sum()) * grid.cell_volume,
        "mass_w": float(w.sum()) * grid.cell_volume,
        "int_u_theta_now": float(_pow(u, theta).sum()) * grid.cell_volume,
        "int_v_sq_now": float((v ** 2).sum()) * grid.cell_volume,
        "int_grad_w_sq_now": float(grad_w_sq.sum()) * grid.cell_volume,
        "min_u": minima["min_u"], "max_u": float(u.max()),
        "min_v": minima["min_v"], "max_v": float(v.max()),
        "min_w": minima["min_w"], "max_w": float(w.max()),
    }


def simulate(initial: State, params: ModelParams, cfg: SolverConfig, T: float,
             output_times: list[float] | np.ndarray = (),
             keep_history: bool = False,
             observer: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None = None,
             ) -> Trajectory:
    """Run stable_dt-sized steps up to time T, landing on output times exactly.

    ``keep_history=True`` keeps a copy of the fields at every step boundary,
    t_0 .. t_M; otherwise only the snapshots at the output times are stored.
    The certificate walk reads the observer's calls, not that copy; its
    readers are the stored-history reference
    (:func:`~chemocert.identities.history_pass`) and the benchmark's memory
    counter. ``observer``, when given, is called with
    the fields (u, v, w) at every step boundary, t_0 .. t_M; it must not
    write to them. A run whose steps taken plus (T - t) / dt at its current
    step exceed ``MAX_STEPS`` stops with :class:`SimulationAbortError`.
    """
    if not 0.0 <= T < np.inf:
        raise ValueError(f"final time must be finite and >= 0, got {T}")
    grid = initial.grid
    if initial.time != 0.0:
        raise ValueError("simulate expects the initial state at time 0")
    events = sorted({float(t) for t in output_times if 0.0 < t <= T} | ({T} if T > 0 else set()))

    u = initial.u.values.copy()
    v = initial.v.values.copy()
    w = initial.w.values.copy()

    times = [0.0]
    dts: list[float] = []
    series: dict[str, list[float]] = {k: [] for k in SERIES_NAMES}
    cumulative: dict[str, list[float]] = {k: [0.0] for k in CUMULATIVE_NAMES}
    accumulators = {k: 0.0 for k in ACCUMULATOR_NAMES}
    snapshots: list[tuple[float, State]] = [(0.0, initial)]
    history: list[dict[str, np.ndarray]] = []

    def record_series(minima):
        # the face gradient of w serves the diagnostics here and the next
        # step's dt choice and advection
        face_g = face_gradient_values(grid, w)
        grad_w_sq = gradient_sq_from_faces(grid, face_g)
        for key, val in _state_diagnostics(grid, u, v, w, grad_w_sq, params.theta,
                                           minima).items():
            series[key].append(val)
        return face_g, grad_w_sq

    def record_fields():
        if keep_history:
            # one block per instant: three copies made apart would fill the
            # holes the step's intermediates leave, and the heap grows around them
            history.append(dict(zip("uvw", np.array((u, v, w)))))
        if observer is not None:
            observer(u, v, w)

    record_fields()
    face_g, grad_w_sq = record_series({"min_u": float(u.min()), "min_v": float(v.min()),
                                       "min_w": float(w.min())})

    t = 0.0
    event_idx = 0
    time_eps = 1e-12 * max(1.0, T)
    while event_idx < len(events):
        target = events[event_idx]
        dt, limit = _stable_dt(grid, series["max_u"][-1], series["max_v"][-1], face_g,
                               params, cfg)
        # len(dts) + (T - t) / dt > MAX_STEPS, without dividing by dt
        if T - t > (MAX_STEPS - len(dts)) * dt:
            raise SimulationAbortError(
                f"step budget spent: {len(dts)} steps reach t={t:.6g} of T={T:.6g}, "
                f"and the {limit} limit sets dt={dt:.6g} (solver.max_dt = "
                f"{cfg.max_dt:g}), so the run would take more than "
                f"MAX_STEPS = {MAX_STEPS} steps")
        hit = False
        # a step lands on the target when it would stop short by less than
        # time_eps, but is stretched by at most half of itself: a horizon
        # below time_eps still takes steps no longer than 1.5 stable dt
        if t + dt >= target - min(time_eps, 0.5 * dt):
            dt = target - t
            hit = True

        # dissipation integrands at the step start, from the diagnostics' |grad w|^2
        rates = {
            "int_grad_w_sq": series["int_grad_w_sq_now"][-1],
            "int_grad_log1v_sq":
                float(gradient_sq_values(grid, np.log1p(v)).sum()) * grid.cell_volume,
            "int_vgradw_sq":
                float(((v / (1.0 + v)) ** 2 * grad_w_sq).sum()) * grid.cell_volume,
        }
        del grad_w_sq  # read by the rates alone: the step need not hold it
        u, v, w, stats = _advance(grid, u, v, w, face_g, params, dt, t)
        del face_g  # held across the history copies it costs peak RSS
        rates.update(stats)
        t = target if hit else t + dt

        for key in ACCUMULATOR_NAMES[:-1]:
            accumulators[key] += dt * rates[key]
        accumulators["sup_reaction_u_plus"] = max(
            accumulators["sup_reaction_u_plus"], rates["sup_reaction_u_plus"])
        for key, values in cumulative.items():
            values.append(values[-1] + dt * rates[key])

        times.append(t)
        dts.append(dt)
        record_fields()
        face_g, grad_w_sq = record_series(stats)

        if not np.all(np.isfinite(list(accumulators.values()))):
            raise SimulationAbortError(
                f"non-finite accumulator at t={t:.6g}; diagnostics: "
                f"mass_u={series['mass_u'][-1]:.6g} mass_v={series['mass_v'][-1]:.6g} "
                f"mass_w={series['mass_w'][-1]:.6g} max_u={series['max_u'][-1]:.6g}")

        if hit:
            snap = State(u=Field(grid, u), v=Field(grid, v), w=Field(grid, w), time=t)
            snapshots.append((t, snap))
            event_idx += 1

    return Trajectory(
        grid=grid, params=params,
        times=np.array(times), dts=np.array(dts),
        series={k: np.array(vals) for k, vals in series.items()},
        cumulative={k: np.array(vals) for k, vals in cumulative.items()},
        accumulators=accumulators,
        snapshots=snapshots,
        history=history if keep_history else None,
    )
