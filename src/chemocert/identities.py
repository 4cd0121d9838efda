"""Entropy-weight identities, analytic test bumps, and weak-form certificates.

The weight pair

    phi(s) = (s+1)**(-p),    xi(s) = exp(-k*s),

together with the companion Phi(s) = -2*sqrt((p+1)/p)*(s+1)**(-p/2) (chosen so
Phi' = sqrt(phi'')), drives the superposition field

    z = phi(u) * xi(w) = (u+1)**(-p) * exp(-k*w),

whose evolution identity underlies the weak formulation this module
certifies. Five closed-form identities tie the assembled weight expressions
to their compact forms; both sides are written by hand, and they are compared
at random points. Certificates integrate the weak-form conditions against
smooth compactly supported space-time bumps with analytic derivatives, so
only the trajectory and the space-time quadrature contribute to the
tolerance C*(h+dt). Every weak form is linear in the test function,
so a certificate kind is just its integrand: rows (A, B) per history instant,
tested as int A*S + B.grad S against the whole bump family. One walk over
the history serves every kind, in two parts. :class:`InstantProducts` takes
one instant at a time: it takes grad w once, assembles the rows of all kinds,
and contracts them with the family in two matrix products.
:class:`TimeFold` then folds those products in time order.
:func:`history_pass` runs both on a stored history; a walk beside the
stepper runs the same two on the instants as they are stepped. Each
certificate function then only reduces the result to its records.

Two assembled coefficients matter enough to spell out:

* phi'/sqrt(phi'') * sqrt(xi) evaluates to -sqrt(p/(p+1))*(s+1)**(-p/2)
  * exp(-k*t/2), sign and sqrt(p/(p+1)) factor included.
* completing the square in the evolution identity puts the drift coefficient
  (2k + p(p+1)u/(u+1)) / (4(p+1)) inside |grad z^(1/2) + coeff z^(1/2)
  grad w|^2.

Both are the forms the test suite derives with sympy. Variants of each
circulate (an unsigned pairing, a drift over 2*sqrt(p(p+1))); that derivation
shows they are wrong, so neither is evaluated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .grid import Grid, gradient_values
from .model import ModelParams, _check_nonneg, _pow, source_w
from .solver import Trajectory

# ---------------------------------------------------------------------------
# weight pair
# ---------------------------------------------------------------------------

def weight_threshold(p: float) -> float:
    """Admissibility floor for k: sqrt(p)*(p+1)/2."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    return math.sqrt(p) * (p + 1.0) / 2.0


def drift_numerator(p: float, k: float, frac):
    """2k + p(p+1)f with f = u/(u+1): the drift coefficient's numerator."""
    return 2.0 * k + p * (p + 1.0) * frac


def second_order_coefficient(p: float, k: float, frac):
    """(4k^2 - p(p+1)^2 f^2) / (4(p+1)) with f = u/(u+1)."""
    return (4.0 * k ** 2 - p * (p + 1.0) ** 2 * frac ** 2) / (4.0 * (p + 1.0))


def second_order_floor(p: float, k: float) -> float:
    """The coefficient's floor over u >= 0, at f = 1; positive exactly above
    the threshold."""
    return second_order_coefficient(p, k, 1.0)


@dataclass(frozen=True)
class EntropyWeights:
    """Admissible weight parameters (p, k) with k > sqrt(p)(p+1)/2."""

    p: float
    k: float

    def __post_init__(self):
        thr = weight_threshold(self.p)
        if not self.k > thr:
            raise ValueError(
                f"weights (p={self.p}, k={self.k}) are inadmissible: need "
                f"k > sqrt(p)(p+1)/2 = {thr:.6g}")


def phi(s, p: float):
    """(s+1)**(-p)."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    return (_check_nonneg("s", s) + 1.0) ** (-p)


def phi_d1(s, p: float):
    """-p*(s+1)**(-p-1)."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    return -p * (_check_nonneg("s", s) + 1.0) ** (-p - 1.0)


def phi_d2(s, p: float):
    """p*(p+1)*(s+1)**(-p-2)."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    return p * (p + 1.0) * (_check_nonneg("s", s) + 1.0) ** (-p - 2.0)


def cap_phi(s, p: float):
    """-2*sqrt((p+1)/p)*(s+1)**(-p/2)."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    return -2.0 * math.sqrt((p + 1.0) / p) * (_check_nonneg("s", s) + 1.0) ** (-p / 2.0)


def cap_phi_d1(s, p: float):
    """sqrt(p*(p+1))*(s+1)**(-p/2-1), i.e. sqrt(phi'')."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    return math.sqrt(p * (p + 1.0)) * (_check_nonneg("s", s) + 1.0) ** (-p / 2.0 - 1.0)


def xi(s, k: float):
    """exp(-k*s)."""
    if not k > 0:
        raise ValueError(f"k must be positive, got {k}")
    return np.exp(-k * _check_nonneg("s", s))


def xi_d1(s, k: float):
    return -k * xi(s, k)


def xi_d2(s, k: float):
    return k ** 2 * xi(s, k)


def z_values(u, w, p: float, k: float) -> np.ndarray:
    """Superposition field z = (u+1)**(-p) * exp(-k*w); range (0, 1]."""
    u = _check_nonneg("u", u)
    w = _check_nonneg("w", w)
    if not (p > 0 and k > 0):
        raise ValueError(f"p and k must be positive, got p={p}, k={k}")
    return np.exp(-p * np.log1p(u) - k * w)


# ---------------------------------------------------------------------------
# the five weight identities
# ---------------------------------------------------------------------------

# the relative error below which an assembly matches its closed form
IDENTITY_TOL = 1e-10


def check_weight_identities(p: float, k: float, samples: int = 100,
                            seed: int = 0) -> dict:
    """Evaluate both sides of the five weight identities at random points.

    The left sides are assembled purely from the primitive evaluators above;
    the right sides are the closed forms. Errors are measured relative to the
    assembly magnitude (the sum of absolute term values), which keeps the
    metric meaningful where the assembled terms cancel. The report maps each
    identity's name to its record, which carries ``passed``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 10.0, size=samples)
    st = rng.uniform(0.0, 10.0, size=samples)

    sqrt_pd2 = np.sqrt(phi_d2(s, p))
    sqrt_xi = np.sqrt(xi(st, k))
    frac = s / (s + 1.0)
    decay = (s + 1.0) ** (-p / 2.0) * np.exp(-k * st / 2.0)

    def relerr(lhs, rhs, *terms):
        scale = np.abs(rhs)
        for t in terms:
            scale = scale + np.abs(t)
        scale = np.maximum(scale, 1e-300)
        return float(np.max(np.abs(lhs - rhs) / scale))

    report: dict[str, dict] = {}

    lhs1 = cap_phi_d1(s, p)
    rhs1 = sqrt_pd2
    report["phi_companion_derivative"] = {
        "max_rel_error": relerr(lhs1, rhs1, lhs1), "n": samples}

    t1 = phi_d1(s, p) / sqrt_pd2 * xi_d1(st, k) / sqrt_xi
    t2 = -0.5 * cap_phi(s, p) * xi_d1(st, k) / sqrt_xi
    t3 = -0.5 * s * sqrt_pd2 * sqrt_xi
    rhs2 = -drift_numerator(p, k, frac) / (2.0 * math.sqrt(p * (p + 1.0))) * decay
    report["drift_coefficient"] = {
        "max_rel_error": relerr(t1 + t2 + t3, rhs2, t1, t2, t3), "n": samples}

    q1 = phi(s, p) * xi_d2(st, k)
    # grouped as -(phi'/sqrt(phi'') * xi'/sqrt(xi))^2: same assembly, but the
    # halves stay representable where xi'^2 alone would underflow
    q2 = -(phi_d1(s, p) / sqrt_pd2 * xi_d1(st, k) / sqrt_xi) ** 2
    q3 = -0.25 * s ** 2 * phi_d2(s, p) * xi(st, k)
    rhs3 = second_order_coefficient(p, k, frac) * (s + 1.0) ** (-p) * np.exp(-k * st)
    report["second_order_coefficient"] = {
        "max_rel_error": relerr(q1 + q2 + q3, rhs3, q1, q2, q3), "n": samples}

    lhs4 = phi_d1(s, p) / sqrt_pd2 * sqrt_xi
    rhs4 = -math.sqrt(p / (p + 1.0)) * decay
    report["gradient_pairing_coefficient"] = {
        "max_rel_error": relerr(lhs4, rhs4, lhs4), "n": samples}

    c1 = s * phi_d1(s, p) * xi(st, k)
    c2 = -phi(s, p) * xi_d1(st, k)
    c3 = 0.5 * cap_phi(s, p) * phi_d1(s, p) / sqrt_pd2 * xi_d1(st, k)
    rhs5 = -p * s * (s + 1.0) ** (-p - 1.0) * np.exp(-k * st)
    report["signal_cross_coefficient"] = {
        "max_rel_error": relerr(c1 + c2 + c3, rhs5, c1, c2, c3), "n": samples}

    for rec in report.values():
        rec["passed"] = rec["max_rel_error"] < IDENTITY_TOL
    return report


# ---------------------------------------------------------------------------
# analytic space-time bumps
# ---------------------------------------------------------------------------

def bump_profile(y) -> np.ndarray:
    """exp(1/(y^2 - 1)) inside |y| < 1, zero outside; C-infinity."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(1.0 / (yi ** 2 - 1.0))
    return out


def bump_profile_d1(y) -> np.ndarray:
    """Derivative of the profile: B(y) * (-2y/(y^2-1)^2) inside the support."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(1.0 / (yi ** 2 - 1.0)) * (-2.0 * yi / (yi ** 2 - 1.0) ** 2)
    return out


@dataclass(frozen=True)
class SpaceTimeBump:
    """Separable smooth bump prod_a B((x_a-c_a)/rho_a) * B((t-tau)/sigma).

    All derivatives are analytic and vanish together with the value on the
    support boundary. The spatial support must sit strictly inside the
    domain; the temporal support may start before 0 (the bump is then active
    at the initial time) but must end before the final time.
    """

    center: tuple[float, ...]
    radius: tuple[float, ...]
    t_center: float
    t_radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", tuple(float(r) for r in self.radius))
        if len(self.center) != len(self.radius):
            raise ValueError("center and radius need one entry per axis")
        if any(r <= 0 for r in self.radius) or self.t_radius <= 0:
            raise ValueError("bump radii must be positive")

    def fits(self, grid: Grid, T: float) -> bool:
        space_ok = all(c - r > 0.0 and c + r < L
                       for c, r, L in zip(self.center, self.radius, grid.lengths))
        return space_ok and self.t_center + self.t_radius < T

    def require_fits(self, grid: Grid, T: float) -> None:
        if len(self.center) != grid.dim:
            raise ValueError("bump dimension does not match grid")
        if not self.fits(grid, T):
            raise ValueError(
                f"bump support (center {self.center}, radius {self.radius}, "
                f"time {self.t_center}+-{self.t_radius}) must lie strictly "
                f"inside the domain and end before T={T}")

    def time_window(self) -> tuple[float, float]:
        return (self.t_center - self.t_radius, self.t_center + self.t_radius)

    def time_profile(self, times: np.ndarray) -> np.ndarray:
        return bump_profile((times - self.t_center) / self.t_radius)

    def spatial(self, grid: Grid) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Spatial factor on the grid's cell centers and its analytic gradient."""
        axes_vals = []
        axes_ders = []
        for a in range(grid.dim):
            y = (grid.centers(a) - self.center[a]) / self.radius[a]
            axes_vals.append(bump_profile(y))
            axes_ders.append(bump_profile_d1(y) / self.radius[a])
        grads = tuple(reduce(np.multiply.outer,
                             axes_vals[:a] + [axes_ders[a]] + axes_vals[a + 1:])
                      for a in range(grid.dim))
        return reduce(np.multiply.outer, axes_vals), grads


def sample_bumps(grid: Grid, T: float, count: int, seed: int) -> list[SpaceTimeBump]:
    """Seeded family of admissible bumps; the first is active at t = 0.

    Spatial radii span [2h, diam(domain)/4] per axis (capped so the support
    keeps distance at least h from the boundary); temporal radii span
    [T/10, T/3].
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if any(n < 5 for n in grid.cells):
        raise ValueError(
            f"grid too coarse for interior bump supports: {grid.cells} "
            "(need at least 5 cells per axis)")
    if not T > 0:
        raise ValueError("T must be positive")
    rng = np.random.default_rng(seed)
    diam = math.sqrt(sum(L ** 2 for L in grid.lengths))
    bumps = []
    for i in range(count):
        center = []
        radius = []
        for a in range(grid.dim):
            h = grid.spacing[a]
            L = grid.lengths[a]
            r_hi = min(diam / 4.0, (L - 2.0 * h) / 2.0 - 1e-12)
            r = rng.uniform(2.0 * h, max(2.0 * h + 1e-12, r_hi))
            c = rng.uniform(r + h, L - r - h)
            center.append(c)
            radius.append(r)
        sigma = rng.uniform(T / 10.0, T / 3.0)
        if i == 0:
            tau = 0.0
        else:
            tau = rng.uniform(0.0, (T - sigma) * (1.0 - 1e-9))
        bumps.append(SpaceTimeBump(center=tuple(center), radius=tuple(radius),
                                   t_center=tau, t_radius=sigma))
    return bumps


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class CertificateRecord:
    """One certified weak-form condition against one test bump.

    Equalities gate on |residual| <= tol; inequalities gate on
    slack >= -tol. Both numbers are always reported.
    """

    name: str
    bump_index: int
    lhs: float
    rhs: float
    residual: float
    slack: float
    tol: float
    passed: bool
    extras: dict[str, float] = field(default_factory=dict)


def certify_mass_inequality(traj: Trajectory, tol: float) -> CertificateRecord:
    """Mass of u at each step boundary against the time-integrated reaction.

    For the stepper this is an identity up to the linear-solver tolerance,
    so slack should hover at zero; the certified direction is
    mass(t) <= mass(0) + iint reaction.
    """
    lhs = traj.series["mass_u"]
    rhs = traj.series["mass_u"][0] + traj.cumulative["cum_reaction_u"]
    slack_series = rhs - lhs
    i_min = int(np.argmin(slack_series))
    slack = float(slack_series[i_min])
    resid = float(np.max(np.abs(slack_series)))
    return CertificateRecord(
        name="mass_inequality", bump_index=-1, lhs=float(lhs[i_min]),
        rhs=float(rhs[i_min]), residual=resid, slack=slack, tol=tol,
        passed=bool(slack >= -tol),
        extras={"worst_time": float(traj.times[i_min])})


# ---------------------------------------------------------------------------
# weak forms: one integrand x test-function path for the whole bump family
# ---------------------------------------------------------------------------

def _history_window(times: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    idx = np.nonzero((times >= t_lo) & (times <= t_hi))[0]
    if len(idx) == 0:
        return idx
    lo = max(int(idx[0]) - 1, 0)
    hi = min(int(idx[-1]) + 1, len(times) - 1)
    return np.arange(lo, hi + 1)


def _stacked_tests(bumps, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """One row per bump of S, raveled, and one of grad S, axis after axis."""
    factors = [bump.spatial(grid) for bump in bumps]
    return (np.array([vals.ravel() for vals, _ in factors]),
            np.array([np.ravel(grads) for _, grads in factors]))


def _time_weights(times: np.ndarray, psi: np.ndarray,
                  inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-instant quadrature weights, one column per bump, zero off its window.

    ``trap`` is the trapezoid rule times the time profile psi, so that
    sum_i F_i trap[i] approximates the integral of F * psi over the window.
    ``dpsi`` holds exact increments of the analytic time profile instead of
    its derivative, plus psi(0) at the initial instant:
    sum_i F_i dpsi[i] = sum_j (F_j + F_{j+1})/2 (psi(t_{j+1}) - psi(t_j))
    + F_0 psi(0). Writing the quadrature against increments makes the sum
    telescope exactly when F is constant, so certificates on
    constant-in-time fields are zero to roundoff even for bumps whose
    support is clipped at t = 0.
    """
    pair = inside[:-1] & inside[1:]  # windows are contiguous index ranges
    half_dt = 0.5 * np.diff(times)[:, None] * pair
    half_dpsi = 0.5 * np.diff(psi, axis=0) * pair
    trap = np.zeros_like(psi)
    dpsi = np.zeros_like(psi)
    for weight, half in ((trap, half_dt), (dpsi, half_dpsi)):
        weight[:-1] += half
        weight[1:] += half
    dpsi[0] += psi[0]
    return trap * psi, dpsi


def _sum_sq(terms):
    """Sum of squares, with no 0 + pass: a square is never -0.0, so the bits
    are those of Python's sum."""
    return reduce(np.add, (t * t for t in terms))


def _signal_rows(u, v, w, gw, net_source) -> tuple[list, tuple]:
    """w; its right side with net_source = source_w - w; the limit form with u+v."""
    return [w, net_source, u + v - w], tuple(-g for g in gw)


def _log_v_rows(grid: Grid, u, v, gw) -> tuple[list, tuple]:
    """ln(1+v) and the right side of its logarithmic weak form."""
    logv = np.log1p(v)
    glog = gradient_values(grid, logv)
    ratio = v / (1.0 + v)
    a = (_sum_sq(glog)
         - ratio * sum(ga * gl for ga, gl in zip(gw, glog))
         + ratio * (1.0 - v - u))
    return [logv, a], tuple(ratio * ga - gl for ga, gl in zip(gw, glog))


def _superposition_rows(grid: Grid, u, v, w, gw, weights: EntropyWeights,
                        theta: float, net_source) -> tuple[list, tuple]:
    """z and two right sides of its evolution identity.

    The right sides share every term but the source: the trajectory's own
    saturated source (gated), and u+v in place of it (entropy limit form,
    reported).
    """
    p, k = weights.p, weights.k
    z = z_values(u, w, p, k)
    z_half = np.sqrt(z)
    grad_z_half = gradient_values(grid, z_half)
    frac = u / (u + 1.0)
    frac_z = p * frac * z
    drift_z_half = drift_numerator(p, k, frac) / (4.0 * (p + 1.0)) * z_half
    square = _sum_sq(gz + drift_z_half * ga for gz, ga in zip(grad_z_half, gw))
    c2 = second_order_coefficient(p, k, frac)
    kinetic = 1.0 - _pow(u, theta - 1.0) - v
    shared = -c2 * z * _sum_sq(gw) - frac_z * kinetic
    source_part = -k * net_source * z
    minus_2z_half = -2.0 * z_half
    flux = tuple(minus_2z_half * gz - frac_z * ga for gz, ga in zip(grad_z_half, gw))
    shared_gated = shared - 4.0 * (p + 1.0) / p * square
    return [z, shared_gated + source_part, shared_gated - k * (u + v - w) * z], flux


@dataclass(frozen=True)
class HistoryPass:
    """Every weak-form kind tested against one bump family in one history walk.

    ``signal``, ``log_v`` and ``superposition`` hold per bump ``(lhs, rhs)``:
    lhs = -(iint F d_t psi + int F(0) psi(0)) for the kind's density F and
    rhs[r] = iint G_r psi for each right side G_r (see
    :func:`_time_weights`). ``z_worst`` is per bump the max over its
    ``z_instants`` interior instants of |psi (d/dt int z S - int G)| for the
    gated right side G of z.
    """

    signal: tuple[np.ndarray, np.ndarray]
    log_v: tuple[np.ndarray, np.ndarray]
    superposition: tuple[np.ndarray, np.ndarray]
    z_worst: np.ndarray
    z_instants: np.ndarray


# rows of each weak-form kind, density first: w, ln(1+v), z
_KIND_SIZES = (3, 2, 3)


class InstantProducts:
    """Every weak-form kind's rows at one instant, tested against one bump family.

    Called on one instant's fields (u, v, w), it takes grad w once, and every
    kind gives rows (A, B): 3 for w, 2 for ln(1+v), 3 for z of the weight pair,
    a density first (B = 0) and right sides sharing one flux B. Each row
    becomes vol * sum(A*S + B.grad S) per bump, an array of shape
    ``(rows, bumps)``: all A against S in one matrix product and each kind's
    B against grad S once in another. The products depend only on the fields
    and the test family, so they are the same bytes in any process.
    """

    def __init__(self, grid: Grid, params: ModelParams, bumps, weights: EntropyWeights):
        self.grid = grid
        self.params = params
        self.weights = weights
        self.test_values, self.test_grads = _stacked_tests(bumps, grid)
        self._kind = np.repeat(np.arange(len(_KIND_SIZES)), _KIND_SIZES)
        self._sides = np.flatnonzero(np.diff(self._kind, prepend=-1) == 0)  # after the density

    def __call__(self, u, v, w) -> np.ndarray:
        grid, kind, sides = self.grid, self._kind, self._sides
        gw = gradient_values(grid, w)
        net_source = source_w(u, v, self.params.eps) - w
        kinds = [_signal_rows(u, v, w, gw, net_source), _log_v_rows(grid, u, v, gw),
                 _superposition_rows(grid, u, v, w, gw, self.weights, self.params.theta,
                                     net_source)]
        values = np.stack([a for rows, _ in kinds for a in rows])
        fluxes = np.stack([g for _, flux in kinds for g in flux])
        # the right sides of a kind share its flux, which is contracted once
        c = values.reshape(len(kind), -1) @ self.test_values.T
        c[sides] += (fluxes.reshape(len(kinds), -1) @ self.test_grads.T)[kind[sides]]
        c *= grid.cell_volume
        return c


class TimeFold:
    """The time quadrature of a walk over the step boundaries ``times``.

    Built from the times and the bump family alone, it folds the products of
    :class:`InstantProducts`, one per step boundary in time order, into the
    time-weighted sums and, at each interior instant of a window, the
    centred difference of z against its gated right side.
    """

    def __init__(self, grid: Grid, times: np.ndarray, bumps):
        if not bumps:
            raise ValueError("bump family is empty")
        for bump in bumps:
            bump.require_fits(grid, float(times[-1]))
        if len(times) < 3:
            raise ValueError("history too short for centered time differences")
        self.times = times
        self.psi = np.column_stack([bump.time_profile(times) for bump in bumps])
        inside = np.zeros(self.psi.shape, dtype=bool)
        for b, bump in enumerate(bumps):
            inside[_history_window(times, *bump.time_window()), b] = True
        self.trap, self.dpsi = _time_weights(times, self.psi, inside)
        self.interior = inside.copy()
        self.interior[[0, -1]] = False
        if not self.interior.any(axis=0).all():
            raise ValueError("bump time window contains no interior history points")

    def __call__(self, products: list[np.ndarray]) -> HistoryPass:
        """Fold the products of every step boundary, one each, in time order."""
        times, psi, interior = self.times, self.psi, self.interior
        if len(products) != len(times):
            raise ValueError(
                f"{len(products)} instants walked for {len(times)} step boundaries; "
                "the walk's cadence must be one step")
        ends = np.cumsum(_KIND_SIZES)[:-1]
        lhs, rhs = np.zeros((2, sum(_KIND_SIZES), psi.shape[1]))
        for i, ci in enumerate(products):
            lhs -= ci * self.dpsi[i]
            rhs += ci * self.trap[i]
        z = ends[-1]  # the row of z; its gated right side is the next
        worst = np.zeros(psi.shape[1])
        for i in np.flatnonzero(interior.any(axis=1)):
            rate = (products[i + 1][z] - products[i - 1][z]) / (times[i + 1] - times[i - 1])
            mismatch = np.abs(psi[i] * (rate - products[i][z + 1]))
            worst = np.maximum(worst, np.where(interior[i], mismatch, 0.0))

        signal, log_v, superposition = [(left[0], right[1:]) for left, right
                                        in zip(np.split(lhs, ends), np.split(rhs, ends))]
        return HistoryPass(signal=signal, log_v=log_v, superposition=superposition,
                           z_worst=worst, z_instants=interior.sum(axis=0))


def history_pass(traj: Trajectory, bumps, weights: EntropyWeights) -> HistoryPass:
    """Test the integrand of every weak-form kind in one walk over the stored history.

    Every stored instant is walked by :class:`InstantProducts`, then folded
    by :class:`TimeFold`, which refuses a history of any cadence but one
    step. A walk beside the stepper feeds the same two parts the same
    instants, so it gives the same bytes.
    """
    if traj.history is None:
        raise ValueError("trajectory was run without dense field history")
    fold = TimeFold(traj.grid, traj.times, bumps)
    walk = InstantProducts(traj.grid, traj.params, bumps, weights)
    return fold([walk(*(fields[name] for name in "uvw")) for fields in traj.history])


def certify_weakform_w(tested: HistoryPass, tol: float) -> list[CertificateRecord]:
    """Weak form of the signal equation integrated against each bump.

    The gated residual uses the trajectory's own saturated source, which the
    discrete solution satisfies to O(h+dt); the limit form with u+v replacing
    it is evaluated as well, and the discrepancy iint |source - (u+v)| psi is
    reported alongside (the source never exceeds u+v, so it is the difference
    of the two right sides).
    """
    lhs, rhs = tested.signal
    records = []
    for b, (left, right, right_limit) in enumerate(zip(lhs.tolist(), *rhs.tolist())):
        residual = left - right
        records.append(CertificateRecord(
            name="weakform_w", bump_index=b, lhs=left, rhs=right,
            residual=residual, slack=tol - abs(residual), tol=tol,
            passed=bool(abs(residual) <= tol),
            extras={"eps_discrepancy": right_limit - right,
                    "residual_limit_form": left - right_limit}))
    return records


def certify_weakform_v(tested: HistoryPass, tol: float) -> list[CertificateRecord]:
    """Logarithmic weak form of the v equation against nonnegative bumps.

    The trajectory satisfies this as an equality up to O(h+dt), so the
    certificate gates the inequality slack and flags a slack well above the
    tolerance as information loss.
    """
    lhs, rhs = tested.log_v
    records = []
    for b, (left, right) in enumerate(zip(lhs.tolist(), *rhs.tolist())):
        slack = left - right
        records.append(CertificateRecord(
            name="weakform_v", bump_index=b, lhs=left, rhs=right,
            residual=slack, slack=slack, tol=tol, passed=bool(slack >= -tol),
            extras={"information_loss": float(slack > tol)}))
    return records


def z_evolution_residual(tested: HistoryPass, weights: EntropyWeights,
                         tol: float) -> list[CertificateRecord]:
    """Instantaneous evolution identity of z tested against each bump.

    The time derivative of z comes from centered differences over the step
    boundaries the walk visits; all other terms are assembled from the grid
    calculus at each instant. The reported residual is the worst
    instantaneous mismatch inside the bump's time window. ``tested`` is a
    walk with ``weights``, whose p and k each record carries.
    """
    records = []
    for b, (gated, n) in enumerate(zip(tested.z_worst.tolist(), tested.z_instants.tolist())):
        records.append(CertificateRecord(
            name="z_evolution", bump_index=b, lhs=gated, rhs=0.0,
            residual=gated, slack=tol - gated, tol=tol, passed=bool(gated <= tol),
            extras={"n_instants": float(n), "p": weights.p, "k": weights.k}))
    return records


def certify_entropy_inequality(tested: HistoryPass, weights: EntropyWeights,
                               tol: float) -> list[CertificateRecord]:
    """Time-integrated superposition inequality against nonnegative bumps.

    For the regularized trajectory the condition holds as an equality up to
    discretization when the trajectory's own saturated source is used; the
    certified contract is the inequality direction (slack >= -tol). The
    limit-form slack, with u+v replacing the saturated source, is reported
    together with the discrepancy it introduces. ``tested`` is a walk with
    ``weights``, whose p and k each record carries.
    """
    lhs, rhs = tested.superposition
    records = []
    for b, (left, right, right_limit) in enumerate(zip(lhs.tolist(), *rhs.tolist())):
        records.append(CertificateRecord(
            name="entropy_inequality", bump_index=b, lhs=left, rhs=right,
            residual=left - right, slack=right - left, tol=tol,
            passed=bool(right - left >= -tol),
            extras={"limit_form_slack": right_limit - left,
                    "eps_discrepancy": right - right_limit,
                    "p": weights.p, "k": weights.k}))
    return records
