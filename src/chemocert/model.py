"""Model terms, exponent formulas, and closed-form bound constants.

The regularized system evolves species densities u, v and a chemical signal w:

    u_t = Lap(u) - div(u grad w) + u(1 - u**(theta-1) - v)
    v_t = Lap(v) - div(v grad w) + v(1 - v - u)
    w_t = Lap(w) - w + (u + v) / (1 + eps*(u + v))

with no-flux boundaries. ``theta > 1`` is the competition exponent of the u
species; ``eps`` in [0, 1) regularizes the signal production (eps = 0 is the
formal limit system). All other physical parameters are normalized to one.

This module also hosts the analytic constants the harness certifies against:
caps on the species masses, the space-time bound offsets, the admissible-p cap
for the signal's L^p stability, and the integrability exponent demanded of the
initial signal data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import Field, Grid, _pow, lp_norm_values


@dataclass(frozen=True)
class ModelParams:
    """Competition exponent and regularization strength.

    The dimension N of the exponent formulas is the grid's, read from the
    fields the parameters are applied to.
    """

    theta: float
    eps: float = 0.0

    def __post_init__(self):
        if not self.theta > 1.0:
            raise ValueError(f"theta must exceed 1, got {self.theta}")
        if not (0.0 <= self.eps < 1.0):
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "eps", float(self.eps))


@dataclass(frozen=True)
class State:
    """Nonnegative fields (u, v, w) on one grid at one time instant."""

    u: Field
    v: Field
    w: Field
    time: float = 0.0

    def __post_init__(self):
        if not (self.u.grid == self.v.grid == self.w.grid):
            raise ValueError("state fields must share one grid")
        for name, f in (("u", self.u), ("v", self.v), ("w", self.w)):
            if f.min() < 0.0:
                raise ValueError(f"state field {name} has negative value {f.min()}")

    @property
    def grid(self) -> Grid:
        return self.u.grid


def _check_nonneg(name: str, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} must be nonnegative, got min {arr.min()}")
    return arr


def reaction_u(u, v, theta: float):
    """Competitive-logistic source of u: u*(1 - u**(theta-1) - v)."""
    if not theta > 1.0:
        raise ValueError(f"theta must exceed 1, got {theta}")
    u = _check_nonneg("u", u)
    v = _check_nonneg("v", v)
    out = u * (1.0 - _pow(u, theta - 1.0) - v)
    if np.ndim(out) == 0:
        return float(out)
    return out


def reaction_v(u, v):
    """Competitive-logistic source of v: v*(1 - v - u)."""
    u = _check_nonneg("u", u)
    v = _check_nonneg("v", v)
    out = v * (1.0 - v - u)
    if np.ndim(out) == 0:
        return float(out)
    return out


def source_w(u, v, eps: float):
    """Saturated signal production (u+v)/(1 + eps*(u+v)).

    Bounded by min(u+v, 1/eps) for eps > 0 and equal to u+v at eps = 0.
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    u = _check_nonneg("u", u)
    v = _check_nonneg("v", v)
    s = u + v
    out = s / (1.0 + eps * s)
    if np.ndim(out) == 0:
        return float(out)
    return out


def sign_split(f):
    """Split f into its positive and negative parts.

    Returns (f_plus, f_minus) with f_plus - f_minus = f, both nonnegative,
    f_plus * f_minus = 0, and |f| = f_plus + f_minus exactly.
    """
    f = np.asarray(f, dtype=float)
    plus = np.maximum(f, 0.0)
    minus = np.maximum(-f, 0.0)
    if f.ndim == 0:
        return float(plus), float(minus)
    return plus, minus


# ---------------------------------------------------------------------------
# exponent formulas and bound constants
# ---------------------------------------------------------------------------

def theta_threshold(dim_N: int) -> float:
    """Smallest competition exponent the signal estimates require: (2N-2)/N."""
    dim_N = int(dim_N)
    if dim_N < 1:
        raise ValueError(f"dimension must be >= 1, got {dim_N}")
    return (2.0 * dim_N - 2.0) / dim_N


def _critical_exponent(theta: float, dim_N: int) -> float:
    """N*(2-theta) / (2*(theta-1)): the signal exponents below are this, floored.

    Evaluated exactly on theta's shortest decimal a / b and rounded once, so
    that theta = 1.2 gives 2N and theta = 1.3 at N = 3 gives 3.5, as the
    theory does, and not a hair off.
    """
    if not 1.0 < theta < np.inf:
        raise ValueError(f"theta must be finite and exceed 1, got {theta}")
    dim_N = int(dim_N)
    if dim_N < 1:
        raise ValueError(f"dimension must be >= 1, got {dim_N}")
    exact = Fraction(repr(float(theta)))
    # N(2 - theta) / (2(theta - 1)) in rationals; float() rounds it correctly
    return float(dim_N * (2 - exact) / (2 * (exact - 1)))


def w_data_exponent(theta: float, dim_N: int) -> float:
    """Integrability exponent required of the initial signal data.

    The critical exponent floored at 2, in every dimension.
    """
    return max(2.0, _critical_exponent(theta, dim_N))


def w_lp_exponent_cap(theta: float, dim_N: int) -> float:
    """Largest p for which the signal's L^p norm stays bounded uniformly.

    The cap is the critical exponent floored at 2 in dimensions up to 3 and
    at 1 for N >= 4, and is only available above ``theta_threshold``.
    """
    second = _critical_exponent(theta, dim_N)
    thr = theta_threshold(dim_N)
    if not theta > thr:
        raise ValueError(
            f"theta={theta} is not above the threshold {thr} for N={dim_N}; "
            "the uniform signal L^p bound is only available above it")
    return max(2.0 if dim_N <= 3 else 1.0, second)


def u_mass_cap(u0_l1: float, theta: float, omega_measure: float) -> float:
    """Time-uniform cap on the u mass.

    max(1 + |u0|_L1, (theta-1)*(2/theta)**(theta/(theta-1)) * |Omega|).
    """
    if u0_l1 < 0:
        raise ValueError(f"u0 L1 norm must be nonnegative, got {u0_l1}")
    if not theta > 1.0:
        raise ValueError(f"theta must exceed 1, got {theta}")
    if not omega_measure > 0:
        raise ValueError(f"domain measure must be positive, got {omega_measure}")
    logistic = (theta - 1.0) * (2.0 / theta) ** (theta / (theta - 1.0))
    return max(1.0 + float(u0_l1), logistic * float(omega_measure))


def v_mass_cap(v0_l1: float, omega_measure: float) -> float:
    """Time-uniform cap on the v mass: max(1 + |v0|_L1, |Omega|)."""
    if v0_l1 < 0:
        raise ValueError(f"v0 L1 norm must be nonnegative, got {v0_l1}")
    if not omega_measure > 0:
        raise ValueError(f"domain measure must be positive, got {omega_measure}")
    return max(1.0 + float(v0_l1), float(omega_measure))


# ---------------------------------------------------------------------------
# regularized initial data
# ---------------------------------------------------------------------------

def regularize_initial(base: tuple[Field, Field, Field],
                       eps: float) -> tuple[Field, Field, Field]:
    """Clip each base field at 1/eps.

    The clip only removes mass and deactivates once 1/eps exceeds the data's
    sup, so L^1 norms never grow and the family converges to the base data in
    L^1 and almost everywhere as eps -> 0. There is no mollification: a
    smoothing step tied to eps leaves an imprint on the fields that decays far
    slower than the O(eps) the regularized dynamics themselves contribute,
    which would drown the sweep's convergence diagnostics in initial-data
    artifacts.
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    out = []
    for f in base:
        if f.min() < 0:
            raise ValueError(f"base field has negative value {f.min()}")
        if eps == 0.0 or 1.0 / eps >= f.max():
            out.append(f)  # nothing to clip, and a field is immutable
        else:
            out.append(Field(f.grid, np.minimum(f.values, 1.0 / eps)))
    return tuple(out)


@dataclass(frozen=True)
class InitialFamily:
    """Base initial data together with its regularized approximations."""

    u0: Field
    v0: Field
    w0: Field

    def base(self) -> tuple[Field, Field, Field]:
        return (self.u0, self.v0, self.w0)

    def regularized(self, eps: float) -> tuple[Field, Field, Field]:
        if eps == 0.0:
            return self.base()
        return regularize_initial(self.base(), eps)

    def base_norms(self, theta: float) -> dict[str, float]:
        """L^1 norms of u0, v0 and the L^r norm of w0 demanded of the data.

        The exponent r is taken for the dimension of the data's grid.
        """
        r = w_data_exponent(theta, self.w0.grid.dim)
        return {
            "u0_l1": lp_norm_values(self.u0.grid, self.u0.values, 1.0),
            "v0_l1": lp_norm_values(self.v0.grid, self.v0.values, 1.0),
            "w0_lr": lp_norm_values(self.w0.grid, self.w0.values, r),
            "w_data_exponent": r,
        }


def initial_state(fields: tuple[Field, Field, Field]) -> State:
    u0, v0, w0 = fields
    return State(u=u0, v=v0, w=w0)
