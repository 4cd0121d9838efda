"""The weight identities derived symbolically, and the code checked against them.

sympy derives each identity from phi = (s+1)^(-p), xi = exp(-k t) and the
companion Phi = -2 sqrt((p+1)/p) (s+1)^(-p/2): the assemblies the identity
suite evaluates simplify to the closed forms built from the code's own
``drift_numerator`` and ``second_order_coefficient``. A sixth relation, the
superposition field's drift, is derived from the evolution equations
themselves. At sampled (s, t, p, k) the code's primitive evaluators and its
closed forms, in floating point, then match the derivation evaluated to 30
digits, and the two widely quoted variants miss it.
"""

import math

import numpy as np
import pytest

from chemocert.identities import (
    IDENTITY_TOL,
    cap_phi,
    cap_phi_d1,
    drift_numerator,
    phi,
    phi_d1,
    phi_d2,
    second_order_coefficient,
    weight_threshold,
    xi,
    xi_d1,
    xi_d2,
    z_values,
)

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

s, t, p, k = sympy.symbols("s t p k", positive=True)
a, b, x = sympy.symbols("a b x", real=True)  # a = grad u, b = grad w
SYMBOLS = (s, t, p, k, a, b)

PHI = (s + 1) ** -p
XI = sympy.exp(-k * t)
CAP_PHI = -2 * sympy.sqrt((p + 1) / p) * (s + 1) ** (-p / 2)
PHI_1, PHI_2 = sympy.diff(PHI, s), sympy.diff(PHI, s, 2)
XI_1, XI_2 = sympy.diff(XI, t), sympy.diff(XI, t, 2)


def _superposition_quadratic_form():
    """The part of z_t = phi'(u) xi(w) u_t + phi(u) xi'(w) w_t quadratic in the gradients.

    With u_t = u'' - (u w')' and w_t = w'' (the kinetics and the source are
    pointwise terms), z_t less the divergence of the flux grad z + p u/(u+1)
    z grad w holds no second derivative; it is the form the certificates
    complete to a square, in a = u' and b = w'.
    """
    u, w = sympy.Function("u")(x), sympy.Function("w")(x)
    at = {s: u, t: w}
    z = (PHI * XI).subs(at)
    z_t = (PHI_1 * XI).subs(at) * (u.diff(x, 2) - (u * w.diff(x)).diff(x)) \
        + (PHI * XI_1).subs(at) * w.diff(x, 2)
    flux = z.diff(x) + p * u / (u + 1) * z * w.diff(x)
    form = sympy.expand(z_t - flux.diff(x))
    assert not form.has(u.diff(x, 2), w.diff(x, 2))
    return form.subs({u.diff(x): a, w.diff(x): b}).subs({u: s, w: t})


# each identity's assembly, as the identity suite assembles it
DERIVED = {
    "phi_companion_derivative": sympy.diff(CAP_PHI, s),
    "drift_coefficient": (PHI_1 / sympy.sqrt(PHI_2) * XI_1 / sympy.sqrt(XI)
                          - CAP_PHI * XI_1 / (2 * sympy.sqrt(XI))
                          - s * sympy.sqrt(PHI_2) * sympy.sqrt(XI) / 2),
    "second_order_coefficient": (PHI * XI_2 - (PHI_1 / sympy.sqrt(PHI_2)
                                               * XI_1 / sympy.sqrt(XI)) ** 2
                                 - s ** 2 * PHI_2 * XI / 4),
    "gradient_pairing_coefficient": PHI_1 / sympy.sqrt(PHI_2) * sympy.sqrt(XI),
    "signal_cross_coefficient": (s * PHI_1 * XI - PHI * XI_1
                                 + CAP_PHI * PHI_1 / sympy.sqrt(PHI_2) * XI_1 / 2),
    "superposition_drift": _superposition_quadratic_form(),
}


def closed_forms(point, sqrt, exp, variant=None):
    """The closed form of each identity, as the code writes it.

    ``sqrt`` and ``exp`` are sympy's on symbols and math's on floats.
    ``variant`` swaps in the unsigned pairing coefficient or the drift
    coefficient over 2 sqrt(p(p+1)) in place of 4(p+1).
    """
    s, t, p, k, a, b = point
    frac = s / (s + 1)
    decay = (s + 1) ** (-p / 2) * exp(-k * t / 2)  # z^(1/2)
    z = (s + 1) ** -p * exp(-k * t)
    grad_z_half = -decay * (p * a / (s + 1) + k * b) / 2
    drift = drift_numerator(p, k, frac)
    pairing = 1 if variant == "unsigned pairing" else -sqrt(p / (p + 1))
    drift_over = 2 * sqrt(p * (p + 1)) if variant == "drift over 2sqrt(p(p+1))" \
        else 4 * (p + 1)
    square = (grad_z_half + drift / drift_over * decay * b) ** 2
    return {
        "phi_companion_derivative": sqrt(p * (p + 1)) * (s + 1) ** (-p / 2 - 1),
        "drift_coefficient": -drift / (2 * sqrt(p * (p + 1))) * decay,
        "second_order_coefficient": second_order_coefficient(p, k, frac) * z,
        "gradient_pairing_coefficient": pairing * decay,
        "signal_cross_coefficient": -p * s * (s + 1) ** (-p - 1) * exp(-k * t),
        "superposition_drift": (-4 * (p + 1) / p * square
                                - second_order_coefficient(p, k, frac) * z * b ** 2),
    }


def _sampled_points(n=20, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        p_ = rng.uniform(0.5, 4.0)
        k_ = weight_threshold(p_) * rng.uniform(1.1, 10.0)
        points.append((rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0), p_, k_,
                       rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
    return points


POINTS = _sampled_points()


def worst_error(derived, evaluate):
    """Largest relative error of ``evaluate(point)`` against ``derived`` at 30 digits."""
    exact = sympy.lambdify(SYMBOLS, derived, "mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for point in POINTS:
            want = exact(*point)
            got = mpmath.mpf(float(evaluate(point)))
            worst = max(worst, float(abs(got - want) / abs(want)))
    return worst


@pytest.mark.parametrize("name", list(DERIVED))
def test_closed_form_is_derived(name):
    closed = closed_forms(SYMBOLS, sympy.sqrt, sympy.exp)[name]
    # the code's closed forms carry float coefficients such as 2.0
    assert sympy.simplify(DERIVED[name] - sympy.nsimplify(closed, rational=True)) == 0


@pytest.mark.parametrize("name", list(DERIVED))
def test_closed_form_matches_at_sampled_points(name):
    assert worst_error(DERIVED[name],
                       lambda point: closed_forms(point, math.sqrt, math.exp)[name]) \
        < IDENTITY_TOL


@pytest.mark.parametrize("variant, name", [
    ("unsigned pairing", "gradient_pairing_coefficient"),
    ("drift over 2sqrt(p(p+1))", "superposition_drift"),
])
def test_variant_misses_the_derivation(variant, name):
    got = worst_error(DERIVED[name],
                      lambda point: closed_forms(point, math.sqrt, math.exp, variant)[name])
    assert got > IDENTITY_TOL


PRIMITIVES = [(phi, True, PHI), (phi_d1, True, PHI_1), (phi_d2, True, PHI_2),
              (cap_phi, True, CAP_PHI), (cap_phi_d1, True, sympy.diff(CAP_PHI, s)),
              (xi, False, XI), (xi_d1, False, XI_1), (xi_d2, False, XI_2)]


@pytest.mark.parametrize("evaluator, of_s, derived", PRIMITIVES,
                         ids=[evaluator.__name__ for evaluator, _, _ in PRIMITIVES])
def test_primitive_evaluator_matches(evaluator, of_s, derived):
    def evaluate(point):
        s_, t_, p_, k_ = point[:4]
        return evaluator(s_, p_) if of_s else evaluator(t_, k_)

    assert worst_error(derived, evaluate) < IDENTITY_TOL


def test_superposition_field_matches():
    assert worst_error(PHI * XI, lambda point: z_values(*point[:4])) < IDENTITY_TOL
