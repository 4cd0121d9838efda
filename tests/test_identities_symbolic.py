"""The weight identities derived symbolically, and the code checked against them.

sympy derives each identity from phi = (s+1)^(-p), xi = exp(-k t) and the
companion Phi = -2 sqrt((p+1)/p) (s+1)^(-p/2): the assemblies the identity
suite evaluates simplify to the closed forms built from the code's own
``drift_numerator`` and ``second_order_coefficient``. A sixth relation, the
superposition field's drift, is derived from the evolution equations
themselves. At sampled (s, t, p, k) the code's primitive evaluators and its
closed forms, in floating point, then match the derivation evaluated to 30
digits, and the two widely quoted variants miss it.

The weak-form rows every certificate tests are checked the same way: the
code's rows at analytic fields, integrated against a bump, give the
symbolically derived d/dt of the density against that bump.
"""

import math

import numpy as np
import pytest

from chemocert import identities
from chemocert.grid import Grid
from chemocert.identities import (
    IDENTITY_TOL,
    EntropyWeights,
    SpaceTimeBump,
    _log_v_rows,
    _signal_rows,
    _superposition_rows,
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


# ---------------------------------------------------------------------------
# the weak-form rows against the PDE
# ---------------------------------------------------------------------------

X, Y = sympy.symbols("x y", real=True)
U, V, W = sympy.symbols("U V W", positive=True)
THETA, EPS = 1.6, 0.25
# positive analytic fields on the unit square, in place of U, V, W
FIELDS = {U: sympy.Rational(1, 2) + sympy.Rational(3, 10) * sympy.sin(2 * X + Y),
          V: sympy.Rational(2, 5) + sympy.Rational(1, 5) * sympy.cos(X - 3 * Y),
          W: sympy.Rational(3, 10) + sympy.Rational(1, 5) * sympy.sin(3 * X * Y + 1)}
SOURCE = (U + V) / (1 + EPS * (U + V))

# the midpoint rule against this bump converges faster than any power of h:
# the rows' weak forms match to about 1e-14 relative on 512^2 cells (3e-10 on
# 256^2, 3e-7 on 128^2), against 3e-2 for the printed drift coefficient
WEAK_FORM_GRID = Grid(cells=(512, 512), lengths=(1.0, 1.0))
BUMP = SpaceTimeBump(center=(0.5, 0.5), radius=(0.45, 0.45), t_center=0.0, t_radius=1.0)
WEAK_FORM_TOL = 1e-12


def _grad(expr):
    expr = expr.subs(FIELDS)
    return (sympy.diff(expr, X), sympy.diff(expr, Y))


def _div(components):
    return sympy.diff(components[0], X) + sympy.diff(components[1], Y)


def _rate(density):
    """d/dt of ``density`` in U, V, W, with the PDE's right sides as the fields' rates."""
    u, v, w = FIELDS.values()
    grad_w = _grad(W)

    def diffusion_and_drift(s):
        return _div(_grad(s)) - _div([s * g for g in grad_w])

    rates = {U: diffusion_and_drift(u) + u * (1 - u ** (THETA - 1) - v),
             V: diffusion_and_drift(v) + v * (1 - v - u),
             W: _div(_grad(W)) - w + SOURCE.subs(FIELDS)}
    return sum(sympy.diff(density, s) * rate for s, rate in rates.items())


def _at_cells(expr):
    values = sympy.lambdify((X, Y), expr.subs(FIELDS), "numpy")(*WEAK_FORM_GRID.meshes())
    return np.broadcast_to(values, WEAK_FORM_GRID.shape).astype(float)


def _tested(a, b=()):
    """vol * sum(A S + B.grad S) over the cells: the midpoint rule for int A S - div(B) S."""
    test, grad_test = BUMP.spatial(WEAK_FORM_GRID)
    return WEAK_FORM_GRID.cell_volume * float(
        (a * test).sum() + sum((bi * gi).sum() for bi, gi in zip(b, grad_test)))


@pytest.mark.parametrize("p, k", [(1.0, 2.0), (2.0, 3.0 * weight_threshold(2.0))])
def test_weak_form_rows_reproduce_the_pde(monkeypatch, p, k):
    z = (U + 1) ** -p * sympy.exp(-k * W)
    # the rows take the gradients of ln(1+v) and z^(1/2); each is handed its
    # exact one, and any other field is refused
    exact = [(_at_cells(f), tuple(_at_cells(g) for g in _grad(f)))
             for f in (sympy.log(1 + V), sympy.sqrt(z))]

    def exact_gradient(grid, values):
        for known, grad in exact:
            if np.allclose(values, known, rtol=1e-13, atol=0.0):
                return grad
        raise AssertionError("gradient of a field the rows do not take")

    monkeypatch.setattr(identities, "gradient_values", exact_gradient)
    grid = WEAK_FORM_GRID
    u, v, w = (_at_cells(s) for s in (U, V, W))
    grad_w = tuple(_at_cells(g) for g in _grad(W))
    net_source = _at_cells(SOURCE - W)
    kinds = {
        "w": (_signal_rows(u, v, w, grad_w, net_source), W),
        "ln(1+v)": (_log_v_rows(grid, u, v, grad_w), sympy.log(1 + V)),
        "z": (_superposition_rows(grid, u, v, w, grad_w, EntropyWeights(p, k), THETA,
                                  net_source), z),
    }
    errors = {}
    for name, ((rows, flux), density) in kinds.items():
        np.testing.assert_allclose(rows[0], _at_cells(density), rtol=1e-13)
        want = _tested(_at_cells(_rate(density)))
        # the gated right side, then for z the printed drift coefficient's
        errors[name] = abs(_tested(rows[1], flux) - want) / abs(want)
        if name == "z":
            printed = abs(_tested(rows[2], flux) - want) / abs(want)
    assert max(errors.values()) < WEAK_FORM_TOL, errors
    assert printed > 1e6 * WEAK_FORM_TOL, printed
