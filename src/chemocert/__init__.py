"""Simulator and certification harness for a two-species chemotaxis system.

Two competing species drift up the gradient of a chemical they both produce.
The package integrates the saturated-production system with a positivity-
preserving finite volume scheme and certifies, on the discrete trajectories,
the quantitative facts the model is known to obey: time-uniform mass caps,
space-time integral bounds, dissipation estimates that are stable under the
saturation parameter, the algebraic identities of the entropy weight pair,
and the weak-form inequalities a generalized solution must satisfy.
"""

from .grid import (
    Field,
    Grid,
    GridError,
    NonFiniteFieldError,
    face_gradient_values,
    gradient,
    gradient_values,
    integrate,
    integrate_values,
    laplacian,
    laplacian_values,
    lp_norm,
    lp_norm_values,
    restrict_values,
    solve_diffusion,
)
from .model import (
    InitialFamily,
    ModelParams,
    State,
    initial_state,
    reaction_u,
    reaction_v,
    regularize_initial,
    sign_split,
    source_w,
    theta_threshold,
    u_mass_cap,
    v_mass_cap,
    w_data_exponent,
    w_lp_exponent_cap,
)
from .solver import (
    SchemeViolationError,
    SimulationAbortError,
    SolverConfig,
    Trajectory,
    simulate,
    stable_dt,
    step,
)
from .estimates import (
    EstimateRecord,
    check_dissipation_bounds,
    check_mass_bounds,
    check_positivity,
    check_reaction_l1,
    check_reaction_plus_unit,
    check_spacetime_bounds,
    check_w_lp,
    check_w_lp_family,
    check_z_dissipation_bounds,
    probe_uniform_integrability,
    reaction_l1_identity_gap,
    uniform_integrability_threshold,
    uniformity_band,
)
from .identities import (
    CertificateRecord,
    EntropyWeights,
    SpaceTimeBump,
    certify_entropy_inequality,
    certify_mass_inequality,
    certify_weakform_v,
    certify_weakform_w,
    check_weight_identities,
    history_pass,
    sample_bumps,
    second_order_floor,
    weight_threshold,
    z_evolution_residual,
    z_field,
    z_values,
)

__version__ = "0.1.0"
