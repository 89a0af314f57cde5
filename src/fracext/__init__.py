"""Fractional powers of semigroup generators via extension problems.

Computes ``(-L)^s u`` for noninteger ``s > 0`` on diagonalizable matrix
generators of uniformly bounded semigroups, by several independent routes
(subordination extension traces, Balakrishnan integrals, Berens-Butzer-
Westphal limits, Bessel-series reconstruction) that are cross-validated
against the exact spectral evaluation.
"""

from .bessel import BesselParams, ivp_classify, ode_cross_solve, phi, phi_op, phi_particular
from .extension import (
    ExtensionProfile,
    build_profile,
    exp_tail,
    explicit_poly_part,
    extend_explicit,
    extend_subordination,
    extension_operator_power,
    normalization_check,
    pde_residual,
    radial_power,
    weighted_extension_derivative,
    y_derivative,
    y_derivatives_upto,
)
from .fracpow import (
    FracOrder,
    balakrishnan,
    balakrishnan_general,
    balakrishnan_second_kind,
    bbw_frac_power,
    c_constant,
    resolvent_frac_power,
)
from .operators import Generator, load_vector, random_generator
from .quadrature import ConvergenceError, QuadratureSpec
from .traces import (
    Constants,
    ICReport,
    TraceEstimate,
    bbw_estimate,
    d_constant,
    default_ysched,
    domain_membership,
    initial_condition_suite,
    neumann_y0,
    trace_constants,
    trace_incremental,
    trace_neumann,
)

__version__ = "0.1.0"

__all__ = [
    "BesselParams",
    "Constants",
    "ConvergenceError",
    "ExtensionProfile",
    "FracOrder",
    "Generator",
    "ICReport",
    "QuadratureSpec",
    "TraceEstimate",
    "balakrishnan",
    "balakrishnan_general",
    "balakrishnan_second_kind",
    "bbw_estimate",
    "bbw_frac_power",
    "build_profile",
    "c_constant",
    "d_constant",
    "default_ysched",
    "domain_membership",
    "exp_tail",
    "explicit_poly_part",
    "extend_explicit",
    "extend_subordination",
    "extension_operator_power",
    "initial_condition_suite",
    "ivp_classify",
    "load_vector",
    "neumann_y0",
    "normalization_check",
    "ode_cross_solve",
    "pde_residual",
    "phi",
    "phi_op",
    "phi_particular",
    "radial_power",
    "random_generator",
    "resolvent_frac_power",
    "trace_constants",
    "trace_incremental",
    "trace_neumann",
    "weighted_extension_derivative",
    "y_derivative",
    "y_derivatives_upto",
]
