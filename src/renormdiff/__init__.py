"""Renormalized asymptotics for weakly nonlinear second-order difference schemes.

Implements the full pipeline for schemes of the form
z(n+1) - (2 - mu) z(n) + z(n-1) = mu * eps * f(...), with the weight mu = dt^2
(standard scheme) or 4 sin^2(dt/2) (trigonometric-weight "mickens" scheme):
forward-difference series utilities, the first-order perturbation expansion
and its secular content, amplitude flows that renormalize the secular growth
away, globally valid asymptotic solutions, an exact-iteration oracle, and the
measurement layer used to compare them.
"""

from .analysis import ErrorProfile, PeriodEstimate, compare, envelope, zero_crossing_period
from .asymptotic import (
    GlobalSolution,
    assemble_modes,
    discrete_fundamental,
    init_from_amplitude,
    third_harmonic_coefficient,
)
from .lineardiff import (
    HarmonicSum,
    HarmonicTerm,
    RootConvention,
    Scheme,
    SchemeParams,
    characteristic_roots,
    is_resonant,
    particular_solution,
    power_table,
    scheme_residual,
)
from .oracle import (
    DivergenceError,
    SingularStepError,
    Trajectory,
    iterate,
)
from .perturbation import (
    CUBIC,
    VAN_DER_POL,
    FirstOrder,
    Variant,
    extract_secular,
    first_order,
    first_order_forcing,
    first_order_solution,
    naive_solution,
    nonlinearity_value,
    zeroth_order,
)
from .renormalization import (
    AmplitudeFlow,
    EnvelopeDomainError,
    build_flow,
    conserved_constant,
    continuum_limit_check,
    flow_path,
    solve_cubic_continuum,
    solve_vdp_continuum,
)

__version__ = "0.1.0"
