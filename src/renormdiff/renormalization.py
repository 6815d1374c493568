"""Amplitude flows that absorb the secular growth of the first-order expansion.

The integration constants of the zeroth-order solution are promoted to slowly
varying amplitudes A(m), B(m) driven per step by eps times the secular
coefficients.  For the real solutions studied here B = conj(A), and the B
equation is the conjugate of the A equation, so this module carries A alone
and reads B as conj(A) where a formula needs it.  Both the exact iterated map
and the closed forms (frozen invariant for the cubic flow, logistic-type
envelope for the Van der Pol flow, and the dt -> 0 continuum limits) are
provided, so their gaps can be measured instead of assumed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .lineardiff import SchemeParams
from .perturbation import Nonlinearity, Variant

__all__ = [
    "KappaConvention",
    "VdpRealAmplitudes",
    "build_flow",
    "flow_path",
    "solve_cubic_discrete_closed",
    "solve_cubic_continuum",
    "solve_vdp_continuum",
    "kappa_value",
    "fit_envelope_constant",
    "conserved_constant",
    "continuum_amplitude",
    "continuum_limit_check",
]

_FLOW_OVERFLOW_LIMIT = 1e12


class KappaConvention(Enum):
    """Coefficient kappa in the Van der Pol envelope A1' = eps A1 (1 - kappa A1^2).

    Reducing the two real amplitude equations with A2 = c A1 gives
    1 - A1^2 - A2^2 = 1 - (1 + c^2) A1^2, so ONE_PLUS_C_SQUARED is the
    algebraically consistent choice and the default; ONE_PLUS_C keeps
    kappa = 1 + c available for comparison.  The two coincide at c = 0 and
    c = 1 and predict different limit amplitudes everywhere else.
    """

    ONE_PLUS_C = "one-plus-c"
    ONE_PLUS_C_SQUARED = "one-plus-c-squared"


@dataclass(frozen=True)
class VdpRealAmplitudes:
    """Real and imaginary parts (A1, A2) of the Van der Pol amplitude."""

    a1: float
    a2: float


def kappa_value(c: float, convention: KappaConvention) -> float:
    if convention is KappaConvention.ONE_PLUS_C:
        return 1.0 + c
    return 1.0 + c * c


def build_flow(kind: Nonlinearity, params: SchemeParams) -> Callable[[complex], complex]:
    """Discrete amplitude flow for the given nonlinearity: the step map A -> delta A.

    Cubic:       delta A = (3/2) i eps dt A^2 B,
    Van der Pol: delta A = eps dt (A - A^2 B),
    with B = conj(A) and the halving convention folding an extra 1/2 into the
    rate.  The B equation of the two-amplitude map is the conjugate of these.
    """
    eps, dt = params.eps, params.dt
    if kind.variant is Variant.CUBIC:
        rate = 1.5j * eps * dt

        def rhs(a: complex) -> complex:
            return rate * a * a * a.conjugate()

    else:
        rate = eps * dt * kind.vdp_factor

        def rhs(a: complex) -> complex:
            return rate * (a - a * a * a.conjugate())

    return rhs


def flow_path(flow: Callable[[complex], complex], a0: complex, steps: int) -> np.ndarray:
    """Amplitudes A(m) along the flow for m = 0..steps.

    A strict left fold in a fixed order, so results are bit-reproducible.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    a = complex(a0)
    path = [a]
    for m in range(1, steps + 1):
        a = a + flow(a)
        if abs(a) > _FLOW_OVERFLOW_LIMIT:
            raise OverflowError(f"amplitude flow exceeded {_FLOW_OVERFLOW_LIMIT} at step {m}")
        path.append(a)
    return np.array(path, dtype=complex)


def conserved_constant(kind: Nonlinearity, a: complex) -> float:
    """Invariant of the amplitude flow: |A|^2 = A B (cubic) or A2/A1 (Van der Pol)."""
    a = complex(a)
    if kind.variant is Variant.CUBIC:
        return (a * a.conjugate()).real
    if a.real == 0.0:
        raise ValueError("Van der Pol amplitude ratio undefined for Re(A) = 0")
    return a.imag / a.real


def solve_cubic_discrete_closed(a0: complex, params: SchemeParams, steps: int) -> complex:
    """Closed form of the cubic flow with the product c = |A0|^2 frozen.

    A(m) = A0 (1 + (3/2) i eps c dt)^m.  The true iterated map lets the
    product drift at second order in eps; this frozen-c form is its
    first-order companion, not a substitute.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    a0 = complex(a0)
    c = a0 * a0.conjugate()
    growth = 1.0 + 1.5j * params.eps * c * params.dt
    return a0 * cmath.exp(steps * cmath.log(growth))


def solve_cubic_continuum(a0: complex, eps: float, t):
    """Continuum amplitude A(t) = A0 e^{(3/2) i eps c t} with c = |A0|^2.

    Exact solution of A' = (3/2) i eps A^2 conj(A), whose modulus is
    conserved identically.  Accepts scalar or array t.
    """
    a0 = complex(a0)
    # The complex product, not abs(a0)**2: the two round differently.
    c = a0 * a0.conjugate()
    t_arr = np.asarray(t, dtype=float)
    # Named, so numpy cannot reuse the temporary in place: that swaps the
    # operands of the product and changes its rounding on large arrays.
    phase = np.exp(1.5j * eps * c * t_arr)
    a = a0 * phase
    if t_arr.ndim == 0:
        return complex(a)
    return a


def fit_envelope_constant(a1_initial: float, kappa: float) -> float:
    """Envelope family constant reproducing A1(0) = a1_initial.

    The closed form A1(t) = K e^{eps t} / sqrt(1 + kappa K^2 e^{2 eps t}) has
    A1(0) = K / sqrt(1 + kappa K^2); inverting gives
    K = a1 / sqrt(1 - kappa a1^2), which requires kappa * a1^2 < 1.
    """
    denom = 1.0 - kappa * a1_initial * a1_initial
    if denom <= 0.0:
        raise ValueError(
            f"initial amplitude {a1_initial} outside the reach of the envelope "
            f"family with kappa = {kappa}"
        )
    return a1_initial / math.sqrt(denom)


def solve_vdp_continuum(
    a0: float,
    c: float,
    eps: float,
    t,
    convention: KappaConvention = KappaConvention.ONE_PLUS_C_SQUARED,
) -> VdpRealAmplitudes:
    """Continuum Van der Pol amplitudes for the envelope constant a0.

    A1(t) = a0 e^{eps t} / sqrt(1 + kappa a0^2 e^{2 eps t}) and A2 = c A1;
    this satisfies A1' = eps A1 (1 - kappa A1^2) exactly, and tends to
    1/sqrt(kappa) as t grows.  Accepts scalar or array t; note a0 is the
    family constant, not the value at t = 0 (see fit_envelope_constant).
    """
    if a0 == 0.0:
        raise ValueError("envelope constant must be nonzero")
    kappa = kappa_value(c, convention)
    t_arr = np.asarray(t, dtype=float)
    growth = np.exp(eps * t_arr)
    denom = 1.0 + kappa * a0 * a0 * growth * growth
    if np.any(denom <= 0.0):
        raise ValueError("envelope denominator vanishes; solution leaves its domain")
    a1 = a0 * growth / np.sqrt(denom)
    if t_arr.ndim == 0:
        return VdpRealAmplitudes(float(a1), float(c * a1))
    return VdpRealAmplitudes(a1, c * a1)


def continuum_amplitude(
    kind: Nonlinearity,
    a0: complex,
    eps: float,
    t,
    convention: KappaConvention = KappaConvention.ONE_PLUS_C_SQUARED,
):
    """Continuum amplitude A(t) with A(0) = a0 and B = conj(A), scalar or array t.

    Cubic: a0 rotating at rate (3/2) eps |a0|^2.  Van der Pol: the envelope
    family fitted to Re(a0) under the kappa convention, with the invariant
    component ratio c = Im(a0)/Re(a0), so A = A1 (1 + i c).
    """
    a0 = complex(a0)
    eff_eps = eps * kind.vdp_factor
    if kind.variant is Variant.CUBIC:
        return solve_cubic_continuum(a0, eff_eps, t)
    c = conserved_constant(kind, a0)
    constant = fit_envelope_constant(a0.real, kappa_value(c, convention))
    amps = solve_vdp_continuum(constant, c, eff_eps, t, convention)
    return amps.a1 * (1.0 + 1j * c)


def continuum_limit_check(
    kind: Nonlinearity,
    a0: complex,
    params: SchemeParams,
    t_max: float,
    convention: KappaConvention = KappaConvention.ONE_PLUS_C_SQUARED,
) -> float:
    """Max gap between the iterated flow and its continuum closed form.

    Runs the discrete flow from a0 for t_max / dt steps and
    reports max_m |A_discrete(m) - A_ode(m dt)|.  The map is the forward Euler
    step of the continuum equation, so the gap shrinks linearly as dt is
    halved; callers assert that ratio.
    """
    steps = int(round(t_max / params.dt))
    flow = build_flow(kind, params)
    a_path = flow_path(flow, a0, steps)
    t = np.arange(steps + 1) * params.dt
    a_ode = continuum_amplitude(kind, a0, params.eps, t, convention)
    return float(np.max(np.abs(a_path - a_ode)))
