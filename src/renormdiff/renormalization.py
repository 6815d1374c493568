"""Amplitude flows that absorb the secular growth of the first-order expansion.

The integration constants of the zeroth-order solution are promoted to slowly
varying amplitudes A(m), B(m) driven per step by eps times the secular
coefficients.  For the real solutions studied here B = conj(A), and the B
equation is the conjugate of the A equation, so this module carries A alone
and reads B as conj(A) where a formula needs it.  The continuum amplitude
equation is A' = r A^2 conj(A) (cubic) or A' = r (A - A^2 conj(A)) (Van der
Pol), with the rate r = secular_rate(kind, eps); the discrete flow steps it
with r dt.  Both the exact iterated map and the dt -> 0 closed forms (a
rotation for the cubic flow, a logistic-type envelope for the Van der Pol
flow) are provided, so their gaps can be measured instead of assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lineardiff import SchemeParams
from .perturbation import Variant

__all__ = [
    "KappaConvention",
    "AmplitudeFlow",
    "secular_rate",
    "build_flow",
    "flow_path",
    "solve_cubic_continuum",
    "solve_vdp_continuum",
    "EnvelopeDomainError",
    "kappa_value",
    "conserved_constant",
    "continuum_amplitude",
    "continuum_limit_check",
]

_FLOW_OVERFLOW_LIMIT = 1e12


class EnvelopeDomainError(ValueError):
    """The Van der Pol envelope's denominator is <= 0 (A1 blew up in finite
    time), first at position `index` of the flattened times."""

    def __init__(self, index: int, t: float):
        super().__init__(f"envelope denominator vanishes at t={t:g}; solution leaves its domain")
        self.index = index


class KappaConvention(Enum):
    """Coefficient kappa in the Van der Pol envelope A1' = r A1 (1 - kappa A1^2).

    Reducing the two real amplitude equations with A2 = c A1 gives
    1 - A1^2 - A2^2 = 1 - (1 + c^2) A1^2, so ONE_PLUS_C_SQUARED is the
    algebraically consistent choice and the default; ONE_PLUS_C keeps
    kappa = 1 + c available for comparison.  The two coincide at c = 0 and
    c = 1 and predict different limit amplitudes everywhere else.
    """

    ONE_PLUS_C = "one-plus-c"
    ONE_PLUS_C_SQUARED = "one-plus-c-squared"


def kappa_value(c: float, convention: KappaConvention) -> float:
    if convention is KappaConvention.ONE_PLUS_C:
        return 1.0 + c
    return 1.0 + c * c


@dataclass(frozen=True)
class AmplitudeFlow:
    """Discrete amplitude flow of one variant; calling it returns delta A.

    delta A = rate A^2 B (cubic) or rate (A - A^2 B) (Van der Pol), B = conj(A).
    """

    variant: Variant
    rate: complex

    def __call__(self, a: complex) -> complex:
        rate = self.rate
        if self.variant is Variant.CUBIC:
            return rate * a * a * a.conjugate()
        return rate * (a - a * a * a.conjugate())


def secular_rate(kind: Variant, eps: float) -> complex:
    """Rate r of the continuum amplitude equation, the dt -> 0 secular coefficient.

    Cubic:       A' = r A^2 B with r = (3/2) i eps,
    Van der Pol: A' = r (A - A^2 B) with r = eps; B = conj(A).  The one
    definition of both rates.
    """
    if kind is Variant.CUBIC:
        return 1.5j * eps
    return eps


def build_flow(kind: Variant, params: SchemeParams) -> AmplitudeFlow:
    """Discrete amplitude flow for the given nonlinearity: the step map A -> delta A.

    The forward Euler step of the continuum equation, rate secular_rate * dt.
    The B equation of the two-amplitude map is the conjugate of the A equation.
    """
    return AmplitudeFlow(kind, secular_rate(kind, params.eps) * params.dt)


def _cubic_path(a: complex, rate: complex, steps: int):
    yield a
    for _ in range(steps):
        a = a + rate * a * a * a.conjugate()
        yield a


def _vdp_path(a: complex, rate: complex, steps: int):
    yield a
    for _ in range(steps):
        a = a + rate * (a - a * a * a.conjugate())
        yield a


def flow_path(flow: AmplitudeFlow, a0: complex, steps: int) -> np.ndarray:
    """Amplitudes A(m) along the flow for m = 0..steps.

    A strict left fold a = a + flow(a) in a fixed order, so results are
    bit-reproducible.  The step of each variant is written inline, with the
    arithmetic of AmplitudeFlow.__call__, in a generator that fills the array
    directly, so no step pays for a function call and no list of boxed values
    is held.  Complex arithmetic turns an overflow into inf or nan rather than
    raising, so the loop runs unchecked and one vectorized test of
    |A(m)| <= 1e12 over m >= 1 follows it; the OverflowError names the first
    step that fails, as a test per step would (a nan a0 fails at step 1).
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    path = _cubic_path if flow.variant is Variant.CUBIC else _vdp_path
    out = np.fromiter(path(complex(a0), flow.rate, steps), complex, count=steps + 1)
    failed = ~(np.abs(out[1:]) <= _FLOW_OVERFLOW_LIMIT)
    if failed.any():
        step = int(failed.argmax()) + 1
        raise OverflowError(f"amplitude flow exceeded {_FLOW_OVERFLOW_LIMIT} at step {step}")
    return out


def conserved_constant(kind: Variant, a: complex) -> float:
    """Invariant of the amplitude flow: |A|^2 = A B (cubic) or A2/A1 (Van der Pol)."""
    a = complex(a)
    if kind is Variant.CUBIC:
        return (a * a.conjugate()).real
    if a.real == 0.0:
        raise ValueError("Van der Pol amplitude ratio undefined for Re(A) = 0")
    return a.imag / a.real


def solve_cubic_continuum(a0: complex, rate: complex, t):
    """Continuum amplitude A(t) = A0 e^{rate c t} with c = |A0|^2.

    Exact solution of A' = rate A^2 conj(A); for an imaginary rate (the
    cubic secular_rate) the modulus is conserved identically.  Accepts scalar
    or array t.
    """
    a0 = complex(a0)
    # The complex product, not abs(a0)**2: the two round differently.
    c = a0 * a0.conjugate()
    t_arr = np.asarray(t, dtype=float)
    # Named, so numpy cannot reuse the temporary in place: that swaps the
    # operands of the product and changes its rounding on large arrays.
    phase = np.exp(rate * c * t_arr)
    a = a0 * phase
    if t_arr.ndim == 0:
        return complex(a)
    return a


def solve_vdp_continuum(
    a1: float,
    c: float,
    rate: float,
    t,
    convention: KappaConvention = KappaConvention.ONE_PLUS_C_SQUARED,
):
    """Continuum Van der Pol amplitude A = A1 (1 + i c) with A1(0) = a1.

    A1(t) = a1 / sqrt(kappa a1^2 + (1 - kappa a1^2) e^{-2 rate t}) satisfies
    A1' = rate A1 (1 - kappa A1^2) exactly from any a1 != 0, below or above
    the limit sign(a1)/sqrt(kappa) that it tends to as t grows; the component
    ratio Im(A)/Re(A) stays c.  Accepts scalar or array t.  A denominator
    <= 0 (kappa < 0 blows A1 up; an underflowed kappa a1^2 lets it underflow
    to 0) raises EnvelopeDomainError, a ValueError naming the first such t.
    """
    if a1 == 0.0:
        raise ValueError("initial amplitude must be nonzero")
    settled = kappa_value(c, convention) * a1 * a1
    t_arr = np.asarray(t, dtype=float)
    denom = settled + (1.0 - settled) * np.exp(-2.0 * rate * t_arr)
    vanishes = np.flatnonzero(denom <= 0.0)
    if vanishes.size:
        first = int(vanishes[0])
        raise EnvelopeDomainError(first, float(np.ravel(t_arr)[first]))
    a = a1 / np.sqrt(denom) * (1.0 + 1j * c)
    if t_arr.ndim == 0:
        return complex(a)
    return a


def continuum_amplitude(
    kind: Variant,
    a0: complex,
    eps: float,
    t,
    convention: KappaConvention = KappaConvention.ONE_PLUS_C_SQUARED,
):
    """Continuum amplitude A(t) with A(0) = a0 and B = conj(A), scalar or array t.

    Cubic: a0 rotating at rate Im(r) |a0|^2, r = secular_rate(kind, eps).
    Van der Pol: the envelope at rate r from Re(a0) under the kappa
    convention, with the invariant component ratio c = Im(a0)/Re(a0).
    """
    a0 = complex(a0)
    rate = secular_rate(kind, eps)
    if kind is Variant.CUBIC:
        return solve_cubic_continuum(a0, rate, t)
    c = conserved_constant(kind, a0)
    return solve_vdp_continuum(a0.real, c, rate, t, convention)


def continuum_limit_check(
    kind: Variant,
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
