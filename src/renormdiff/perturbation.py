"""First-order perturbation construction for the two example nonlinearities.

Builds the zeroth-order solution A lam_p^n + conj(A) lam_m^n of a real
sequence from the one complex amplitude A, the first-order forcing and
particular solution for the cubic and Van der Pol type schemes, extracts the
secular (n * lambda^n) content, and evaluates the naive (unrenormalized)
expansion z0 + eps * z1 as twice the real part of its lam_p half.

Cross-term convention: products lam_p^n * lam_m^n arising from powers of z0
are collected as 1.  This is exact for the unit-modulus roots (whose product
is exactly 1) and a deliberate first-order approximation for the
1 +/- i*omega convention, whose product is 1 + mu; the dropped factor
(1 + mu)^n is the price of reproducing the closed-form expansion coefficients.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .lineardiff import (
    HarmonicSum,
    HarmonicTerm,
    SchemeParams,
    characteristic_roots,
    is_resonant,
    particular_solution,
    power_table,
    resonance_tolerance,
)

__all__ = [
    "Variant",
    "CUBIC",
    "VAN_DER_POL",
    "zeroth_order",
    "first_order_forcing",
    "first_order_solution",
    "extract_secular",
    "naive_solution",
    "nonlinearity_value",
    "vdp_scale",
]


class Variant(Enum):
    """Which nonlinear right-hand side the scheme carries.

    CUBIC: the forcing is -z(n)^3 (times the scheme's mu * eps prefactor).
    VAN_DER_POL: the forcing is eps * (mu/dt) * (1 - z(n)^2) * (z(n+1) - z(n-1)).
    """

    CUBIC = "cubic"
    VAN_DER_POL = "vdp"


CUBIC = Variant.CUBIC
VAN_DER_POL = Variant.VAN_DER_POL


def _real_sum(half: tuple) -> HarmonicSum:
    """The real sum whose lam_p half is `half`: each term, then its conjugate."""
    return HarmonicSum(tuple(
        term
        for t in half
        for term in (t, HarmonicTerm(t.coeff.conjugate(), t.base.conjugate(), t.n_power))
    ))


def zeroth_order(a: complex, params: SchemeParams) -> HarmonicSum:
    """Homogeneous solution a * lam_p^n + conj(a) * lam_m^n."""
    return _real_sum((HarmonicTerm(a, characteristic_roots(params)[0]),))


def vdp_scale(params: SchemeParams) -> float:
    """Van der Pol forcing weight mu/dt.

    Written omega * (omega / dt), which is exactly dt for the standard scheme.
    """
    omega = params.omega
    return omega * (omega / params.dt)


def first_order_forcing(
    kind: Variant, a: complex, params: SchemeParams
) -> HarmonicSum:
    """Right-hand side of the first-order equation, collected on four modes.

    Each formula is written for the lam_p half; the lam_m half is its
    conjugate, which keeps the forcing real.  With b = conj(a):

    Cubic: -mu * (a^3 lam_p^3n + 3 a^2 b lam_p^n), the mu prefactor being
    the scheme's.

    Van der Pol: (mu/dt) * (1 - z0^2)(z0(n+1) - z0(n-1)) expanded with
    z0(n +/- 1) = a lam_p^(n+/-1) + b lam_m^(n+/-1), yielding coefficients
    -a^3 s and (a - a^2 b) s on lam_p^3n and lam_p^n, with
    s = lam_p - 1/lam_p.  They are collected under the cross-term
    convention, read as lam_m = 1/lam_p.
    """
    return _real_sum(_forcing_terms(kind, a, params))


def _forcing_terms(kind: Variant, a: complex, params: SchemeParams) -> tuple:
    """first_order_forcing's lam_p half: the lam_p^3 term, then the lam_p term."""
    a = complex(a)
    b = a.conjugate()
    lam_p = characteristic_roots(params)[0]
    if kind is Variant.CUBIC:
        pref = -params.mu
        return (
            HarmonicTerm(pref * a**3, lam_p**3),
            HarmonicTerm(pref * 3.0 * a * a * b, lam_p),
        )
    scale = vdp_scale(params)
    s_p = lam_p - 1.0 / lam_p
    return (
        HarmonicTerm(-scale * a**3 * s_p, lam_p**3),
        HarmonicTerm(scale * (a - a * a * b) * s_p, lam_p),
    )


def _third_harmonic_base(params: SchemeParams) -> complex:
    """The base lam_p^3 of the third harmonic, checked to be non-resonant.

    Below dt of about 1.6e-5 the characteristic polynomial at lam_p^3, about
    -8 dt^2, falls within resonance_tolerance, so particular_solution would
    file the third harmonic as secular (or as degenerate at smaller dt) and
    its coefficient would read 0; that is refused with a ValueError naming dt.
    """
    base = characteristic_roots(params)[0] ** 3
    if is_resonant(base, params):
        raise ValueError(
            f"dt = {params.dt} is too small to resolve the third harmonic: its "
            f"base lam_p^3 = {base} lies within the resonance tolerance"
        )
    return base


def first_order_solution(
    kind: Variant, a: complex, params: SchemeParams
) -> HarmonicSum:
    """Particular solution z1 of the first-order equation.

    Carries two secular terms, on the fundamental modes, whenever a is
    nonzero; the third-harmonic responses are geometric.
    """
    return particular_solution(first_order_forcing(kind, a, params), params)


def extract_secular(z1: HarmonicSum, params: SchemeParams) -> complex:
    """Coefficient of n * lam_p^n in a normalized first-order solution.

    The n * lam_m^n coefficient is its conjugate.  Raises if a secular term
    sits on a base other than the two characteristic roots of the active
    convention: that would mean the construction upstream produced
    resonance where none is expected.
    """
    lam_p, lam_m = characteristic_roots(params)
    sigma = 0j
    for term in z1.terms:
        if term.n_power != 1:
            continue
        if abs(term.base - lam_p) <= resonance_tolerance(lam_p):
            sigma += term.coeff
        elif abs(term.base - lam_m) > resonance_tolerance(lam_m):
            raise ValueError(f"secular term on unexpected base {term.base}")
    return sigma


def naive_solution(kind: Variant, a: complex, params: SchemeParams, n, fundamental=None):
    """Uncorrected expansion z0 + eps * z1 at index n: 2 Re[(a + eps sigma n) F + eps c3 F^3].

    a is the amplitude of the lam_p mode and F = lam_p^n.  The lam_m mode
    carries conj(a), and the lam_m half of the expansion is the conjugate of
    the lam_p half, so twice the real part of the lam_p half is the whole
    real sequence.  sigma and c3 are the secular and third-harmonic
    coefficients of the response to the lam_p half of the forcing alone:
    read off first_order_solution, c3 would double (cubic) or cancel (Van
    der Pol) wherever lam_p^3 is real and the lam_m^3 term merges onto its
    base.  `fundamental` is F at these indices, from a caller that also
    assembles the renormalized forms with it (power_table(lam_p, n) when
    omitted).  Accepts a scalar index (returns a float) or an array of
    indices (returns a float array); raises ValueError where dt is too small
    for the third harmonic to be resolved.
    """
    lam_p = characteristic_roots(params)[0]
    base3 = _third_harmonic_base(params)
    z1 = particular_solution(HarmonicSum(_forcing_terms(kind, a, params)), params)
    sigma = z1.coefficient(lam_p, 1)
    c3 = z1.coefficient(base3)
    arr = np.asarray(n, dtype=float)
    f = power_table(lam_p, arr) if fundamental is None else np.asarray(fundamental, dtype=complex)
    value = (complex(a) + params.eps * sigma * arr) * f + params.eps * c3 * f**3
    out = 2.0 * value.real
    if out.ndim == 0:
        return float(out)
    return out


def nonlinearity_value(
    kind: Variant,
    z_plus: complex,
    z_center: complex,
    z_minus: complex,
    params: SchemeParams,
) -> complex:
    """The forcing f such that the scheme residual subtracts mu * eps * f.

    For the Van der Pol variant the nonlinearity enters the scheme with the
    weight mu/dt, so f carries a 1/dt to match the mu bookkeeping of the
    residual.
    """
    if kind is Variant.CUBIC:
        return -(z_center**3)
    return (1.0 - z_center * z_center) * (z_plus - z_minus) / params.dt
