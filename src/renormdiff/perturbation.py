"""First-order perturbation construction for the two example nonlinearities.

Builds the zeroth-order solution A lam_p^n + conj(A) lam_m^n of a real
sequence from the one complex amplitude A, the first-order forcing and
particular solution for the cubic and Van der Pol type schemes, extracts the
secular (n * lambda^n) content, derives the first-order record that every
consumer takes alone (the scheme, its per-step secular rate and its
third-harmonic coefficient), and evaluates the naive (unrenormalized)
expansion z0 + eps * z1 as twice the real part of its lam_p half.

Cross-term convention: products lam_p^n * lam_m^n arising from powers of z0
are collected as 1.  This is exact for the unit-modulus roots (whose product
is exactly 1) and a deliberate first-order approximation for the
1 +/- i*omega convention, whose product is 1 + mu; the dropped factor
(1 + mu)^n is the price of reproducing the closed-form expansion coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lineardiff import (
    HarmonicSum,
    HarmonicTerm,
    RootConvention,
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
    "FirstOrder",
    "first_order",
    "monomial",
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


def monomial(kind: Variant, a: complex) -> complex:
    """The monomial mono(a) that the secular term and the flow step carry:
    a^2 conj(a) (cubic) or a - a^2 conj(a) (Van der Pol)."""
    cube = a * a * a.conjugate()
    return cube if kind is Variant.CUBIC else a - cube


def _unit_forcing(kind: Variant, params: SchemeParams) -> tuple:
    """The lam_p half of the forcing with a unit coefficient on each monomial:
    the lam_p^3 term per a^3, then the lam_p term per mono(a)."""
    lam_p = characteristic_roots(params)[0]
    if kind is Variant.CUBIC:
        w3, w1 = -params.mu, -3.0 * params.mu
    else:
        w1 = vdp_scale(params) * (lam_p - 1.0 / lam_p)
        w3 = -w1
    return HarmonicTerm(w3, lam_p**3), HarmonicTerm(w1, lam_p)


def first_order_forcing(
    kind: Variant, a: complex, params: SchemeParams
) -> HarmonicSum:
    """Right-hand side of the first-order equation, collected on four modes.

    Each formula is written for the lam_p half (_unit_forcing times a^3 and
    mono(a)); the lam_m half is its conjugate, which keeps the forcing real.
    With b = conj(a):

    Cubic: -mu * (a^3 lam_p^3n + 3 a^2 b lam_p^n), the mu prefactor being
    the scheme's.

    Van der Pol: (mu/dt) * (1 - z0^2)(z0(n+1) - z0(n-1)) expanded with
    z0(n +/- 1) = a lam_p^(n+/-1) + b lam_m^(n+/-1), yielding coefficients
    -a^3 s and (a - a^2 b) s on lam_p^3n and lam_p^n, with
    s = lam_p - 1/lam_p.  They are collected under the cross-term
    convention, read as lam_m = 1/lam_p.
    """
    a = complex(a)
    t3, t1 = _unit_forcing(kind, params)
    return _real_sum((HarmonicTerm(t3.coeff * (a * a * a), t3.base),
                      HarmonicTerm(t1.coeff * monomial(kind, a), t1.base)))


def _unit_response(kind: Variant, params: SchemeParams) -> tuple[HarmonicSum, complex]:
    """particular_solution of _unit_forcing, and its base lam_p^3.

    Below dt of about 1.6e-5 the characteristic polynomial at lam_p^3, about
    -8 dt^2, falls within resonance_tolerance, so particular_solution would
    file the third harmonic as secular (or as degenerate at smaller dt) and
    its coefficient would read 0; that is refused with a ValueError naming dt.
    """
    forcing = _unit_forcing(kind, params)
    base3 = forcing[0].base
    if is_resonant(base3, params):
        raise ValueError(
            f"dt = {params.dt} is too small to resolve the third harmonic: its "
            f"base lam_p^3 = {base3} lies within the resonance tolerance"
        )
    return particular_solution(HarmonicSum(forcing), params), base3


@dataclass(frozen=True)
class FirstOrder:
    """The first-order record of the scheme `kind` under `params`, derived
    once per pipeline; it names its scheme, so a consumer takes it alone.

    `rate` is the per-step secular rate r, with eps sigma(a) = r mono(a): the
    naive expansion's secular coefficient and the step of the discrete
    renormalization equation A(m+1) - A(m) = eps sigma(A(m)), at the
    scheme's own dt.  `k3` is the third-harmonic coefficient per unit a^3.
    """

    kind: Variant
    params: SchemeParams
    rate: complex
    k3: complex


def first_order(kind: Variant, params: SchemeParams) -> FirstOrder:
    """The first-order record, from one particular_solution of the lam_p half
    of the forcing with a unit coefficient on each monomial.

    At exact roots lam_p - 1/lam_p is imaginary, so the cubic rate is
    imaginary and the Van der Pol rate real; the record keeps that part alone
    (the other is rounding, below 1e-13 of it), which makes each flow one
    real recurrence.  A dt too small to resolve the third harmonic is
    refused with a ValueError, and so are first-order roots, where the
    dropped part is of relative size dt/2.
    """
    z1, base3 = _unit_response(kind, params)
    if params.root_convention is not RootConvention.EXACT_UNIT_MODULUS:
        raise ValueError(f"the first-order record needs the exact roots, not the "
                         f"{params.root_convention.value!r} root convention")
    sigma = params.eps * z1.coefficient(characteristic_roots(params)[0], 1)
    rate = complex(0.0, sigma.imag) if kind is Variant.CUBIC else complex(sigma.real)
    return FirstOrder(kind, params, rate, z1.coefficient(base3))


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


def naive_solution(first: FirstOrder, a: complex, n, fundamental=None):
    """Uncorrected expansion z0 + eps * z1 at index n: 2 Re[(a + n r mono(a)) F + eps k3 a^3 F^3].

    a is the amplitude of the lam_p mode and F = lam_p^n.  The lam_m mode
    carries conj(a), and the lam_m half of the expansion is the conjugate of
    the lam_p half, so twice the real part of the lam_p half is the whole
    real sequence.  r and k3 come from the first-order record `first` of the
    scheme: n r mono(a) is n times the flow's first step, so the naive and
    renormalized solutions share one secular coefficient, and k3, the
    response to the lam_p^3 half of the forcing, is not doubled or cancelled
    where a real lam_p^3 merges the lam_m^3 term onto its base.
    `fundamental` is F at these indices, from a caller that also assembles
    the renormalized forms with it (power_table(lam_p, n) when omitted).
    Accepts a scalar index (returns a float) or an array of indices (returns
    a float array).
    """
    a = complex(a)
    secular = first.rate * monomial(first.kind, a)
    third = first.params.eps * first.k3 * (a * a * a)
    arr = np.asarray(n, dtype=float)
    if fundamental is None:
        f = power_table(characteristic_roots(first.params)[0], arr)
    else:
        f = np.asarray(fundamental, dtype=complex)
    value = (a + secular * arr) * f + third * (f * f * f)
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
