"""First-order perturbation construction for the two example nonlinearities.

Builds the zeroth-order solution A lam_p^n + conj(A) lam_m^n of a real
sequence from the one complex amplitude A, the first-order forcing and
particular solution for the cubic and Van der Pol type schemes, extracts the
secular (n * lambda^n) content, and evaluates the naive (unrenormalized)
expansion z0 + eps * z1.

Cross-term convention: products lam_p^n * lam_m^n arising from powers of z0
are collected as 1.  This is exact for the unit-modulus roots (whose product
is exactly 1) and a deliberate first-order approximation for the
1 +/- i*omega convention, whose product is 1 + mu; the dropped factor
(1 + mu)^n is the price of reproducing the closed-form expansion coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .lineardiff import (
    HarmonicSum,
    HarmonicTerm,
    SchemeParams,
    characteristic_roots,
    particular_solution,
    resonance_tolerance,
)

__all__ = [
    "Variant",
    "Nonlinearity",
    "CUBIC",
    "VAN_DER_POL",
    "van_der_pol",
    "zeroth_order",
    "first_order_forcing",
    "first_order_solution",
    "extract_secular",
    "naive_solution",
    "nonlinearity_value",
    "vdp_scale",
]


class Variant(Enum):
    CUBIC = "cubic"
    VAN_DER_POL = "vdp"


@dataclass(frozen=True)
class Nonlinearity:
    """Which nonlinear right-hand side the scheme carries.

    CUBIC: the forcing is -z(n)^3 (times the scheme's mu * eps prefactor).
    VAN_DER_POL: the forcing is eps * (mu/dt) * (1 - z(n)^2) * (z(n+1) - z(n-1));
    with `vdp_halving` the centered difference is halved, which matches the
    standard centered discretization of z' and amounts to eps -> eps/2.
    """

    variant: Variant
    vdp_halving: bool = False

    def __post_init__(self):
        if self.vdp_halving and self.variant is not Variant.VAN_DER_POL:
            raise ValueError("vdp_halving only applies to the Van der Pol variant")

    @property
    def vdp_factor(self) -> float:
        """The halving convention's factor on every Van der Pol rate (1 if off)."""
        return 0.5 if self.vdp_halving else 1.0


CUBIC = Nonlinearity(Variant.CUBIC)
VAN_DER_POL = Nonlinearity(Variant.VAN_DER_POL)


def van_der_pol(halving: bool = False) -> Nonlinearity:
    return Nonlinearity(Variant.VAN_DER_POL, vdp_halving=halving)


def zeroth_order(a: complex, params: SchemeParams) -> HarmonicSum:
    """Homogeneous solution a * lam_p^n + conj(a) * lam_m^n."""
    a = complex(a)
    b = a.conjugate()
    lam_p, lam_m = characteristic_roots(params)
    return HarmonicSum((HarmonicTerm(a, lam_p), HarmonicTerm(b, lam_m)))


def vdp_scale(kind: Nonlinearity, params: SchemeParams) -> float:
    """Van der Pol forcing weight mu/dt times the halving factor.

    Written omega * (omega / dt), which is exactly dt for the standard scheme.
    """
    omega = params.omega
    return omega * (omega / params.dt) * kind.vdp_factor


def first_order_forcing(
    kind: Nonlinearity, a: complex, params: SchemeParams
) -> HarmonicSum:
    """Right-hand side of the first-order equation, collected on four modes.

    With b = conj(a), the amplitude of the lam_m mode:

    Cubic: -mu * (a^3 lam_p^3n + b^3 lam_m^3n + 3 a^2 b lam_p^n
    + 3 a b^2 lam_m^n), the mu prefactor being the scheme's.

    Van der Pol: (mu/dt) * (1 - z0^2)(z0(n+1) - z0(n-1)) expanded with
    z0(n +/- 1) = a lam_p^(n+/-1) + b lam_m^(n+/-1), yielding coefficients
    -a^3 s, -b^3 s', (a - a^2 b) s, (b - a b^2) s' on the four modes, with
    s = lam_p - 1/lam_p and s' = lam_m - 1/lam_m.  The lam_p coefficients
    are collected under the cross-term convention, read as lam_m = 1/lam_p.
    The lam_m ones carry s' = conj(s), which keeps the forcing real (each is
    the conjugate of its lam_p partner); s' = -s only at unit-modulus roots:
    at first-order roots, dt = 0.1, s' = 0.0099 - 0.199i, -s = -0.0099 - 0.199i.
    """
    return HarmonicSum(_forcing_terms(kind, a, params))


def _forcing_terms(kind: Nonlinearity, a: complex, params: SchemeParams) -> tuple:
    """first_order_forcing's four terms, lam_p^3 first, not yet merged by base."""
    a = complex(a)
    b = a.conjugate()
    lam_p, lam_m = characteristic_roots(params)
    if kind.variant is Variant.CUBIC:
        pref = -params.mu
        return (
            HarmonicTerm(pref * a**3, lam_p**3),
            HarmonicTerm(pref * b**3, lam_m**3),
            HarmonicTerm(pref * 3.0 * a * a * b, lam_p),
            HarmonicTerm(pref * 3.0 * a * b * b, lam_m),
        )
    scale = vdp_scale(kind, params)
    s_p = lam_p - 1.0 / lam_p
    s_m = lam_m - 1.0 / lam_m
    return (
        HarmonicTerm(-scale * a**3 * s_p, lam_p**3),
        HarmonicTerm(-scale * b**3 * s_m, lam_m**3),
        HarmonicTerm(scale * (a - a * a * b) * s_p, lam_p),
        HarmonicTerm(scale * (b - a * b * b) * s_m, lam_m),
    )


def first_order_solution(
    kind: Nonlinearity, a: complex, params: SchemeParams
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


def naive_solution(kind: Nonlinearity, a: complex, params: SchemeParams, n, powers=None):
    """Real part of the uncorrected expansion z0 + eps * z1 at index n.

    a is the amplitude of the lam_p mode; the lam_m mode carries conj(a), so
    the expansion is a real sequence.  Accepts a scalar index (returns a
    float) or an array of indices (returns a float array that owns its data,
    so the complex sum it was taken from is freed).  `powers` is passed to
    HarmonicSum.evaluate: (base, power_table(base, n)) pairs for the sum's
    bases lam_p and lam_p^3 that the caller has already computed.
    """
    full = zeroth_order(a, params) + first_order_solution(
        kind, a, params
    ).scaled(params.eps)
    value = full.evaluate(n, powers)
    if isinstance(value, complex):
        return value.real
    return value.real.copy()


def nonlinearity_value(
    kind: Nonlinearity,
    z_plus: complex,
    z_center: complex,
    z_minus: complex,
    params: SchemeParams,
) -> complex:
    """The forcing f such that the scheme residual subtracts mu * eps * f.

    For the Van der Pol variant the nonlinearity enters the scheme with the
    weight mu/dt, so f carries a 1/dt to match the mu bookkeeping of the
    residual (and the halving factor).
    """
    if kind.variant is Variant.CUBIC:
        return -(z_center**3)
    diff = (1.0 - z_center * z_center) * (z_plus - z_minus)
    return diff * kind.vdp_factor / params.dt
