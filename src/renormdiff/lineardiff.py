"""Linear machinery for the scheme z(n+1) - (2 - mu) z(n) + z(n-1) = g(n).

The weight mu = omega^2 is fixed by the scheme: omega = dt for the standard
scheme and omega = 2 sin(dt/2) for the trigonometric-weight (mickens) scheme,
whose exact roots are e^{+/- i dt}.  Provides the two characteristic-root
conventions, harmonic sums (finite combinations of c * n^p * lambda^n with
p in {0, 1}), resonance detection, and particular solutions for geometric
forcings, including the secular n*lambda^n response to resonant ones.

Root conventions
----------------
FIRST_ORDER uses lambda = 1 +/- i*omega.  These satisfy the characteristic
polynomial only to O(omega^3) per step and their product is 1 + mu, not 1; the
convention exists to reproduce the first-order perturbation formulas verbatim.
EXACT_UNIT_MODULUS uses the exact roots e^{+/- i theta} with
cos(theta) = 1 - mu/2, which have unit modulus and product exactly 1.  Use
the exact convention whenever trajectories are compared against brute-force
iteration.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "RootConvention",
    "Scheme",
    "SchemeParams",
    "HarmonicTerm",
    "HarmonicSum",
    "power_table",
    "characteristic_roots",
    "scheme_residual",
    "is_resonant",
    "resonance_tolerance",
    "particular_solution",
]

# Relative distance below which two bases are considered the same mode.
_BASE_MERGE_TOL = 1e-12

# Small-parameter size beyond which the first-order construction is dubious.
_EPS_WARN_THRESHOLD = 0.5


class RootConvention(Enum):
    FIRST_ORDER = "first-order"
    EXACT_UNIT_MODULUS = "exact"


class Scheme(Enum):
    """Weight of the harmonic part: dt^2 (standard) or 4 sin^2(dt/2) (mickens)."""

    STANDARD = "standard"
    MICKENS = "mickens"


@dataclass(frozen=True)
class SchemeParams:
    """Physical configuration of a scheme: step size, small parameter, roots.

    dt is the dimensionless time step; eps >= 0 is the nonlinearity strength.
    The exact characteristic roots are complex while mu < 4, which bounds dt
    by 2 for the standard scheme and by pi for the mickens scheme.
    """

    dt: float
    eps: float = 0.0
    root_convention: RootConvention = RootConvention.FIRST_ORDER
    scheme: Scheme = Scheme.STANDARD

    def __post_init__(self):
        dt_max = 2.0 if self.scheme is Scheme.STANDARD else math.pi
        if not 0.0 < self.dt < dt_max:
            raise ValueError(f"dt must lie in (0, {dt_max:.6g}), got {self.dt}")
        if not self.eps >= 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if self.eps > _EPS_WARN_THRESHOLD:
            warnings.warn(
                f"eps = {self.eps} is large for a first-order expansion; "
                "results are formal only",
                stacklevel=3,
            )

    @property
    def omega(self) -> float:
        """Square root of the scheme weight: dt, or 2 sin(dt/2) for mickens."""
        if self.scheme is Scheme.STANDARD:
            return self.dt
        return 2.0 * math.sin(0.5 * self.dt)

    @property
    def mu(self) -> float:
        """Weight mu = omega^2 of the harmonic part and of the forcing."""
        omega = self.omega
        return omega * omega


def characteristic_roots(params: SchemeParams) -> tuple[complex, complex]:
    """Roots (lambda_plus, lambda_minus) of the homogeneous scheme.

    The exact convention returns the roots of
    lambda^2 - (2 - mu) lambda + 1 = 0 written as
    (1 - mu/2) +/- i * omega * sqrt(1 - mu/4), whose product is exactly 1.
    """
    omega, mu = params.omega, params.mu
    if params.root_convention is RootConvention.FIRST_ORDER:
        return complex(1.0, omega), complex(1.0, -omega)
    re = 1.0 - 0.5 * mu
    im = omega * math.sqrt(1.0 - 0.25 * mu)
    return complex(re, im), complex(re, -im)


def scheme_residual(
    z_minus: complex,
    z_center: complex,
    z_plus: complex,
    params: SchemeParams,
    forcing_value: complex = 0.0,
) -> complex:
    """Residual of the scheme at one index for a triple of consecutive values.

    Returns z_plus - (2 - mu) z_center + z_minus - mu * eps * forcing_value,
    which vanishes exactly when the triple satisfies the (forced) scheme.
    """
    mu = params.mu
    return z_plus - (2.0 - mu) * z_center + z_minus - mu * params.eps * forcing_value


@dataclass(frozen=True)
class HarmonicTerm:
    """One term coeff * n^p * base^n with p restricted to 0 or 1."""

    coeff: complex
    base: complex
    n_power: int = 0

    def __post_init__(self):
        if self.base == 0:
            raise ValueError("harmonic base must be nonzero")
        if self.n_power not in (0, 1):
            raise ValueError(f"n_power must be 0 or 1, got {self.n_power}")
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "base", complex(self.base))


def _bases_match(b1: complex, b2: complex) -> bool:
    return abs(b1 - b2) <= _BASE_MERGE_TOL * max(1.0, abs(b1), abs(b2))


def power_table(base: complex, n):
    """base^n at indices n (scalar or array), as exp(n log base).

    For integer n the branch of the logarithm is immaterial, and the polar
    form avoids the overflow and drift of repeated multiplication at large n.
    Integer and float arrays of the same indices give the same bits.
    """
    return np.exp(n * cmath.log(base))


def _power_key(base: complex) -> tuple:
    """Key of a base's powers: complex equality ignores the sign of a zero
    imaginary part, and the logarithm's branch does not."""
    return base, math.copysign(1.0, base.imag)


@dataclass(frozen=True)
class HarmonicSum:
    """Normalized finite sum of harmonic terms.

    Terms sharing a (base, n_power) pair are merged on construction (bases
    within ~1e-12 relative distance count as equal; the earlier base wins).
    Terms whose coefficient cancels to exactly zero are dropped, so the empty
    sum is representable.
    """

    terms: tuple[HarmonicTerm, ...] = ()

    def __post_init__(self):
        merged: list[HarmonicTerm] = []
        for term in self.terms:
            for i, kept in enumerate(merged):
                if kept.n_power == term.n_power and _bases_match(kept.base, term.base):
                    merged[i] = HarmonicTerm(
                        kept.coeff + term.coeff, kept.base, kept.n_power
                    )
                    break
            else:
                merged.append(term)
        object.__setattr__(
            self, "terms", tuple(t for t in merged if t.coeff != 0)
        )

    def __add__(self, other: "HarmonicSum") -> "HarmonicSum":
        return HarmonicSum(self.terms + other.terms)

    def scaled(self, factor: complex) -> "HarmonicSum":
        return HarmonicSum(
            tuple(HarmonicTerm(factor * t.coeff, t.base, t.n_power) for t in self.terms)
        )

    def evaluate(self, n, powers=None):
        """Evaluate the sum at index n (scalar or array).

        base^n is power_table(base, n); terms on one base share its powers.
        A base whose conjugate is already keyed takes the conjugate of those
        powers: cmath.log and numpy's complex exp are conjugate-symmetric, so
        this changes at most the sign of a zero part of the powers, which the
        sum absorbs.  `powers` optionally holds (base, power_table(base, n))
        pairs at these indices, computed once by a caller that evaluates
        several sums on one grid; a term on that base reads the table instead.
        Pairs, not a dict: a dict keyed by the base would merge -1+0j and
        -1-0j, whose powers differ.  The tables are read, never written.
        """
        arr = np.asarray(n, dtype=float)
        out = np.zeros(arr.shape, dtype=complex)
        tables = {_power_key(base): table for base, table in powers or ()}
        for term in self.terms:
            base = term.base
            key = _power_key(base)
            grow = tables.get(key)
            if grow is None:
                mirror = tables.get(_power_key(base.conjugate()))
                grow = power_table(base, arr) if mirror is None else np.conj(mirror)
                tables[key] = grow
            if term.n_power == 1:
                grow = grow * arr
            out += term.coeff * grow
        if arr.ndim == 0:
            return complex(out)
        return out

    def coefficient(self, base: complex, n_power: int = 0) -> complex:
        """Coefficient on (base, n_power), 0 if the mode is absent."""
        for term in self.terms:
            if term.n_power == n_power and _bases_match(term.base, base):
                return term.coeff
        return 0j


def resonance_tolerance(base: complex) -> float:
    """Default tolerance for resonance tests.

    Resonance is structural in this construction (a forcing base equals a
    characteristic root symbolically), so the tolerance only has to absorb
    floating-point noise.
    """
    return 1e-9 * (1.0 + abs(base))


def is_resonant(base: complex, params: SchemeParams, tol: float | None = None) -> bool:
    """Whether a geometric forcing base^n resonates with the homogeneous scheme.

    True when the base coincides with one of the active convention's roots, or
    when it annihilates the characteristic polynomial numerically
    (|base + 1/base - (2 - mu)| <= tol).  The first clause matters for the
    first-order convention, whose roots satisfy the polynomial only to
    O(omega^3).
    """
    if base == 0:
        raise ValueError("harmonic base must be nonzero")
    if tol is None:
        tol = resonance_tolerance(base)
    lam_p, lam_m = characteristic_roots(params)
    if abs(base - lam_p) <= tol or abs(base - lam_m) <= tol:
        return True
    return abs(base + 1.0 / base - (2.0 - params.mu)) <= tol


def particular_solution(
    forcing: HarmonicSum, params: SchemeParams, tol: float | None = None
) -> HarmonicSum:
    """Particular solution of the scheme for a purely geometric forcing.

    Each non-resonant term c * base^n maps to
    (c / (base + 1/base - 2 + mu)) * base^n; each resonant term maps to the
    secular response (c / (base - 1/base)) * n * base^n.  Forcings already
    carrying a factor n are rejected: the first-order construction never
    produces them, and their response would need n^2 * base^n terms.
    """
    mu = params.mu
    out: list[HarmonicTerm] = []
    for term in forcing.terms:
        if term.n_power != 0:
            raise ValueError(
                "particular_solution handles geometric forcings only "
                f"(got a term with n_power={term.n_power})"
            )
        base = term.base
        term_tol = resonance_tolerance(base) if tol is None else tol
        geometric_denom = base + 1.0 / base - 2.0 + mu
        secular_denom = base - 1.0 / base
        if abs(geometric_denom) <= term_tol and abs(secular_denom) <= term_tol:
            raise ValueError(
                f"degenerate forcing base {base}: both response denominators vanish"
            )
        if is_resonant(base, params, tol):
            out.append(HarmonicTerm(term.coeff / secular_denom, base, 1))
        else:
            out.append(HarmonicTerm(term.coeff / geometric_denom, base, 0))
    return HarmonicSum(tuple(out))
