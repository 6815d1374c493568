"""Globally valid (secular-free) asymptotic solutions.

Substitutes the renormalized amplitudes into the oscillatory expansion, in
discrete form (amplitudes evaluated at t = n dt multiplying lam_p^n) and as a
continuum waveform (fundamental e^{i t}).  The third-harmonic correction uses
the exact dt-dependent response coefficient from the linear machinery; its
dt -> 0 limits are 1/8 (cubic) and i/4 (Van der Pol).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lineardiff import (
    HarmonicSum,
    SchemeParams,
    characteristic_roots,
    particular_solution,
    power_table,
)
from .perturbation import Variant, _forcing_terms, _naive_coefficients, _third_harmonic_base
from .renormalization import conserved_constant, continuum_amplitude, secular_rate

__all__ = [
    "FirstOrder",
    "GlobalSolution",
    "first_order",
    "third_harmonic_coefficient",
    "discrete_fundamental",
    "assemble_modes",
]


def third_harmonic_coefficient(kind: Variant, params: SchemeParams) -> complex:
    """Coefficient kappa3 such that z1 contains kappa3 * A^3 * lam_p^{3n}.

    The particular response to the unit-amplitude lam_p^3 forcing term alone,
    so it tracks the forcing and particular-solution machinery and no lam_m^3
    term merged onto the same base.
    Raises ValueError where dt is too small for the response to be resolved.
    """
    base = _third_harmonic_base(params)
    forcing = HarmonicSum(_forcing_terms(kind, 1.0, params)[:1])
    return particular_solution(forcing, params).coefficient(base, n_power=0)


@dataclass(frozen=True)
class FirstOrder:
    """The first-order coefficients of one pipeline, derived once.

    `k3` is third_harmonic_coefficient, which assemble_modes reads; `sigma`
    and `c3` are naive_solution's coefficients at the pipeline's amplitude.
    A pipeline that evaluates its columns block by block passes this record
    to every block instead of deriving them per call; the values are the
    ones those calls derive.
    """

    k3: complex
    sigma: complex
    c3: complex


def first_order(kind: Variant, a: complex, params: SchemeParams) -> FirstOrder:
    """The first-order coefficients of the scheme at amplitude a, by the
    calls that naive_solution and assemble_modes make without a record."""
    sigma, c3 = _naive_coefficients(kind, a, params)
    return FirstOrder(third_harmonic_coefficient(kind, params), sigma, c3)


def discrete_fundamental(params: SchemeParams, n):
    """The fundamental lam_p^n of the discrete form, as exp(n log lam_p) at indices n."""
    return power_table(characteristic_roots(params)[0], n)


def assemble_modes(
    kind: Variant,
    params: SchemeParams,
    amplitudes,
    fundamental,
    coeffs: FirstOrder | None = None,
) -> np.ndarray:
    """Real expansion 2 Re[A F + eps kappa3 A^3 F^3] per index.

    `amplitudes` is A and `fundamental` is F, each per index (scalars or
    arrays that broadcast together); the conjugate half of the expansion is
    implicit in taking twice the real part.  F = lam_p^n = exp(n log lam_p)
    gives the discrete form and F = e^{i t} the continuum waveform; callers
    that evaluate several forms at the same indices compute F once.
    kappa3 is `coeffs.k3` from a caller that derived its first-order
    coefficients once (first_order), third_harmonic_coefficient otherwise.
    The third harmonic is the cube u*u*u of the fundamental mode u = A F,
    not numpy's general complex pow.
    """
    amp = np.asarray(amplitudes, dtype=complex)
    fundamental = np.asarray(fundamental, dtype=complex)
    k3 = third_harmonic_coefficient(kind, params) if coeffs is None else coeffs.k3
    u = amp * fundamental
    value = u + params.eps * k3 * (u * u * u)
    out = 2.0 * value.real
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class GlobalSolution:
    """Secular-free solution determined by an initial complex amplitude.

    `a0` is the amplitude A at t = 0 (the conjugate mode carries conj(a0), so
    evaluations are real).  For the cubic kind the conserved constant is
    c = |a0|^2 and the amplitude rotates at rate (3/2) eps c; for the Van der
    Pol kind the amplitude is a0 times one real envelope, which tends to the
    limit cycle |A| = 1 (solve_vdp_continuum, whose domain of a0 the
    construction checks).
    """

    kind: Variant
    params: SchemeParams
    a0: complex

    def __post_init__(self):
        object.__setattr__(self, "a0", complex(self.a0))
        # Fail at construction, not first evaluation: below dt of about
        # 1.6e-5 the third harmonic cannot be resolved, and a Van der Pol
        # |a0|^2 outside [smallest normal, 2^53) has no envelope.
        _third_harmonic_base(self.params)
        if self.kind is Variant.VAN_DER_POL:
            self.amplitude_at(0.0)

    def amplitude_at(self, t):
        """Renormalized amplitude A(t) from the continuum flow (scalar/array)."""
        return continuum_amplitude(self.kind, self.a0, self.params.eps, t)

    def eval_discrete(self, n, fundamental=None, coeffs: FirstOrder | None = None):
        """Real solution at integer indices n (scalar or array).

        `fundamental` is lam_p^n at these indices, from a caller that also
        assembles other forms with it (discrete_fundamental when omitted);
        `coeffs` is that caller's first-order record, for assemble_modes.
        """
        n_arr = np.asarray(n, dtype=float)
        amp = self.amplitude_at(n_arr * self.params.dt)
        if fundamental is None:
            fundamental = discrete_fundamental(self.params, n_arr)
        return assemble_modes(self.kind, self.params, amp, fundamental, coeffs)

    def eval_continuum_waveform(self, t):
        """Real waveform at continuous time t, fundamental e^{i t}.

        Same amplitude and third-harmonic structure as the discrete form with
        lam_p^n replaced by its limit; for the cubic kind this is exactly
        periodic with angular frequency 1 + (3/2) eps |a0|^2.
        """
        t_arr = np.asarray(t, dtype=float)
        amp = self.amplitude_at(t_arr)
        return assemble_modes(self.kind, self.params, amp, np.exp(t_arr * 1j))

    def frequency_shift(self) -> float:
        """Angular frequency 1 + Im(r) |a0|^2 of the cubic waveform, r = (3/2) i eps."""
        if self.kind is not Variant.CUBIC:
            raise ValueError(
                "frequency shift is defined for the cubic kind only; the Van "
                "der Pol fundamental stays at frequency 1 at this order"
            )
        c = conserved_constant(Variant.CUBIC, self.a0)
        return 1.0 + secular_rate(self.kind, self.params.eps).imag * c

    def fundamental_amplitude(self, t):
        """Peak amplitude 2 |A(t)| of the fundamental component."""
        amp = self.amplitude_at(t)
        return 2.0 * np.abs(amp)
