"""Globally valid (secular-free) asymptotic solutions.

Substitutes the renormalized amplitudes into the oscillatory expansion, in
discrete form (amplitudes evaluated at t = n dt multiplying lam_p^n) and as a
continuum waveform (fundamental e^{i t}).  The third-harmonic correction uses
the exact dt-dependent response coefficient from the linear machinery; its
dt -> 0 limits are 1/8 (cubic) and i/4 (Van der Pol).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .lineardiff import HarmonicSum, SchemeParams, characteristic_roots, particular_solution
from .perturbation import Nonlinearity, Variant, _forcing_terms
from .renormalization import (
    KappaConvention,
    conserved_constant,
    continuum_amplitude,
    kappa_value,
    secular_rate,
)

__all__ = [
    "GlobalSolution",
    "third_harmonic_coefficient",
    "assemble_modes",
]


def third_harmonic_coefficient(kind: Nonlinearity, params: SchemeParams) -> complex:
    """Coefficient kappa3 such that z1 contains kappa3 * A^3 * lam_p^{3n}.

    The particular response to the unit-amplitude lam_p^3 forcing term alone,
    so it tracks the forcing and particular-solution machinery (including the
    halving convention) and no lam_m^3 term merged onto the same base.
    """
    lam_p, _ = characteristic_roots(params)
    forcing = HarmonicSum(_forcing_terms(kind, 1.0, params)[:1])
    return particular_solution(forcing, params).coefficient(lam_p**3, n_power=0)


def assemble_modes(
    kind: Nonlinearity,
    params: SchemeParams,
    amplitudes,
    n,
    log_base: complex | None = None,
) -> np.ndarray:
    """Real expansion 2 Re[A lam_p^n + eps kappa3 A^3 lam_p^{3n}] at indices n.

    `amplitudes` is A evaluated per index (scalar or array broadcastable
    against n); the conjugate half of the expansion is implicit in taking
    twice the real part.  The fundamental is exp(n * log_base), with
    log_base = log(lam_p) by default; log_base = 1j with n read as time t
    gives the continuum fundamental e^{i t}.
    """
    n_arr = np.asarray(n, dtype=float)
    amp = np.asarray(amplitudes, dtype=complex)
    k3 = third_harmonic_coefficient(kind, params)
    if log_base is None:
        log_base = cmath.log(characteristic_roots(params)[0])
    fundamental = np.exp(n_arr * log_base)
    value = amp * fundamental + params.eps * k3 * amp**3 * fundamental**3
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
    Pol kind c = Im(a0)/Re(a0) is the invariant component ratio and the
    envelope follows the logistic-type closed form from Re(a0) under the
    chosen kappa convention.
    """

    kind: Nonlinearity
    params: SchemeParams
    a0: complex
    kappa_convention: KappaConvention = KappaConvention.ONE_PLUS_C_SQUARED

    def __post_init__(self):
        object.__setattr__(self, "a0", complex(self.a0))
        if self.kind.variant is Variant.VAN_DER_POL:
            # Fail at construction, not first evaluation: Re(a0) = 0 leaves
            # the component ratio undefined, and a settled value kappa Re(a0)^2
            # below the normal range loses the envelope's limit to rounding
            # (at 0, the envelope's denominator underflows to 0 with time).
            a1 = self.a0.real
            kappa = kappa_value(self.conserved, self.kappa_convention)
            if kappa > 0.0 and kappa * a1 * a1 < np.finfo(float).tiny:
                raise ValueError(
                    f"kappa * Re(a0)^2 underflows at Re(a0) = {a1}; the "
                    "Van der Pol envelope cannot be evaluated"
                )

    @property
    def conserved(self) -> float:
        return conserved_constant(self.kind, self.a0)

    def amplitude_at(self, t):
        """Renormalized amplitude A(t) from the continuum flow (scalar/array)."""
        return continuum_amplitude(
            self.kind, self.a0, self.params.eps, t, self.kappa_convention
        )

    def eval_discrete(self, n):
        """Real solution at integer indices n (scalar or array)."""
        n_arr = np.asarray(n, dtype=float)
        amp = self.amplitude_at(n_arr * self.params.dt)
        return assemble_modes(self.kind, self.params, amp, n_arr)

    def eval_continuum_waveform(self, t):
        """Real waveform at continuous time t, fundamental e^{i t}.

        Same amplitude and third-harmonic structure as the discrete form with
        lam_p^n replaced by its limit; for the cubic kind this is exactly
        periodic with angular frequency 1 + (3/2) eps |a0|^2.
        """
        t_arr = np.asarray(t, dtype=float)
        amp = self.amplitude_at(t_arr)
        return assemble_modes(self.kind, self.params, amp, t_arr, log_base=1j)

    def frequency_shift(self) -> float:
        """Angular frequency 1 + Im(r) |a0|^2 of the cubic waveform, r = (3/2) i eps."""
        if self.kind.variant is not Variant.CUBIC:
            raise ValueError(
                "frequency shift is defined for the cubic kind only; the Van "
                "der Pol fundamental stays at frequency 1 at this order"
            )
        return 1.0 + secular_rate(self.kind, self.params.eps).imag * self.conserved

    def fundamental_amplitude(self, t):
        """Peak amplitude 2 |A(t)| of the fundamental component."""
        amp = self.amplitude_at(t)
        return 2.0 * np.abs(amp)
