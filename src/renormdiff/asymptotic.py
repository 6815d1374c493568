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

from .lineardiff import SchemeParams, characteristic_roots, power_table
from .perturbation import FirstOrder, Variant, _unit_response
from .renormalization import build_flow, conserved_constant, continuum_amplitude

__all__ = [
    "GlobalSolution",
    "third_harmonic_coefficient",
    "discrete_fundamental",
    "assemble_modes",
    "init_from_amplitude",
]


def third_harmonic_coefficient(kind: Variant, params: SchemeParams) -> complex:
    """Coefficient kappa3 such that z1 contains kappa3 * A^3 * lam_p^{3n}:
    the first-order record's k3, under either root convention.

    Raises ValueError where dt is too small for the response to be resolved.
    """
    z1, base3 = _unit_response(kind, params)
    return z1.coefficient(base3)


def discrete_fundamental(params: SchemeParams, n):
    """The fundamental lam_p^n of the discrete form, as exp(n log lam_p) at indices n."""
    return power_table(characteristic_roots(params)[0], n)


def assemble_modes(first: FirstOrder, amplitudes, fundamental) -> np.ndarray:
    """Real expansion 2 Re[A F + eps kappa3 A^3 F^3] per index.

    `amplitudes` is A and `fundamental` is F, each per index (scalars or
    arrays that broadcast together); the conjugate half of the expansion is
    implicit in taking twice the real part.  F = lam_p^n = exp(n log lam_p)
    gives the discrete form and F = e^{i t} the continuum waveform; callers
    that evaluate several forms at the same indices compute F once.  kappa3
    is the k3 of the scheme's first-order record `first`.
    The third harmonic is the cube u*u*u of the fundamental mode u = A F,
    not numpy's general complex pow.  Scalars stay scalars, whose complex
    multiply rounds each product; numpy's array loop fuses them.
    """
    u = amplitudes * fundamental
    value = u + first.params.eps * first.k3 * (u * u * u)
    out = 2.0 * value.real
    if np.ndim(out) == 0:
        return float(out)
    return out


def init_from_amplitude(first: FirstOrder, a0: complex) -> tuple[float, float]:
    """First-order bridge from amplitude space to initial data.

    z(0) and z(1) of the discrete renormalized form of the scheme of the
    first-order record `first`, assemble_modes at A(0) = a0 and
    A(1) = a0 + flow(a0) on F = 1 and lam_p, so the oracle starts on the
    first-order solution and not O(eps) off it.  At eps = 0 this is the
    zeroth-order data 2 Re(a0), 2 Re(a0 lam_p), to the bit.
    """
    a0 = complex(a0)
    a1 = a0 + build_flow(first)(a0)
    return (assemble_modes(first, a0, 1.0),
            assemble_modes(first, a1, characteristic_roots(first.params)[0]))


@dataclass(frozen=True)
class GlobalSolution:
    """Secular-free solution determined by an initial complex amplitude.

    `first` is the scheme's first-order record, without which none is built
    (first_order refuses a dt too small to resolve the third harmonic), and
    `a0` the amplitude A at t = 0 (the conjugate mode carries conj(a0), so
    evaluations are real); the amplitude follows the continuum equation at
    r/dt, r the record's per-step rate.  A cubic amplitude rotates at rate
    Im(r/dt) |a0|^2, which tends to (3/2) eps |a0|^2 as dt -> 0; a Van der
    Pol one is a0 times one real envelope, which tends to the limit cycle
    |A| = 1 (solve_vdp_continuum, whose domain of a0 the construction checks).
    """

    first: FirstOrder
    a0: complex

    def __post_init__(self):
        object.__setattr__(self, "a0", complex(self.a0))
        # Fail at construction, not first evaluation: a Van der Pol |a0|^2
        # outside [smallest normal, 2^53) has no envelope.
        if self.first.kind is Variant.VAN_DER_POL:
            self.amplitude_at(0.0)

    def amplitude_at(self, t):
        """Renormalized amplitude A(t) from the continuum flow (scalar/array)."""
        return continuum_amplitude(self.first.kind, self.a0, self.first.rate / self.first.params.dt, t)

    def eval_discrete(self, n, fundamental=None):
        """Real solution at integer indices n (scalar or array).

        `fundamental` is lam_p^n at these indices, from a caller that also
        assembles other forms with it (discrete_fundamental when omitted).
        """
        n_arr = np.asarray(n, dtype=float)
        amp = self.amplitude_at(n_arr * self.first.params.dt)
        if fundamental is None:
            fundamental = discrete_fundamental(self.first.params, n_arr)
        return assemble_modes(self.first, amp, fundamental)

    def eval_continuum_waveform(self, t):
        """Real waveform at continuous time t, fundamental e^{i t}.

        Same amplitude and third-harmonic structure as the discrete form with
        lam_p^n replaced by its limit; for the cubic kind this is exactly
        periodic with angular frequency frequency_shift().
        """
        t_arr = np.asarray(t, dtype=float)
        amp = self.amplitude_at(t_arr)
        return assemble_modes(self.first, amp, np.exp(t_arr * 1j))

    def frequency_shift(self) -> float:
        """Angular frequency 1 + Im(r/dt) |a0|^2 of the cubic waveform, with r
        the record's per-step rate (r/dt tends to (3/2) i eps as dt -> 0)."""
        if self.first.kind is not Variant.CUBIC:
            raise ValueError(
                "frequency shift is defined for the cubic kind only; the Van "
                "der Pol fundamental stays at frequency 1 at this order"
            )
        c = conserved_constant(Variant.CUBIC, self.a0)
        return 1.0 + (self.first.rate / self.first.params.dt).imag * c

    def fundamental_amplitude(self, t):
        """Peak amplitude 2 |A(t)| of the fundamental component."""
        amp = self.amplitude_at(t)
        return 2.0 * np.abs(amp)
