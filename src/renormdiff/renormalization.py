"""Amplitude flows that absorb the secular growth of the first-order expansion.

The integration constants of the zeroth-order solution are promoted to slowly
varying amplitudes A(m), B(m) driven per step by eps times the secular
coefficients.  For the real solutions studied here B = conj(A), and the B
equation is the conjugate of the A equation, so this module carries A alone
and reads B as conj(A) where a formula needs it.  The discrete flow steps the
renormalization equation A(m+1) - A(m) = eps sigma(A(m)) = r mono(A(m)),
with mono(A) = A^2 conj(A) (cubic) or A - A^2 conj(A) (Van der Pol) and the
per-step rate r at the scheme's own dt, both read from its first-order record
(perturbation.first_order), which build_flow takes alone.  The continuum
amplitude equation is A' = (r/dt) mono(A).
Both rates make the step one real recurrence: the cubic rate is imaginary,
so the flow turns A by the factors 1 + i x with the real x = Im(r) |A|^2, and
the Van der Pol rate is real, so the flow is one real scale of A, which keeps
Im(A)/Re(A) to rounding.
Both the iterated map and the dt -> 0 closed forms (a rotation for the
cubic flow, a logistic-type envelope for the Van der Pol flow) are provided,
so their gaps can be measured instead of assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import first_failure, guard_blocks
from .perturbation import FirstOrder, Variant, monomial

__all__ = [
    "AmplitudeFlow",
    "build_flow",
    "FlowState",
    "flow_path",
    "flow_state",
    "solve_cubic_continuum",
    "solve_vdp_continuum",
    "EnvelopeDomainError",
    "conserved_constant",
    "continuum_amplitude",
    "continuum_limit_check",
]

_FLOW_OVERFLOW_LIMIT = 1e12


class EnvelopeDomainError(ValueError):
    """The Van der Pol envelope's denominator is <= 0 (A1 leaves its domain),
    first at position `index` of the flattened times."""

    def __init__(self, index: int, t: float):
        super().__init__(f"envelope denominator vanishes at t={t:g}; solution leaves its domain")
        self.index = index


@dataclass(frozen=True)
class AmplitudeFlow:
    """Discrete amplitude flow of one variant; calling it returns delta A.

    delta A = rate mono(A): rate A^2 B (cubic) or rate (A - A^2 B) (Van der
    Pol), B = conj(A).
    """

    variant: Variant
    rate: complex

    def __call__(self, a: complex) -> complex:
        return self.rate * monomial(self.variant, a)


def build_flow(first: FirstOrder) -> AmplitudeFlow:
    """Discrete amplitude flow of the scheme of the first-order record
    `first`: the step map A -> delta A.

    The discrete renormalization equation at the record's per-step rate r:
    the forward Euler step of A' = (r/dt) mono(A).  The B equation is the A
    equation's conjugate.
    """
    return AmplitudeFlow(first.kind, first.rate)


@dataclass
class FlowState:
    """A flow after `step` steps: what its fold carries, from which flow_path
    resumes with the bits of one uninterrupted run, and which it advances.

    The cubic flow carries `a` = A(step) and `x`, the turn it applies next;
    the Van der Pol flow carries its direction `a` = u and the scale `x` =
    s(step), A = s u (k = |u|^2 and the guard's bound follow from u).
    """

    step: int
    a: complex
    x: float


def flow_state(flow: AmplitudeFlow, a0: complex) -> FlowState:
    """The state of `flow` at step 0, from the amplitude a0.

    Cubic: an imaginary rate r = i w makes the step A <- A + r A^2 conj(A)
    the turn A <- A (1 + i x) with the real x = w |A|^2, from x_0 = w |a0|^2.
    Van der Pol: a real rate keeps A on the ray of u, and a0 is split
    exactly, s(0) = 2^e and u = a0 / 2^e with 1/2 <= max(|Re u|, |Im u|) < 1,
    so s follows |A|: k cannot underflow for a tiny a0, nor s overflow on its
    way to the limit cycle.  Powers of two commute with rounding, so the path
    has the bits of s(0) = 1, u = a0 wherever that split stays in range.
    """
    a0, rate = complex(a0), complex(flow.rate)
    if flow.variant is Variant.CUBIC:
        if rate.real:
            raise ValueError(f"cubic flow needs an imaginary rate, got {rate!r}")
        return FlowState(0, a0, rate.imag * (a0 * a0.conjugate()).real)
    if rate.imag:
        raise ValueError(f"Van der Pol flow needs a real rate, got {rate!r}")
    e = math.frexp(max(abs(a0.real), abs(a0.imag)))[1]
    u = complex(math.ldexp(a0.real, -e), math.ldexp(a0.imag, -e))
    return FlowState(0, u, math.ldexp(1.0, e) if u else 0.0)  # from A = 0 the flow stays at 0


def _cubic_path(state: FlowState, rate: complex, steps: int) -> np.ndarray:
    """The cubic flow as A(m) = A(start) prod_j (1 + i x_j).

    |A|^2 gains the factor 1 + x^2 per turn, so x follows one real
    recurrence, x <- x + x^3.  The loop folds x alone, two steps per
    iteration, storing x_j as the imaginary part of entry j + 1 through two
    strided memoryviews of the block (its even and its odd offsets; a block
    of odd length ends with one single step), and a cumulative product of
    [A(start), 1 + i x_0, ...], in place, forms the path: no exp,
    atan or phase table, and no array beside the path.  Both run one guard
    block at a time, the product from the block's last entry before it, so
    the guard stops a diverging flow at the end of its block.
    """
    x = state.x
    out = np.empty(steps + 1, complex)
    out[0] = state.a
    turns = memoryview(out.imag)
    for lo, hi in guard_blocks(1, steps + 1):
        out.real[lo:hi] = 1.0
        even, odd = turns[lo:hi:2], turns[lo + 1 : hi : 2]
        for m in range(len(odd)):
            even[m] = x
            x = x + x * x * x
            odd[m] = x
            x = x + x * x * x
        if len(even) > len(odd):
            turns[hi - 1] = x
            x = x + x * x * x
        # An overflow runs on as inf or nan to the guard, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumprod(out[lo - 1 : hi], out=out[lo - 1 : hi])
        _check_guard(np.abs(out[lo:hi]) <= _FLOW_OVERFLOW_LIMIT, state.step + lo)
    state.step, state.a, state.x = state.step + steps, complex(out[-1]), x
    return out


def _vdp_path(state: FlowState, rate: complex, steps: int) -> np.ndarray:
    """The Van der Pol flow as A(m) = s(m) u.

    A real rate multiplies A by the real factor 1 + r (1 - |A|^2) each step,
    so A keeps the direction of u and the complex step is one real
    recurrence, s <- s + r (s - k s^3) with k = |u|^2, in the order of
    AmplitudeFlow.__call__ (folding 1 + r would round r).  The loop takes
    two steps per iteration and writes the scales through two strided
    memoryviews (a block's even and odd offsets; a block of odd length ends
    with one single step) into the array the guard reads, one guard block at
    a time, and the path is formed from it.
    """
    rate, u, s = complex(rate).real, state.a, state.x
    k = (u * u.conjugate()).real
    # |A| = |s| |u| <= 1e12 as a bound on |s|, whose product with |u| could
    # overflow; |u| >= 1/2 unless a0 = 0, where s stays 0.
    bound = _FLOW_OVERFLOW_LIMIT / abs(u) if u else math.inf
    scales = np.empty(steps + 1)
    store = memoryview(scales)
    store[0] = s
    for lo, hi in guard_blocks(1, steps + 1):
        even, odd = store[lo:hi:2], store[lo + 1 : hi : 2]
        for m in range(len(odd)):
            s = s + rate * (s - k * s * s * s)
            even[m] = s
            s = s + rate * (s - k * s * s * s)
            odd[m] = s
        if len(even) > len(odd):
            s = s + rate * (s - k * s * s * s)
            store[hi - 1] = s
        _check_guard(np.abs(scales[lo:hi]) <= bound, state.step + lo)
    state.step, state.x = state.step + steps, s
    out = np.empty(steps + 1, complex)
    np.multiply(scales, u.real, out=out.real)
    np.multiply(scales, u.imag, out=out.imag)
    return out


def _check_guard(ok: np.ndarray, lo: int) -> None:
    """Raise OverflowError at the first step whose `ok` entry, |A(m)| <= 1e12,
    is false; ok[0] is step lo."""
    step = first_failure(ok, lo)
    if step is not None:
        raise OverflowError(f"amplitude flow exceeded {_FLOW_OVERFLOW_LIMIT} at step {step}")


def flow_path(flow: AmplitudeFlow, a0: complex | FlowState, steps: int) -> np.ndarray:
    """Amplitudes A(m) along the flow for m = 0..steps from the amplitude
    a0, or for m = start..start + steps from a FlowState at step start,
    which is then advanced to the path's last step.

    A strict left fold in a fixed order, so results are bit-reproducible,
    and a run resumed from its state has the bits of one run (flow_state)
    wherever each piece takes two steps or more: numpy's complex multiply of
    a single pair, the cubic product of a one-step piece, may fuse its
    rounding, as it does in a one-step guard block of a whole run.
    Each variant folds one real recurrence per step, within rounding of the
    complex fold a = a + flow(a) through AmplitudeFlow.__call__, two steps
    per loop iteration, and writes each step's real value through two
    strided memoryviews of a block, its even and its odd offsets, into a
    numpy array, with no list of boxed values (a block of odd length ends
    with one single step): the cubic flow, whose rate must be imaginary, folds
    the turn x = Im(rate) |A|^2 and forms the path as one cumulative product
    (_cubic_path); the Van der Pol flow, whose rate must be real, folds one
    real scale (_vdp_path).  Neither loop tests per step: an overflow runs on
    as inf or nan, and one vectorized test of |A(m)| <= 1e12 follows each
    block of steps (oracle._GUARD_BLOCK), for Van der Pol on the scales
    before the complex path is formed.  The OverflowError names the first
    step that fails, as a test per step would (a nan a0 fails at step 1).
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    state = a0 if isinstance(a0, FlowState) else flow_state(flow, a0)
    path = _cubic_path if flow.variant is Variant.CUBIC else _vdp_path
    return path(state, flow.rate, steps)


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
    cubic record's) the modulus is conserved identically.  Accepts scalar
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


def solve_vdp_continuum(a0: complex, rate: float, t):
    """Continuum Van der Pol amplitude A(t) with A(0) = a0.

    A real rate keeps A on the ray of a0, A = s(t) a0 with s real, and
    A' = rate (A - A^2 conj(A)) reduces to s' = rate s (1 - |a0|^2 s^2), so
    A(t) = a0 / sqrt(|a0|^2 + (1 - |a0|^2) e^{-2 rate t}): one real scale of
    a0, tending to the limit cycle |A| = 1 from below or above.  (The split
    A = A1 (1 + i c) with kappa = 1 + c^2 is the same function, since
    kappa A1^2 = |A|^2.)  Accepts scalar or array t.  |a0|^2 must be normal
    and below 2^53, or ValueError: below, the limit is lost to rounding (at 0
    the denominator underflows to 0 with time); from 2^53 on, 1 - |a0|^2 is
    no longer exact, so A(0) != a0.  In between, at rate >= 0 and t >= 0, the
    denominator is at least min(|a0|^2, 1); a denominator <= 0 (a negative
    rate or t from above the limit) raises EnvelopeDomainError, a ValueError
    naming the first such t.
    """
    a0 = complex(a0)
    settled = (a0 * a0.conjugate()).real
    if settled < np.finfo(float).tiny:
        raise ValueError(f"|a0|^2 underflows at a0 = {a0}; the Van der Pol envelope "
                         "cannot be evaluated")
    if settled >= 2.0**53:
        raise ValueError(f"|a0|^2 reaches 2^53 at a0 = {a0}; the Van der Pol envelope "
                         "cannot start from it exactly")
    t_arr = np.asarray(t, dtype=float)
    denom = settled + (1.0 - settled) * np.exp(-2.0 * rate * t_arr)
    vanishes = np.flatnonzero(denom <= 0.0)
    if vanishes.size:
        first = int(vanishes[0])
        raise EnvelopeDomainError(first, float(np.ravel(t_arr)[first]))
    root = np.sqrt(denom)
    # Each component divided by the real root: a complex a0 / root would
    # multiply by a reciprocal and round differently.
    a = np.empty(root.shape, complex)
    np.divide(a0.real, root, out=a.real)
    np.divide(a0.imag, root, out=a.imag)
    if t_arr.ndim == 0:
        return complex(a)
    return a


def continuum_amplitude(kind: Variant, a0: complex, rate: complex, t):
    """Continuum amplitude A(t) of A' = rate mono(A) with A(0) = a0 and
    B = conj(A), scalar or array t; `rate` is the record's per-step rate r over dt.

    Cubic: a0 rotating at rate Im(rate) |a0|^2.  Van der Pol: a0 scaled by
    the real envelope at the real part of the rate.
    """
    if kind is Variant.CUBIC:
        return solve_cubic_continuum(a0, rate, t)
    return solve_vdp_continuum(a0, complex(rate).real, t)


def continuum_limit_check(first: FirstOrder, a0: complex, t_max: float) -> float:
    """Max gap between the iterated flow and its continuum closed form.

    Runs the discrete flow of the first-order record `first` from a0 for
    t_max / dt steps and reports max_m |A_discrete(m) - A_ode(m dt)|.  The
    map is the forward Euler step of the continuum equation at the same rate,
    so the gap shrinks linearly as dt is halved; callers assert that ratio.
    """
    dt = first.params.dt
    steps = int(round(t_max / dt))
    a_path = flow_path(build_flow(first), a0, steps)
    t = np.arange(steps + 1) * dt
    a_ode = continuum_amplitude(first.kind, a0, first.rate / dt, t)
    return float(np.max(np.abs(a_path - a_ode)))
