"""Exact brute-force iteration of the nonlinear schemes: the ground truth.

Every acceptance-style comparison in this package is measured against these
trajectories.  Recurrences are run sequentially in plain double precision with
a fixed evaluation order, so identical inputs give bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lineardiff import SchemeParams
from .perturbation import Variant, vdp_scale

__all__ = [
    "Trajectory",
    "OracleState",
    "DivergenceError",
    "SingularStepError",
    "iterate",
]

_DIVERGENCE_LIMIT = 1e8
_SINGULAR_STEP_TOL = 1e-12
# Steps a loop runs unchecked between two tests of its guard, in the oracle,
# both amplitude flows and the compare pass: a failing run stops within this
# many steps of its first failing one.
_GUARD_BLOCK = 4096


class DivergenceError(RuntimeError):
    """Trajectory magnitude exceeded the divergence guard."""


class SingularStepError(RuntimeError):
    """The implicit step's leading coefficient vanished."""


@dataclass(frozen=True)
class Trajectory:
    """Uniformly indexed real sequence z(start..start + N) with its time step."""

    dt: float
    values: np.ndarray
    start: int = 0

    def __post_init__(self):
        arr = np.atleast_1d(np.array(self.values, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("trajectory must be a non-empty one-dimensional array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trajectory contains non-finite values")
        arr.setflags(write=False)  # arr is our own copy
        object.__setattr__(self, "values", arr)

    @classmethod
    def _guarded(cls, dt: float, values: np.ndarray, start: int) -> Trajectory:
        """The trajectory of an array `iterate` built and guarded, held as it
        is: no copy and no second finiteness test.  The guard passed every
        z(n), z(0) and z(1) included."""
        values.setflags(write=False)
        traj = object.__new__(cls)
        object.__setattr__(traj, "dt", dt)
        object.__setattr__(traj, "values", values)
        object.__setattr__(traj, "start", start)
        return traj

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.values.size) * self.dt


@dataclass
class OracleState:
    """A run of the oracle after `step` steps: its last two values, from which
    iterate resumes with the bits of one uninterrupted run, and which it
    advances.  They are z(m - 1) and z(m) at m = max(step, 1): a run starts
    at step 0 from its two given values, z(0) and z(1).
    """

    step: int
    zm: float
    z: float


def iterate(
    kind: Variant, params: SchemeParams, z0: float | OracleState, z1: float | None, n_steps: int
) -> Trajectory:
    """Iterate the scheme exactly from (z0, z1), returning z(0..n_steps); or
    resume the run of an OracleState passed as z0 (z1 None) at its step s,
    returning z(s..s + n_steps), the first from the state, which is then
    advanced to step s + n_steps.  A run resumed in pieces has the bits and
    the failures of one uninterrupted run.

    Cubic: explicit update z(n+1) = (2 - mu) z(n) - z(n-1) - eps mu z(n)^3,
    with the weight mu of `params.scheme`.  Van der Pol: the right-hand side
    is linear in z(n+1), so the step is solved in closed form; a vanishing
    leading coefficient raises SingularStepError.  Magnitudes beyond 1e8 and
    non-finite values raise DivergenceError, naming the first such step,
    z(0) and z(1) included.  Each loop takes two steps per iteration, its
    two values trading the roles of z(n-1) and z(n), and stores them
    through two strided memoryviews of the block, its even and its odd
    offsets; a block of odd length ends with one single step.  Every step
    keeps the operands and order of the one-step recurrence above.  Neither
    loop tests a single step: float arithmetic runs on through inf and nan
    without raising (a leading coefficient of exactly 0 stores nan and ends
    its block), and one vectorized test after each block of _GUARD_BLOCK
    steps names the first failing step, so a failing run stops at the end of
    that block.  At Van der Pol gains eps mu/dt outside [0, 1/2] that test
    also finds the first vanishing coefficient, which wins over a divergence
    at the same or a later step.
    """
    state = z0 if isinstance(z0, OracleState) else OracleState(0, float(z0), float(z1))
    start = state.step
    if not start and n_steps < 2:
        raise ValueError("need at least 2 steps")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    omega, eps = params.omega, params.eps
    lin = 2.0 - params.mu
    zm, z = state.zm, state.z
    values = np.empty(n_steps + 1)
    # A store through a memoryview converts the float directly; array('d')'s
    # append parses it as a call argument first.
    store = memoryview(values)
    if start:  # z(start), guarded by the piece before
        store[0] = z
        computed = 1
    else:
        store[0], store[1] = zm, z
        _check_guard(values, 0, 2, 0)
        computed = 2
    if kind is Variant.CUBIC:
        gain = eps * omega * omega
        for lo, hi in guard_blocks(computed, n_steps + 1):
            even, odd = store[lo:hi:2], store[lo + 1 : hi : 2]
            for i in range(len(odd)):
                zm = lin * z - zm - gain * z * z * z
                even[i] = zm
                z = lin * zm - z - gain * zm * zm * zm
                odd[i] = z
            if len(even) > len(odd):
                zm, z = z, lin * z - zm - gain * z * z * z
                store[hi - 1] = z
            _check_guard(values, lo, hi, start)
    else:
        gain = eps * vdp_scale(params)
        # 1 - z*z <= 1 and rounding is monotone, so at a gain in [0, 1/2]
        # w <= gain and the leading coefficient is at least 0.5 (or +inf or
        # NaN, once z*z overflows or z is NaN): the guard need not test it.
        singular_gain = None if 0.0 <= gain <= 0.5 else gain
        for lo, hi in guard_blocks(computed, n_steps + 1):
            even, odd = store[lo:hi:2], store[lo + 1 : hi : 2]
            try:
                for i in range(len(odd)):
                    w = gain * (1.0 - z * z)
                    zm = (lin * z - zm - w * zm) / (1.0 - w)
                    even[i] = zm
                    w = gain * (1.0 - zm * zm)
                    z = (lin * zm - z - w * z) / (1.0 - w)
                    odd[i] = z
                i = len(odd)
                if len(even) > i:
                    w = gain * (1.0 - z * z)
                    zm, z = z, (lin * z - zm - w * zm) / (1.0 - w)
                    store[hi - 1] = z
            except ZeroDivisionError:  # the guard names this step singular
                # Step lo + 2i (the trailing one at i = len(odd)) failed if
                # z's lead is the zero; else step lo + 2i + 1, from zm's, did.
                n = lo + 2 * i + (gain * (1.0 - z * z) != 1.0)
                store[n] = math.nan
                hi = n + 1
            _check_guard(values, lo, hi, start, singular_gain)
    state.step, state.zm, state.z = start + n_steps, zm, z
    return Trajectory._guarded(params.dt, values, start)


def guard_blocks(start: int, stop: int):
    """The blocks [lo, hi) of at most _GUARD_BLOCK steps that cover range(start, stop)."""
    for lo in range(start, stop, _GUARD_BLOCK):
        yield lo, min(lo + _GUARD_BLOCK, stop)


def first_failure(ok: np.ndarray, lo: int) -> int | None:
    """The step of the first false entry of `ok`, whose entry 0 is step lo, or None."""
    return None if ok.all() else lo + int(ok.argmin())


def _check_guard(values: np.ndarray, lo: int, hi: int, start: int,
                 gain: float | None = None) -> None:
    """Raise DivergenceError at the first step n of values[lo:hi], whose
    entry 0 is step `start`, where not |z(n)| <= 1e8, by comparisons alone,
    which a NaN fails.  Given a Van der Pol gain, raise SingularStepError
    instead at the first step whose leading coefficient 1 - gain (1 - z(n-1)^2)
    is within 1e-12 of 0, if it comes no later."""
    block = values[lo:hi]
    ok = block >= -_DIVERGENCE_LIMIT
    ok &= block <= _DIVERGENCE_LIMIT
    diverged = first_failure(ok, lo)
    if gain is not None:
        z = values[lo - 1 : hi - 1]
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass, as in the loop
            lead = 1.0 - gain * (1.0 - z * z)  # the loop's arithmetic, in its order
        vanished = lead > -_SINGULAR_STEP_TOL
        vanished &= lead < _SINGULAR_STEP_TOL
        singular = first_failure(~vanished, lo)
        if singular is not None and (diverged is None or singular <= diverged):
            raise SingularStepError(f"implicit coefficient vanished at n={start + singular - 1}")
    if diverged is not None:
        z = abs(float(values[diverged]))
        raise DivergenceError(f"|z({start + diverged})| = {z} exceeded {_DIVERGENCE_LIMIT}")
