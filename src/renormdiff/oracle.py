"""Exact brute-force iteration of the nonlinear schemes: the ground truth.

Every acceptance-style comparison in this package is measured against these
trajectories.  Recurrences are run sequentially in plain double precision with
a fixed evaluation order, so identical inputs give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lineardiff import SchemeParams
from .perturbation import Variant, vdp_scale

__all__ = [
    "Trajectory",
    "DivergenceError",
    "SingularStepError",
    "iterate",
]

_DIVERGENCE_LIMIT = 1e8
_SINGULAR_STEP_TOL = 1e-12
# Steps an unchecked loop runs between two tests of its guard: a diverging run
# stops within this many steps of its first failing one.
_GUARD_BLOCK = 4096


class DivergenceError(RuntimeError):
    """Trajectory magnitude exceeded the divergence guard."""


class SingularStepError(RuntimeError):
    """The implicit step's leading coefficient vanished."""


@dataclass(frozen=True)
class Trajectory:
    """Uniformly indexed real sequence z(0..N) with its time step."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.array(self.values, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("trajectory must be a non-empty one-dimensional array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trajectory contains non-finite values")
        arr.setflags(write=False)  # arr is our own copy
        object.__setattr__(self, "values", arr)

    @classmethod
    def _guarded(cls, dt: float, values: np.ndarray) -> Trajectory:
        """The trajectory of an array `iterate` built and guarded, held as it
        is: no copy and no second finiteness test.  The guard passed every
        z(n), n >= 2, and a non-finite z(0) or z(1) makes z(2) fail it."""
        values.setflags(write=False)
        traj = object.__new__(cls)
        object.__setattr__(traj, "dt", dt)
        object.__setattr__(traj, "values", values)
        return traj

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt


def iterate(
    kind: Variant, params: SchemeParams, z0: float, z1: float, n_steps: int
) -> Trajectory:
    """Iterate the scheme exactly from (z0, z1), returning z(0..n_steps).

    Cubic: explicit update z(n+1) = (2 - mu) z(n) - z(n-1) - eps mu z(n)^3,
    with the weight mu of `params.scheme`.  Van der Pol: the right-hand side
    is linear in z(n+1), so the step is solved in closed form; a vanishing
    leading coefficient raises SingularStepError.  It cannot vanish at a
    gain eps mu/dt in [0, 1/2], where the loop runs without that test.
    Magnitudes beyond 1e8 and non-finite values raise DivergenceError,
    naming the first such step.  The cubic loop and the Van der Pol loop at
    gains in [0, 1/2] test no single step: float arithmetic runs on through
    inf and nan without raising, and one vectorized test after each block of
    _GUARD_BLOCK steps finds the first failing step, so a diverging run
    stops at the end of that block.  The checked Van der Pol loop tests
    every step and raises at once.
    """
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    omega, eps = params.omega, params.eps
    lin = 2.0 - params.mu
    zm, z = float(z0), float(z1)
    values = np.empty(n_steps + 1)
    # A store through a memoryview converts the float directly; array('d')'s
    # append parses it as a call argument first.
    store = memoryview(values)
    store[0], store[1] = zm, z
    if kind is Variant.CUBIC:
        gain = eps * omega * omega
        for lo, hi in _guard_blocks(2, n_steps + 1):
            for n in range(lo, hi):
                zp = lin * z - zm - gain * z * z * z
                store[n] = zp
                zm, z = z, zp
            _check_guard(values, lo, hi)
    else:
        gain = eps * vdp_scale(params)
        if 0.0 <= gain <= 0.5:
            # The singular test cannot fire: 1 - z*z <= 1 and rounding is
            # monotone, so w <= gain and lead >= 0.5 (or lead is +inf or NaN,
            # once z*z overflows or z is NaN), and the division never meets 0.
            for lo, hi in _guard_blocks(2, n_steps + 1):
                for n in range(lo, hi):
                    w = gain * (1.0 - z * z)
                    zp = (lin * z - zm - w * zm) / (1.0 - w)
                    store[n] = zp
                    zm, z = z, zp
                _check_guard(values, lo, hi)
        else:
            # Bounds in locals: the chained tests equal not abs(zp) <= 1e8 and
            # abs(lead) < 1e-12 for every float, NaN and +/-inf included.
            lo, hi = -_DIVERGENCE_LIMIT, _DIVERGENCE_LIMIT
            tol_lo, tol_hi = -_SINGULAR_STEP_TOL, _SINGULAR_STEP_TOL
            for n in range(2, n_steps + 1):
                w = gain * (1.0 - z * z)
                lead = 1.0 - w
                if tol_lo < lead < tol_hi:
                    raise SingularStepError(f"implicit coefficient vanished at n={n - 1}")
                zp = (lin * z - zm - w * zm) / lead
                store[n] = zp
                if not lo <= zp <= hi:
                    raise _diverged(n, zp)
                zm, z = z, zp
    return Trajectory._guarded(params.dt, values)


def _guard_blocks(start: int, stop: int):
    """The blocks [lo, hi) of at most _GUARD_BLOCK steps that cover range(start, stop)."""
    for lo in range(start, stop, _GUARD_BLOCK):
        yield lo, min(lo + _GUARD_BLOCK, stop)


def _diverged(n: int, z: float) -> DivergenceError:
    return DivergenceError(f"|z({n})| = {abs(float(z))} exceeded {_DIVERGENCE_LIMIT}")


def _check_guard(values: np.ndarray, lo: int, hi: int) -> None:
    """Raise DivergenceError at the first step n in [lo, hi) where not
    |z(n)| <= 1e8.  Comparisons alone, which a NaN fails, so the test holds
    one block's booleans and no float temporary."""
    block = values[lo:hi]
    ok = block >= -_DIVERGENCE_LIMIT
    ok &= block <= _DIVERGENCE_LIMIT
    if not ok.all():
        n = lo + int(ok.argmin())
        raise _diverged(n, values[n])
