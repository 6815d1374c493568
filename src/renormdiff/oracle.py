"""Exact brute-force iteration of the nonlinear schemes: the ground truth.

Every acceptance-style comparison in this package is measured against these
trajectories.  Recurrences are run sequentially in plain double precision with
a fixed evaluation order, so identical inputs give bit-identical output.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .lineardiff import SchemeParams, characteristic_roots
from .perturbation import Variant, vdp_scale

__all__ = [
    "Trajectory",
    "DivergenceError",
    "SingularStepError",
    "iterate",
    "init_from_amplitude",
]

_DIVERGENCE_LIMIT = 1e8
_SINGULAR_STEP_TOL = 1e-12


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

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt


def init_from_amplitude(a0: complex, params: SchemeParams) -> tuple[float, float]:
    """Zeroth-order bridge from amplitude space to initial data.

    z(0) = 2 Re(a0) and z(1) = 2 Re(a0 * lam_p) under the active root
    convention.  The bridge ignores the first-order correction, which costs an
    O(eps) offset against the asymptotic solution; comparisons absorb it in
    their tolerances.
    """
    a0 = complex(a0)
    lam_p, _ = characteristic_roots(params)
    return 2.0 * a0.real, 2.0 * (a0 * lam_p).real


def iterate(
    kind: Variant, params: SchemeParams, z0: float, z1: float, n_steps: int
) -> Trajectory:
    """Iterate the scheme exactly from (z0, z1), returning z(0..n_steps).

    Cubic: explicit update z(n+1) = (2 - mu) z(n) - z(n-1) - eps mu z(n)^3,
    with the weight mu of `params.scheme`.  Van der Pol: the right-hand side
    is linear in z(n+1), so the step is solved in closed form; a vanishing
    leading coefficient raises SingularStepError.  Magnitudes beyond 1e8 and
    non-finite values raise DivergenceError.
    """
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    omega, eps = params.omega, params.eps
    lin = 2.0 - params.mu
    # One inline loop per variant, with its bounds in locals: no call and no
    # negation per step.  The chained guards equal not abs(zp) <= 1e8 and
    # abs(lead) < 1e-12 for every float, NaN and +/-inf included.
    lo, hi = -_DIVERGENCE_LIMIT, _DIVERGENCE_LIMIT
    tol_lo, tol_hi = -_SINGULAR_STEP_TOL, _SINGULAR_STEP_TOL
    zm, z = float(z0), float(z1)
    values = array("d", (zm, z))
    append = values.append
    if kind is Variant.CUBIC:
        gain = eps * omega * omega
        for n in range(1, n_steps):
            zp = lin * z - zm - gain * z * z * z
            if not lo <= zp <= hi:
                break
            append(zp)
            zm, z = z, zp
    else:
        gain = eps * vdp_scale(params)
        for n in range(1, n_steps):
            w = gain * (1.0 - z * z)
            lead = 1.0 - w
            if tol_lo < lead < tol_hi:
                raise SingularStepError(f"implicit coefficient vanished at n={n}")
            zp = (lin * z - zm - w * zm) / lead
            if not lo <= zp <= hi:
                break
            append(zp)
            zm, z = z, zp
    if len(values) <= n_steps:
        raise DivergenceError(f"|z({n + 1})| = {abs(zp)} exceeded {_DIVERGENCE_LIMIT}")
    return Trajectory(dt=params.dt, values=values)
