"""Trajectory post-processing: error profiles, periods, envelopes.

The measurement layer: pointwise comparison with secular-growth slope fitting,
zero-crossing period estimation, and amplitude-envelope extraction by
parabolic peak refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import Trajectory

__all__ = [
    "ErrorProfile",
    "PeriodEstimate",
    "compare",
    "zero_crossing_period",
    "envelope",
]

_MIN_CROSSINGS = 4
_MIN_PEAKS = 2


@dataclass(frozen=True)
class ErrorProfile:
    """Pointwise gap between two trajectories plus growth summary.

    `slope` is the least-squares slope (per time unit) of the running maximum
    of the gap: flat for a bounded mismatch, positive under secular growth.
    """

    diffs: np.ndarray
    max_abs: float
    slope: float


def compare(a: Trajectory, b: Trajectory) -> ErrorProfile:
    """Absolute pointwise differences |a - b| with a secular-growth fit."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if a.dt != b.dt:
        raise ValueError(f"time-step mismatch: {a.dt} vs {b.dt}")
    diffs = np.abs(a.values - b.values)
    running_max = np.maximum.accumulate(diffs)
    slope = float(np.polyfit(a.times, running_max, 1)[0]) if len(a) > 1 else 0.0
    return ErrorProfile(diffs=diffs, max_abs=float(diffs.max()), slope=slope)


@dataclass(frozen=True)
class PeriodEstimate:
    """Mean period (time units) from upward zero crossings."""

    mean_period: float
    std_period: float
    crossings: int


def zero_crossing_period(traj: Trajectory) -> PeriodEstimate:
    """Estimate the oscillation period from upward zero crossings.

    Crossing times are located by linear interpolation between the bracketing
    samples; the period is the mean gap between consecutive upward crossings,
    with the first and last gap discarded (when enough remain) to avoid
    boundary bias.  Linear interpolation leaves an O(dt^2) bias per crossing,
    far below the tolerances used here.
    """
    z = traj.values
    below = z[:-1] < 0.0
    above = z[1:] >= 0.0
    idx = np.nonzero(below & above)[0]
    if idx.size < _MIN_CROSSINGS:
        raise ValueError(
            f"too few upward zero crossings ({idx.size}) for a period estimate"
        )
    frac = z[idx] / (z[idx] - z[idx + 1])
    crossing_times = (idx + frac) * traj.dt
    gaps = np.diff(crossing_times)
    if gaps.size >= 3:
        gaps = gaps[1:-1]
    return PeriodEstimate(
        mean_period=float(gaps.mean()),
        std_period=float(gaps.std()),
        crossings=int(idx.size),
    )


def envelope(traj: Trajectory) -> np.ndarray:
    """Amplitude envelope: refined local maxima of |z| in time order.

    Each interior sample that dominates its neighbors is refined with a
    three-point parabola; returns an array of (time, peak amplitude) rows.
    """
    mag = np.abs(traj.values)
    interior = np.arange(1, mag.size - 1)
    is_peak = (mag[interior] > mag[interior - 1]) & (mag[interior] >= mag[interior + 1])
    peaks = interior[is_peak]
    if peaks.size < _MIN_PEAKS:
        raise ValueError(f"too few peaks ({peaks.size}) for an envelope")
    y_minus = mag[peaks - 1]
    y_center = mag[peaks]
    y_plus = mag[peaks + 1]
    curvature = y_minus - 2.0 * y_center + y_plus
    safe = np.where(curvature != 0.0, curvature, 1.0)
    offset = np.where(curvature != 0.0, 0.5 * (y_minus - y_plus) / safe, 0.0)
    refined = y_center - 0.25 * (y_minus - y_plus) * offset
    times = (peaks + offset) * traj.dt
    return np.column_stack([times, refined])
