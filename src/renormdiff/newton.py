"""Forward-difference calculus and truncated envelope expansions.

Tools for sequences sampled on n = 0, 1, ..., N: k-fold forward differences,
binomial weights with an arbitrary integer upper argument, partial sums of the
Newton forward-difference series, and a residual probe for the base-point
independence of truncated two-scale (envelope) expansions.

Differences are computed by direct repeated subtraction so that cancellation
error stays visible; for k beyond ~20 on noisy data the result is numerically
meaningless, and nothing here tries to hide that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SampledSequence",
    "TwoScaleExpansion",
    "binomial_coefficient",
    "forward_difference",
    "newton_partial_sum",
    "expansion_from_orders",
    "expansion_from_sequence",
    "envelope_partial_sum",
    "check_envelope_constancy",
]


@dataclass(frozen=True)
class SampledSequence:
    """Finite sequence y(0), y(1), ..., y(N), stored as complex values.

    Complex is the working default: the fundamental oscillation modes are
    complex, and real inputs embed losslessly.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.array(self.values, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sequence must be a non-empty one-dimensional array")
        arr.setflags(write=False)  # arr is our own copy
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_function(cls, f: Callable[[int], complex], n_max: int) -> "SampledSequence":
        """Sample f on n = 0..n_max inclusive."""
        return cls(np.array([f(n) for n in range(n_max + 1)], dtype=complex))

    def __len__(self) -> int:
        return self.values.size

    @property
    def last_index(self) -> int:
        return self.values.size - 1


def binomial_coefficient(x: int, k: int) -> int:
    """Binomial coefficient x over k in the falling-factorial convention.

    Exact integer arithmetic for any integer x, including negative values:
    x(x-1)...(x-k+1)/k!.
    """
    if k < 0:
        raise ValueError("order k must be nonnegative")
    x = int(x)
    if x >= 0:
        return math.comb(x, k)
    return (-1) ** k * math.comb(k - x - 1, k)


def forward_difference(seq: SampledSequence, k: int, n: int) -> complex:
    """k-fold forward difference of seq at index n, by repeated subtraction.

    The zeroth difference is the identity.
    """
    if k < 0:
        raise ValueError("order k must be nonnegative")
    if n < 0 or n + k > seq.last_index:
        raise IndexError(
            f"difference of order {k} at n={n} needs samples up to "
            f"{n + k}, sequence ends at {seq.last_index}"
        )
    window = seq.values[n : n + k + 1]
    for _ in range(k):
        window = window[1:] - window[:-1]
    return complex(window[0])


def newton_partial_sum(seq: SampledSequence, m: int, n: int, order: int) -> complex:
    """Partial sum sum_{k<=order} binom(n-m, k) * delta^k y(m).

    Reproduces polynomial sequences exactly once order reaches the degree;
    for other sequences it is the truncation of the forward-difference series
    based at m.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if m < 0 or m + order > seq.last_index:
        raise IndexError(
            f"partial sum of order {order} at base m={m} needs samples up to "
            f"{m + order}, sequence ends at {seq.last_index}"
        )
    window = seq.values[m : m + order + 1].copy()
    total = 0j
    for k in range(order + 1):
        total += binomial_coefficient(n - m, k) * window[0]
        window = window[1:] - window[:-1]
    return complex(total)


@dataclass(frozen=True)
class TwoScaleExpansion:
    """Truncated two-scale expansion y(n, m) = sum_k Y_k(m) binom(n-m, k).

    `coeff(k, m)` evaluates the envelope coefficient Y_k at base index m for
    k = 0..order.  `base_range` is the inclusive interval of valid base indices.
    """

    order: int
    coeff: Callable[[int, int], complex]
    base_range: tuple[int, int]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("expansion order must be nonnegative")
        lo, hi = self.base_range
        if lo > hi:
            raise ValueError("empty base-index range")


def expansion_from_orders(
    order_seqs: Sequence[SampledSequence], eps: float, order: int
) -> TwoScaleExpansion:
    """Build Y_k(m) = sum_j eps^j * delta^k y_j(m) from perturbation orders.

    `order_seqs[j]` holds the j-th order sequence y_j; all must cover a common
    index range.  The base range shrinks by `order` so every difference stays
    in bounds.
    """
    if not order_seqs:
        raise ValueError("need at least one order sequence")
    hi = min(s.last_index for s in order_seqs) - order
    if hi < 0:
        raise ValueError("sequences too short for the requested order")
    weights = [eps**j for j in range(len(order_seqs))]

    def coeff(k: int, m: int) -> complex:
        return sum(
            w * forward_difference(s, k, m) for w, s in zip(weights, order_seqs)
        )

    return TwoScaleExpansion(order=order, coeff=coeff, base_range=(0, hi))


def expansion_from_sequence(seq: SampledSequence, order: int) -> TwoScaleExpansion:
    """Expansion of a single exact sequence: Y_k(m) = delta^k y(m)."""
    return expansion_from_orders([seq], eps=0.0, order=order)


def envelope_partial_sum(exp: TwoScaleExpansion, n: int, m: int) -> complex:
    """Evaluate y(n, m) = sum_{k<=order} Y_k(m) binom(n-m, k)."""
    lo, hi = exp.base_range
    if not lo <= m <= hi:
        raise IndexError(f"base index {m} outside valid range [{lo}, {hi}]")
    return complex(
        sum(exp.coeff(k, m) * binomial_coefficient(n - m, k) for k in range(exp.order + 1))
    )


def check_envelope_constancy(exp: TwoScaleExpansion, n: int, m: int) -> float:
    """Residual |y(n, m+1) - y(n, m)| of the base-point shift.

    Zero (to rounding) for exact expansions whose order covers the span of the
    sequence; bounded by the truncation content otherwise.  Returned as a
    number rather than a verdict so callers pick tolerances that match their
    truncation orders.
    """
    return abs(envelope_partial_sum(exp, n, m + 1) - envelope_partial_sum(exp, n, m))
