"""Forward-difference calculus and the Newton forward-difference series.

Tools for sequences sampled on n = 0, 1, ..., N: k-fold forward differences,
binomial weights with any integer upper argument, partial sums S(m, n) of the
Newton series based at m, and the residual |S(m+1, n) - S(m, n)| of the
base-point independence the renormalization condition asks for.  A
perturbation expansion y0 + eps y1 is probed as that one sequence: forward
differences are linear, so its series is the eps-weighted sum of the orders'.

Differences are computed by direct repeated subtraction so that cancellation
error stays visible; for k beyond ~20 on noisy data the result is numerically
meaningless, and nothing here tries to hide that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "SampledSequence",
    "binomial_coefficient",
    "forward_difference",
    "newton_partial_sum",
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


def _differences(seq: SampledSequence, k: int, n: int) -> Iterator[np.complex128]:
    """Yield delta^0 y(n), ..., delta^k y(n), by repeated subtraction."""
    if k < 0:
        raise ValueError("order k must be nonnegative")
    if n < 0 or n + k > seq.last_index:
        raise IndexError(
            f"differences up to order {k} at n={n} need samples up to "
            f"{n + k}, sequence ends at {seq.last_index}"
        )
    window = seq.values[n : n + k + 1]
    yield window[0]
    for _ in range(k):
        window = window[1:] - window[:-1]
        yield window[0]


def forward_difference(seq: SampledSequence, k: int, n: int) -> complex:
    """k-fold forward difference of seq at index n; the zeroth is the identity."""
    *_, last = _differences(seq, k, n)
    return complex(last)


def newton_partial_sum(seq: SampledSequence, m: int, n: int, order: int) -> complex:
    """Partial sum S(m, n) = sum_{k<=order} binom(n-m, k) * delta^k y(m).

    Exact for polynomial sequences once order reaches the degree; otherwise
    the truncation of the forward-difference series based at m.
    """
    terms = enumerate(_differences(seq, order, m))
    return complex(sum((binomial_coefficient(n - m, k) * d for k, d in terms), 0j))


def check_envelope_constancy(seq: SampledSequence, n: int, m: int, order: int) -> float:
    """Residual |S(m+1, n) - S(m, n)| of the base-point shift at truncation order.

    Zero (to rounding) when the order covers the span of the sequence or
    n - m stays within the order; bounded by the truncation content otherwise.
    A number, not a verdict, so callers pick tolerances that match the order.
    """
    return abs(newton_partial_sum(seq, m + 1, n, order) - newton_partial_sum(seq, m, n, order))
