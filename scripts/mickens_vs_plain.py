#!/usr/bin/env python3
"""Step-size study: trigonometric-weight scheme against the plain scheme.

At eps = 0 the scheme with 4 sin^2(h/2) weights solves the harmonic problem
exactly (cos(n h) to rounding), while the plain h^2 scheme carries an O(h^2)
frequency defect.  The gap between the two over a fixed time horizon therefore
shrinks quadratically as h is halved.
"""

import argparse
import math

import numpy as np

from renormdiff.lineardiff import Scheme, SchemeParams
from renormdiff.oracle import iterate
from renormdiff.perturbation import CUBIC


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-max", type=float, default=20.0)
    ap.add_argument("--steps", type=float, nargs="+", default=[0.1, 0.05, 0.025])
    args = ap.parse_args()

    print(f"harmonic regime (eps = 0), horizon t = {args.t_max}")
    print("      h    max|mickens - cos|   max|mickens - plain|")
    gaps = []
    for h in args.steps:
        n = int(args.t_max / h)
        mick = iterate(
            CUBIC, SchemeParams(dt=h, eps=0.0, scheme=Scheme.MICKENS), 1.0, math.cos(h), n
        )
        plain = iterate(CUBIC, SchemeParams(dt=h), 1.0, math.cos(h), n)
        cos_err = np.max(np.abs(mick.values - np.cos(np.arange(n + 1) * h)))
        gap = np.max(np.abs(mick.values - plain.values))
        gaps.append(gap)
        print(f"  {h:7.4f}  {cos_err:18.3e}  {gap:20.3e}")
    for big, small in zip(gaps, gaps[1:]):
        print(f"  gap ratio per halving: {big / small:.3f} (2nd order -> 4)")


if __name__ == "__main__":
    main()
