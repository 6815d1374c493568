#!/usr/bin/env python3
"""Van der Pol limit cycle: oracle envelope vs the renormalized envelope.

Iterates the Van der Pol type scheme from a small start, extracts the
amplitude envelope, and compares it against the renormalized envelope
2 |A(t)|, A(t) = a0 / sqrt(|a0|^2 + (1 - |a0|^2) e^{-2 eps t}); it saturates
at waveform amplitude 2.  --ratio only sets the direction Im(a0)/Re(a0) of
the start amplitude, which the envelope does not depend on.  Acceptance
criterion 6 (tests/test_acceptance.py) also refutes kappa = 1 + c, in the
split A = A1 (1 + i c), against the oracle.
"""

import argparse
import math

import numpy as np

from renormdiff.analysis import envelope
from renormdiff.asymptotic import GlobalSolution
from renormdiff.lineardiff import RootConvention, SchemeParams
from renormdiff.oracle import init_from_amplitude, iterate
from renormdiff.perturbation import VAN_DER_POL


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--dt", type=float, default=0.005)
    ap.add_argument("--start-amplitude", type=float, default=0.2,
                    help="waveform amplitude at t=0")
    ap.add_argument("--ratio", type=float, default=2.0,
                    help="component ratio c = Im(A)/Re(A) of the start amplitude")
    args = ap.parse_args()

    params = SchemeParams(dt=args.dt, eps=args.eps,
                          root_convention=RootConvention.EXACT_UNIT_MODULUS)
    c = args.ratio
    a0 = 0.5 * args.start_amplitude * (1 + 1j * c) / math.hypot(1.0, c)
    t_max = 10.0 / args.eps

    z0, z1 = init_from_amplitude(a0, params)
    traj = iterate(VAN_DER_POL, params, z0, z1, int(round(t_max / args.dt)))
    peaks = envelope(traj)
    sol = GlobalSolution(VAN_DER_POL, params, a0)

    print(f"vdp scheme, eps={args.eps}, dt={args.dt}, "
          f"start amplitude {args.start_amplitude}, ratio c={c}")
    print(f"  final oracle envelope: {peaks[-1, 1]:.4f} (limit cycle amplitude 2)")
    print("      t    oracle  renormalized")
    for t_probe in np.linspace(peaks[0, 0], peaks[-1, 0], 8):
        nearest = peaks[np.argmin(np.abs(peaks[:, 0] - t_probe))]
        print(f"  {nearest[0]:7.1f}  {nearest[1]:7.4f}"
              f"  {sol.fundamental_amplitude(nearest[0]):12.4f}")

    band = peaks[peaks[:, 0] >= 2.0 / args.eps]
    dev = np.max(np.abs(sol.fundamental_amplitude(band[:, 0]) - band[:, 1]) / band[:, 1])
    print(f"  worst relative envelope deviation for t >= {2.0 / args.eps:.0f}: {dev:.3f}")


if __name__ == "__main__":
    main()
