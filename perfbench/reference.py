"""A fixed reference computation that measures how fast the machine is right now.

On a shared host the speed of a core drifts by up to 1.6x over minutes, and
program and reference slow down together.  The benchmark runs this reference
between timed operations and reports each operation's time as
``op / reference * REF_SECONDS``, where ``reference`` is the mean of the runs
just before and just after it.  That is its wall time on a core that runs
the reference in ``REF_SECONDS``.  The mix mirrors the program's own work:

- a scalar recurrence stored element by element into a numpy array, like the
  oracle
- a complex recurrence, like the amplitude flow
- numpy complex exponentials and reductions, like the harmonic evaluation
  and the analysis
- float formatting into CSV rows, like the writer

None of it calls renormdiff, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Reference wall time on an uncontended core of the machine this benchmark
# was written on (2-vCPU Intel Xeon, Python 3.11, numpy 2.4): the fastest of
# 200 back-to-back runs took 0.0334 s.
REF_SECONDS = 0.033

_N = 40_000
_K = np.arange(_N + 1, dtype=float)


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    values = np.empty(_N + 1)
    zm, z = 1.0, 0.99
    for n in range(1, _N):
        zp = 1.99996 * z - zm - 1e-6 * z * z * z
        if abs(zp) > 1e8:
            raise ArithmeticError("reference recurrence diverged")
        values[n + 1] = zp
        zm, z = z, zp
    amps = np.empty(_N // 2 + 1, dtype=complex)
    a, b = 0.5 + 0.1j, 0.5 - 0.1j
    for m in range(_N // 2 + 1):
        amps[m] = a
        a, b = a + 1e-5j * a * a * b, b - 1e-5j * b * b * a
    for _ in range(4):
        np.abs(values - 2.0 * np.exp(_K * 0.001j).real).max()
    rows = np.column_stack([_K, values, values, values])[:8_000].tolist()
    "\n".join(",".join(format(x, ".17g") for x in row) for row in rows)
    return time.perf_counter() - t0
