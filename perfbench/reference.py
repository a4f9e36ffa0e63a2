"""Reference kernel that gauges how fast the machine runs right now.

On a shared machine the same work can take 1.5 times longer from one
stretch of seconds or minutes to the next, because of load on the host
that the process cannot see: it shows neither as steal time nor as lost
CPU time.  So the benchmark times this fixed kernel right before and right
after every measured command, and scales the command's wall time by
``REF_NOMINAL_S / reference time``.  A reported time then reads "on a
machine where the reference takes ``REF_NOMINAL_S`` seconds", and slow
stretches of the host largely cancel out.

The kernel mixes the four kinds of work the workloads do: batched LAPACK
eigensolves of 4x4 matrices, one-matrix numpy calls, plain interpreter
work and 17-digit float formatting.  It uses numpy only, never bineg, so
no change to the package moves it.
"""

from __future__ import annotations

import time

import numpy as np

REF_NOMINAL_S = 0.04
_ROUNDS = 24


def _matrices():
    rng = np.random.default_rng(20170111)
    g = rng.standard_normal((256, 4, 4)) + 1j * rng.standard_normal((256, 4, 4))
    return g @ np.conjugate(np.swapaxes(g, -1, -2))


_H = _matrices()


def _kernel(rounds):
    for _ in range(rounds):
        np.linalg.eigvalsh(_H)
        for m in _H[:24]:
            np.linalg.eigvalsh(m)
        total = 0
        for i in range(4000):
            total += i * i
        for x in _H[0, 0].real:
            for _ in range(50):
                format(x * total, ".17g")


def reference_s():
    """Wall time of the fixed reference work, after one untimed round that
    brings its code and data back into the caches."""
    _kernel(1)
    t0 = time.perf_counter()
    _kernel(_ROUNDS)
    return time.perf_counter() - t0
