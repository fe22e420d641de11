"""The reference burst that ``iter_s`` and ``setup_s`` are measured against.

On a few cores of a shared host the speed of the process itself changes,
by up to half, for seconds to minutes at a time, as other tenants load the
machine: the same code runs slower with no time stolen from it, so neither
CPU time nor a median over one run removes the change.  The run therefore
times this burst between operations, before the first and after the last,
and counts each operation in bursts: ``iter_s`` is ``REFERENCE_S`` times
the sum over an iteration's operations of the median ratio of an
operation's time to the mean of the bursts just before and just after it.
The bursts and the operation between them run in much the same state of
the host, so the ratio keeps the program's speed and drops the host's.
``setup_s`` is counted the same way: an input generation against the
bursts just before and after it, an import in a fresh interpreter against
a burst run there right after it.
A burst counts the median of a few short rounds, so that one round slowed
by an interrupt or by the cold caches an operation left does not count.

The burst is work of the three kinds the workloads do: a pure-Python loop,
banded LU solves of the size the 32x32 forward solver makes, and
exponential-weighted contractions on a 32x32x64 array.  It calls nothing
from the package, so a change to the package moves ``iter_s`` as it moves
the operations' wall time.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

#: Seconds one burst is taken to last: about its time on the 2-core host
#: the bounds were set on, so that ``iter_s`` reads in seconds there.
REFERENCE_S = 0.005
PY_LOOP = 20_000
BAND = 32
LU_SOLVES = 2
CONTRACTIONS = 3
ROUNDS = 3


class ReferenceBurst:
    """Calling it runs one burst and returns the median wall seconds of its
    rounds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = (BAND + 2) * BAND
        self.band = rng.standard_normal((2 * BAND + 1, n))
        self.band[BAND] += 4.0 * BAND  # diagonally dominant, so the solve is stable
        self.rhs = rng.standard_normal(n)
        self.field = rng.standard_normal((BAND, BAND, 2 * BAND))
        self.weights = rng.standard_normal(2 * BAND)
        self()  # the first call loads LAPACK and faults the arrays in

    def __call__(self) -> float:
        return sorted(self._round() for _ in range(ROUNDS))[ROUNDS // 2]

    def _round(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(PY_LOOP):
            acc += i * i
        for _ in range(LU_SOLVES):
            scipy.linalg.solve_banded((BAND, BAND), self.band.copy(), self.rhs,
                                      overwrite_ab=True, check_finite=False)
        for _ in range(CONTRACTIONS):
            np.einsum("ijk,k->ij", np.exp(-0.5 * self.field) * self.field, self.weights)
        return time.perf_counter() - start
