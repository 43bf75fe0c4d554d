"""Host-speed calibration for timings taken on a shared machine.

On a shared host the speed of a core drifts by tens of percent within a
minute. That drift is larger than the differences the benchmark has to
resolve. So a fixed kernel, which never changes with the program, runs
before the first and after every timed interval, and each interval is
divided by the slowdown the kernel saw (see ``HostSpeed.scaled``). Over one
ten-seed set per workload, the quartile spreads of the end-to-end times were
0.02-0.12 of their median when scaled and 0.05-0.14 when raw.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

# Kernel times at the reference speed: typical medians over several minutes
# on a shared 2-core x86-64 VM (Python 3.11, numpy 2.4 with OpenBLAS 0.3.31,
# one thread).
PYTHON_REF_S = 0.027
LAPACK_REF_S = 0.011


def _python_kernel() -> int:
    """Random regular 8x8 fillings by row length, as the breadth sampler does."""
    rnd = random.Random(12345)
    total = 0
    for _ in range(300):
        row_len = [0] * 8
        for _ in range(64):
            rows = [i for i in range(8) if row_len[i] < 8 and (i == 0 or row_len[i - 1] > row_len[i])]
            i = rows[int(rnd.random() * len(rows))]
            row_len[i] += 1
            total += i
    return total


class HostSpeed:
    """Samples the host's slowdown between timed intervals."""

    def __init__(self) -> None:
        a = np.random.default_rng(0).standard_normal((256, 256))
        self._matrix = a + a.T
        self.seen = [self._slowdown()]

    def _slowdown(self) -> float:
        """How much slower the host runs now than at the reference speed."""
        t0 = perf_counter()
        _python_kernel()
        t1 = perf_counter()
        for _ in range(3):
            np.linalg.eigvalsh(self._matrix)
        t2 = perf_counter()
        return 0.5 * ((t1 - t0) / PYTHON_REF_S + (t2 - t1) / LAPACK_REF_S)

    def mark(self) -> int:
        """Sample right after an interval ends; the interval's mark."""
        self.seen.append(self._slowdown())
        return len(self.seen) - 1

    def scaled(self, seconds: float, mark: int) -> float:
        """An interval's length at the reference speed, once all samples are in.

        The slowdown blends the mean of the samples at the interval's two
        ends, which follows the host during the interval but rests on two
        40 ms snapshots, with the mean over the whole run, which is steady but
        blind to changes within it.
        """
        ends = (self.seen[max(mark - 1, 0)] + self.seen[mark]) / 2
        return seconds / ((ends + statistics.fmean(self.seen)) / 2)
