"""Host-speed calibration: a fixed reference kernel timed next to the work.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third and more within minutes, in user time as much as in wall time (steal
time stays near zero). Identical augdb-build runs a few minutes apart read
87 to 147 ms per op, while op time divided by the time of a small fixed
kernel stayed within about 6% of its median. So every timed interval is
paired with the kernel run just before and just after it, and reported in
reference seconds::

    reference_s = wall_s * NOMINAL_S / mean(kernel_s before, kernel_s after)

that is, the time the work would take on a host where the kernel takes
``NOMINAL_S``, about this 2-vCPU machine when its host is quiet.

The kernel is an interpreted Python loop plus nearest-neighbour queries
into a SciPy k-d tree of 300k points, the two kinds of work the workloads
spend their time in; the tree is larger than the caches, as the workloads'
scans are. Of the kernels tried (NumPy sorts, streaming NumPy copies, file
reads from the page cache, the loop alone, small trees built per call,
random list indexing), this one tracked the host best: over 5-second windows
of one fuse-seq or augdb-build run, op time over kernel time varied by a
coefficient of 0.02 where raw op time varied by 0.10 to 0.15, and log op
time rose 0.9 to 1.05 times as fast as log kernel time (1.3 for a tree of
8k points, which missed about a quarter of each slowdown). It calls neither
``scanfuse`` nor BLAS, so no change to the program changes it, and a program
change that saves work shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

NOMINAL_S = 0.008
_RNG = np.random.default_rng(0)
_TREE = cKDTree(30.0 * _RNG.random((300_000, 3)))
_QUERIES = 30.0 * _RNG.random((1500, 3))


def kernel_s() -> float:
    """Wall time of one run of the fixed reference kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(15_000):
        acc += i * 0.5
    _TREE.query(_QUERIES, k=4)
    return time.perf_counter() - start


class Calibrator:
    """Converts back-to-back timed intervals to reference seconds.

    Construct it right before the first interval and call ``scale`` right
    after each one; the kernel run that ends one interval's pair starts the
    next one's.
    """

    def __init__(self, kernel=kernel_s) -> None:
        self._kernel = kernel
        self._last = kernel()
        self.kernels: list[float] = []

    def scale(self, wall_s: float) -> float:
        before, self._last = self._last, self._kernel()
        pair = 0.5 * (before + self._last)
        self.kernels.append(pair)
        return wall_s * NOMINAL_S / pair

    def kernel_ms(self) -> float:
        """Median kernel time seen, in ms: how fast the host was."""
        return 1000.0 * statistics.median(self.kernels)
