"""Host-speed calibration: a fixed reference kernel timed between jobs.

On a small shared host the same pgzo code runs 15-40 % slower or faster from
one ten-second stretch to the next, in CPU time as well as wall time, while
the process does nothing different. A fixed kernel timed right before every
job (and at the start and end of every pass and set-up round) slows down with
the host in the same stretch. Each stretch of workload time between two
kernel runs is scaled by ``REF_NOMINAL_S / mean(kernel time before, kernel
time after)``, which turns it into seconds at the host's nominal speed. The
kernel is part of the benchmark, not of pgzo, so a change to pgzo moves the
calibrated times and leaves the kernel alone. Time spent in the kernel
itself counts in no metric.

The kernel does what a pgzo iteration does most: draw an 11x500 Gaussian
block, form its Gram matrix and factor it. Over a four-minute stretch in
which the kernel's own time varied by about 27 %, the times of a greedy d=500
run, an ARS d=256 run and a d=101 Monte-Carlo check each moved with it at a
log-log slope of 1.1-1.15; against a pure-Python loop the slopes were
0.6-0.8, so such a kernel over-corrects these numpy-heavy workloads. The kernel runs as five chunks and
the median chunk counts, so that one interrupt does not skew a mark.

numpy is imported on the first mark, after the caller has pinned BLAS
threads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from time import perf_counter

CHUNKS, REPS = 5, 8
# Five chunks' time on the reference host (2-vCPU x86-64 VM, numpy with
# OpenBLAS on one thread) at its usual fast speed; calibrated seconds are
# seconds at that speed.
REF_NOMINAL_S = 0.0045

_gen = None


def reference_kernel() -> float:
    """Time of the fixed kernel: CHUNKS times its median chunk."""
    global _gen
    import numpy as np
    if _gen is None:
        _gen = np.random.default_rng(20210721)
    chunks = []
    for _ in range(CHUNKS):
        t0 = perf_counter()
        for _ in range(REPS):
            a = _gen.standard_normal((11, 500))
            np.linalg.cholesky(a @ a.T)
        chunks.append(perf_counter() - t0)
    chunks.sort()
    return CHUNKS * chunks[CHUNKS // 2]


class HostClock:
    """Reference-kernel marks and the calibrated length of any interval."""

    def __init__(self):
        self.starts = array("d")     # kernel start times
        self.ends = array("d")       # kernel end times
        self.refs = array("d")       # kernel times (median chunk based)

    def mark(self):
        t0 = perf_counter()
        ref = reference_kernel()
        self.starts.append(t0)
        self.ends.append(perf_counter())
        self.refs.append(ref)

    def _factor(self, i: int) -> float:
        """Scale of the stretch between mark i and mark i+1 (clamped)."""
        n = len(self.refs)
        a, b = self.refs[min(max(i, 0), n - 1)], self.refs[min(max(i + 1, 0), n - 1)]
        return 2.0 * REF_NOMINAL_S / (a + b)

    def factor_at(self, t: float) -> float:
        return self._factor(bisect_right(self.ends, t) - 1)

    def calibrated(self, a: float, b: float, scale: bool = True) -> float:
        """Workload time in [a, b] at nominal host speed (kernel time
        excluded); with ``scale=False`` the same time unscaled."""
        if not self.refs:
            return b - a
        total = 0.0
        i = bisect_right(self.ends, a) - 1
        n = len(self.refs)
        while True:
            lo = self.ends[i] if i >= 0 else float("-inf")
            hi = self.starts[i + 1] if i + 1 < n else float("inf")
            seg = min(b, hi) - max(a, lo)
            if seg > 0:
                total += seg * (self._factor(i) if scale else 1.0)
            if hi >= b:
                return total
            i += 1

    def median_factor(self) -> float:
        r = sorted(self.refs)
        return REF_NOMINAL_S / r[len(r) // 2] if r else 1.0
