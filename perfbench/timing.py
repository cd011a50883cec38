"""Speed-normalised timing.

The host's speed for interpreted Python drifts by tens of percent within
seconds, differently on each core, and CPU time follows wall time, so
neither raw wall time nor CPU time compares two runs fairly.  The benchmark
therefore pins itself to one core and interleaves a fixed reference kernel
with the workload: an interval timer fires every ``SAMPLE_PERIOD_S`` and the
signal handler, which Python runs in the main thread between bytecodes,
times one pass of the kernel in thread CPU time, which counts host slowness
but not the time another thread (``qme compare`` runs its equations in a
worker thread) holds the interpreter lock.  The kernel's work never changes: scalar
``scipy`` quadrature with Python callbacks plus small dense ``numpy`` linear
algebra, the mix ``qme`` spends its time on.  A step's normalised time is

    normalised = (raw - kernel CPU time inside the step) * NOMINAL_KERNEL_S / k

with k the median kernel time sampled during the step or, for a step that
held fewer than ``MIN_SAMPLES`` samples, the median of the ``MIN_SAMPLES``
samples nearest to it.  A step that ran while the host was 20 % slow reads
as it would have at nominal speed.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import statistics
import sys
import time

import numpy as np
from scipy import integrate
from scipy.linalg import expm

# Median kernel times on the reference machine (see README.md): the thread
# CPU time of one pass sampled between the workload's bytecodes, where it
# starts with cold caches, and the wall time of one pass of several run back
# to back.
NOMINAL_KERNEL_S = 0.0053
NOMINAL_WARM_KERNEL_S = 0.0035
SAMPLE_PERIOD_S = 0.05
MIN_SAMPLES = 9
# While sampling, a thread waiting for the interpreter lock may force its
# release only after this long; it must exceed a kernel pass, or a worker
# thread (``qme compare`` runs its equations in one) would interleave with
# the kernel and inflate the sample.
SWITCH_INTERVAL_S = 0.05

_RNG = np.random.default_rng(20190803)
_MATS = []
for _n in (4, 8, 16):
    _g = _RNG.standard_normal((_n, _n)) + 1j * _RNG.standard_normal((_n, _n))
    _MATS.append(0.5 * (_g + _g.conj().T))
del _n, _g


def _integrand(x: float, k: int) -> float:
    return math.exp(-0.3 * x) * math.cos(k * x) / (1.0 + x * x)


def reference_kernel() -> float:
    """Run the fixed reference work once and return a checksum."""
    acc = 0.0
    for _ in range(2):
        for k in range(1, 13):
            acc += integrate.quad(_integrand, 0.0, 12.0, args=(k,), limit=200)[0]
    for _ in range(2):
        for m in _MATS:
            acc += float(np.linalg.eigvalsh(m)[0])
            acc += float(np.linalg.svd(m, compute_uv=False).sum())
            acc += float(expm(-0.05j * m)[0, 0].real)
    return acc


def time_kernel() -> float:
    """Wall time of one reference-kernel pass, in seconds."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def median_kernel(passes: int) -> float:
    """Median of ``passes`` kernel passes, after one discarded warm-up pass."""
    time_kernel()
    return statistics.median(time_kernel() for _ in range(passes))


def pin_to_one_core():
    """Keep this process, and every thread or child it starts, on one core, so
    the kernel samples measure the core the workload runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def normalise(raw_s: float, kernel_s: float, nominal_s: float = NOMINAL_KERNEL_S) -> float:
    return raw_s * nominal_s / kernel_s


class Clock:
    """Kernel samples taken by a timer signal, and steps timed against them."""

    def __init__(self):
        self.starts = []        # sample start times (wall clock), increasing
        self.kernels = []       # sample kernel times (thread CPU time)
        self._busy = False
        self._switch_interval = None
        time_kernel()           # warm-up: the first pass pays lazy set-up

    def _sample(self, signum, frame):
        if self._busy:          # a timer tick inside a slow sample: skip it
            return
        self._busy = True
        start, cpu = time.perf_counter(), time.thread_time()
        reference_kernel()
        self.kernels.append(time.thread_time() - cpu)
        self.starts.append(start)
        self._busy = False

    def start(self):
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        sys.setswitchinterval(self._switch_interval)

    @staticmethod
    def step(fn, *args, **kwargs):
        """Run ``fn``; return (result, t0, t1) for ``normalised`` to price later,
        once the samples after the step exist too."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, t0, time.perf_counter()

    def normalised(self, t0: float, t1: float):
        """(raw_s, normalised_s) of the interval [t0, t1]; raw_s excludes the
        kernel samples taken inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.kernels[lo:hi]
        raw = (t1 - t0) - sum(inside)
        if len(inside) < MIN_SAMPLES:
            if len(self.kernels) < MIN_SAMPLES:
                raise RuntimeError("too few kernel samples to normalise a step")
            while hi - lo < MIN_SAMPLES:   # widen towards the nearer sample
                left = t0 - self.starts[lo - 1] if lo > 0 else math.inf
                right = self.starts[hi] - t1 if hi < len(self.starts) else math.inf
                if left <= right:
                    lo -= 1
                else:
                    hi += 1
        return raw, normalise(raw, statistics.median(self.kernels[lo:hi]))
