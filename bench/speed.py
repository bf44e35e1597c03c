"""Host-speed probe: fixed pieces of numpy and Python work that never touch
qduality, timed next to every measurement so that times can be reported at
one reference host speed.

The shared 2-vCPU host this benchmark was tuned on switches between a fast
state and one about 1.45 times slower, for seconds to minutes at a time.
CPU time equals wall time in both states, and Python bytecode, small
eigendecompositions and matrix products slow by about the same factor, so no
statistic of raw wall time over one run is steady.  Streaming a large array
through memory slows by less, about 1.15 times.

The probe is therefore timed before and after everything the benchmark
times, and that time is multiplied by the probe's reference time over the
mean of the two probe times.  A probe time is the fastest of a few
back-to-back repetitions, so one preempted repetition does not count.  The
probe does the same work on every commit, so a change to qduality moves the
scaled times exactly as it moves the raw ones; the raw times are kept in the
details line.

Bracketing each op beat a median over earlier probes: in a 150 s trial the
coefficient of variation of 10 s medians fell to 0.02-0.04 on the duality
and CLI ops (0.05-0.12 unscaled).  The fixed_algebra ops spend most of their
time in one memory-bound SVD, so their probe adds a memory-bound part; that
took their variation from 0.04-0.05 to 0.025-0.03.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# reference times of the two parts, about their fastest-of-repeats time on
# the tuning host (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4 with OpenBLAS
# 0.3.31 on one thread) in its fast state
COMPUTE_REFERENCE_S = 0.40e-3
MEMORY_REFERENCE_S = 1.15e-3
REPEATS = 3


class SpeedProbe:
    """Times the probe work and turns bracketing times into a scale factor.

    With `memory`, the probe also copies an 8 MiB array, twice the size of a
    core's L2 cache.
    """

    def __init__(self, memory: bool = False):
        rng = np.random.Generator(np.random.PCG64(0))
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._herm = g + g.conj().T
        self._mat = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        # bound once, so a tracer that wraps numpy.linalg.eigh later never
        # counts the probe
        self._eigh = np.linalg.eigh
        self._parts = [(self._compute, COMPUTE_REFERENCE_S)]
        if memory:
            self._src = np.ones(2**20)
            self._dst = np.empty_like(self._src)
            self._parts.append((self._memory, MEMORY_REFERENCE_S))
        self.reference_s = sum(ref for _, ref in self._parts)
        self._last = self._time()  # warm-up, not kept
        self.times = []

    def _compute(self):
        s = 0
        for i in range(1000):
            s += i * i % 7
        for _ in range(4):
            self._eigh(self._herm)
            self._mat @ self._mat
        return s

    def _memory(self):
        np.copyto(self._dst, self._src)

    def _time(self) -> float:
        total = 0.0
        for work, _ in self._parts:
            best = float("inf")
            for _ in range(REPEATS):
                start = perf_counter()
                work()
                best = min(best, perf_counter() - start)
            total += best
        return total

    def factor(self, samples: int = 1) -> float:
        """Time the probe `samples` more times, keeping the median; return the
        reference time over the mean of that time and the previous call's,
        which bracket what ran between the two calls."""
        fresh = [self._time() for _ in range(samples)]
        self.times.extend(fresh)
        previous, self._last = self._last, statistics.median(fresh)
        return 2 * self.reference_s / (previous + self._last)
