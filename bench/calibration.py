"""Machine-speed reference for timings on shared, drifting hardware.

On a shared 2-core machine the speed of the same Python code wanders by
+-20 % over tens of seconds (other tenants, clock changes), which no
amount of repetition inside one run removes.  A fixed reference kernel,
independent of rigidmem, is timed every ``EVERY_S`` seconds between
jobs; each job's latency is divided by the mean of the kernel times
just before and just after it and multiplied by ``REF_S``.  The result
is the job's time at the speed where the kernel takes ``REF_S``: it
tracks the program's own cost and drops the machine's drift.  Raw times
are reported next to it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: nominal time of one kernel call (its median on a 2-core x86_64
#: sandbox with Python 3.11 and numpy 2.4); scaled times are in these
#: reference seconds
REF_S = 0.003

#: the kernel runs before a job when this long has passed since it last ran
EVERY_S = 0.2


class SpeedClock:
    def __init__(self):
        self._buf = np.ones(100_000)
        self._times: list[float] = []
        self._costs: list[float] = []

    def _kernel(self) -> float:
        """Interpreter loop with small-array numpy ops, then reversed-stride
        dot products over 800 KB: the two kinds of work the rigidmem
        workloads spend their time in."""
        start = time.perf_counter()
        x = np.ones(3)
        acc = 0.0
        for i in range(800):
            x = x + 1e-3 * x * x
            acc += i * 0.5
        for _ in range(20):
            acc += float(self._buf[::-1] @ self._buf)
        return time.perf_counter() - start

    def sample(self) -> None:
        """One speed sample: the median of three kernel runs."""
        self._times.append(time.perf_counter())
        self._costs.append(statistics.median(self._kernel()
                                             for _ in range(3)))

    def maybe_sample(self) -> None:
        if not self._times or time.perf_counter() - self._times[-1] > EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end]; needs a sample
        taken before ``start`` and one after ``end``."""
        before = bisect.bisect_right(self._times, start) - 1
        after = bisect.bisect_left(self._times, end)
        if before < 0 or after >= len(self._times):
            raise RuntimeError("interval is not bracketed by speed samples")
        cost = 0.5 * (self._costs[before] + self._costs[after])
        return (end - start) * REF_S / cost
