"""The CPU's speed, sampled beside the timed work, and times rescaled by it.

The vCPUs of a shared host run the same code at a speed that changes by up
to a factor of two, in spells of seconds to minutes, as other tenants load
the physical cores; the two vCPUs do so independently.  A wall time of 30 s
then says as much about the neighbours as about the program.  So a worker
pins itself to one CPU and runs a ``Sampler`` thread beside its work: every
few milliseconds the thread takes the GIL, times ``KERNEL`` (a fixed loop of
small numpy operations, the kind of work the program's ODE right-hand sides
do) and sleeps again.  While the kernel runs, the work waits, on the same CPU.

``ref_seconds`` turns a wall interval into the time the work in it would have
taken at the reference speed, at which one kernel takes ``REF_KERNEL_S``: it
integrates REF_KERNEL_S / (the latest kernel time) over the interval, and
takes out the kernels' own share (each is REF_KERNEL_S at that speed).

Only ``Sampler`` needs numpy; the integration is plain Python, so run.py
stays free of the program's dependencies.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_right

# One KERNEL on a quiet vCPU of the reference machine (a 2-vCPU KVM guest on
# an Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6).  It sets the scale
# of every reported time, not its steadiness.
REF_KERNEL_S = 7.6e-5
KERNEL_CALLS = 30
PERIOD_S = 0.005


def pin_to_one_cpu() -> None:
    """Pin the calling thread, and every thread and process it starts later,
    to the lowest CPU it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """A daemon thread that times KERNEL every PERIOD_S seconds.

    ``samples`` holds (start, duration) pairs in ``time.monotonic`` seconds,
    which every process of the machine shares.
    """

    def __init__(self, period: float = PERIOD_S):
        import numpy as np

        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        self._v0 = np.array([1.0, 0.5])
        self._sqrt = np.sqrt
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _rhs(self, v):
        return v + 1e-3 * (self._m @ v) * self._sqrt(abs(v[0]) + 1.0)

    def kernel(self) -> None:
        v = self._v0
        for _ in range(KERNEL_CALLS):
            v = self._rhs(v)

    def _run(self) -> None:
        clock, append, kernel = time.monotonic, self.samples.append, self.kernel
        while not self._stop.wait(self.period):
            start = clock()
            kernel()
            append((start, clock() - start))

    def start(self) -> "Sampler":
        self.kernel()  # first call outside the samples: numpy's lazy set-up
        self._thread.start()
        return self

    def stop(self) -> list[tuple[float, float]]:
        self._stop.set()
        self._thread.join()
        return self.samples


def ref_seconds(samples: list, a: float, b: float) -> float:
    """Seconds at the reference speed of the wall interval [a, b].

    Sample i sets the speed REF_KERNEL_S / duration_i from its start to the
    next sample's start; before the first sample the first one's speed holds.
    The kernels that started inside [a, b] ran instead of the work, so their
    REF_KERNEL_S each is taken out.  With no samples the wall time is returned.
    """
    if b <= a or not samples:
        return max(b - a, 0.0)
    starts = [s for s, _ in samples]
    total, t, kernels = 0.0, a, 0
    for j in range(max(bisect_right(starts, a) - 1, 0), len(samples)):
        end = b if j + 1 == len(samples) else min(starts[j + 1], b)
        if end > t:
            total += (end - t) * REF_KERNEL_S / samples[j][1]
            t = end
        if a <= starts[j] < b:
            kernels += 1
        if t >= b:
            break
    return max(total - kernels * REF_KERNEL_S, 0.0)
