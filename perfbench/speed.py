"""Machine-speed meter, so that run times compare across a noisy shared host.

On the 2-vCPU VM this benchmark was built on, the same work runs at two
speeds that differ by a factor of about 1.7, switching every few tens of
seconds. Raw wall times of one 20 s operation then spread by 30-40 % between
runs. The meter samples the machine's speed while the program runs: every
50 ms a SIGALRM handler, in the benchmark's own thread, times a fixed
numpy kernel. A timed interval is then reported as the seconds it
would have taken at a fixed reference speed:

    normalised = (wall - kernel time inside) * REFERENCE_KERNEL_S / mean kernel time inside

The kernel shares nothing with the program, so a change to the program
moves the normalised time exactly as it moves the wall time at constant
machine speed.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.05
# Kernel duration at the reference speed: about the fast state of the build VM
# (Python 3.11.7, numpy 2.4.6).
REFERENCE_KERNEL_S = 4.0e-4
_OMEGA = np.linspace(1.0, 2.0, 60)


def _kernel():
    """Fixed free-rotation steps on small arrays: the interpreter-plus-ufunc
    mix that dominates the program, which tracks the host's speed states
    better than pure-Python arithmetic (2 % against 5 % residual spread)."""
    q, v = np.zeros(60), np.ones(60)
    for _ in range(40):
        c, s = np.cos(_OMEGA * 0.1), np.sin(_OMEGA * 0.1)
        q, v = q * c + (v / _OMEGA) * s, v * c - _OMEGA * q * s
    return q


class SpeedMeter:
    def __init__(self):
        self.starts = []       # perf_counter at each kernel start, ascending
        self.durations = []

    def _sample(self, signum, frame):
        started = time.perf_counter()
        _kernel()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def _inside(self, begin, end):
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        return self.durations[lo:hi]

    def normalised(self, intervals) -> float:
        """Seconds the (begin, end) intervals would take at the reference speed."""
        net, kernels = 0.0, []
        for begin, end in intervals:
            inside = self._inside(begin, end)
            net += end - begin - sum(inside)
            kernels += inside
        if not kernels:
            # Too short to hold a sample: use the speed of the whole run so far.
            kernels = self.durations
        return net * REFERENCE_KERNEL_S * len(kernels) / sum(kernels)

    def mean_kernel_s(self) -> float:
        return sum(self.durations) / len(self.durations)
