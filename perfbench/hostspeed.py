"""Host-speed calibration for timing on a shared machine.

On a host whose cores are shared with other tenants, the speed of one vCPU
switches between regimes up to twice apart, from one second to the next,
and wall and CPU time move together.  ``HostSpeed`` times a fixed
interpreter kernel that never calls paratori, before and after every task
and, while ``periodic`` is active, every ``PERIOD_S`` seconds during it
(from a SIGALRM handler).  ``clock`` and ``cpu_clock`` exclude the sampling
time, so tasks and spans timed with them do not contain it.  A duration
divided by the mean kernel time over its span cancels most of the drift;
``adjusted`` scales it back to seconds at a fixed nominal speed.

Standard library only, so that it can sample from the very start of a fresh
interpreter, before numpy and scipy are imported.
"""

import contextlib
import signal
import time

PERIOD_S = 0.05
ITERATIONS = 5000
# typical kernel time on a 2-vCPU x86-64 VM (Python 3.11.7); only a scale,
# the same on both sides of a comparison
NOMINAL_KERNEL_S = 0.0012


def kernel():
    """Seconds for one run of the fixed kernel: integer, complex and dict
    work in the interpreter loop, where the program spends most of its time."""
    t0 = time.perf_counter()
    acc, z, keep = 0, 0.03 + 0.002j, {}
    for j in range(ITERATIONS):
        acc += j * j
        z = z * 0.999 + 0.001j
        keep[j & 63] = (z.real, acc)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples plus the wall and CPU seconds spent taking them."""

    def __init__(self):
        self.samples = []
        self.wall = 0.0
        self.cpu = 0.0
        self._busy = False

    def clock(self):
        """Wall seconds, not counting time spent sampling."""
        return time.perf_counter() - self.wall

    def cpu_clock(self):
        """Process CPU seconds, not counting time spent sampling."""
        return time.process_time() - self.cpu

    def adjusted(self, seconds, first=0):
        """``seconds`` at the nominal speed, by the samples from ``first``."""
        taken = self.samples[first:]
        return seconds * NOMINAL_KERNEL_S * len(taken) / sum(taken)

    def sample(self, *_signal_args):
        if self._busy:  # an alarm that lands inside a sample
            return
        self._busy = True
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            self.samples.append(kernel())
        finally:
            self.wall += time.perf_counter() - t0
            self.cpu += time.process_time() - c0
            self._busy = False

    @contextlib.contextmanager
    def periodic(self):
        """Also sample every PERIOD_S seconds of wall time."""
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
