"""Time measured against the machine's own speed while the work ran.

On a cloud VM whose cores are shared with other tenants (measured on a
2-vCPU x86-64 VM), the same pure-Python code runs up to twice as slowly
for seconds at a time, and the mix of fast and slow spells differs from one
run to the next, so raw durations spread by 20-35% between runs. Slowdowns
hit pure-Python code much alike, though: two kernels timed side by side kept
their ratio within a few percent while each swung by 40%.

So a timer signal runs a small fixed reference kernel every ``INTERVAL_S``
and records how long it took. A measured interval is then rescaled by the
reference kernel's mean duration around it, less the kernels run inside it:
the result is the time the interval would have taken on a machine where the
kernel takes ``NOMINAL_S`` when called from the timer, reported in seconds.
That is about the kernel's time on a 2.1 GHz x86-64 core running Python
3.11 with no other tenant competing, so nominal seconds come out close to
uncontended ones there. Rescaled, the run-to-run spread of the benchmark's
metrics fell to 1-14%. The kernel uses only the standard library, so no
change to proploc can move it.
"""

from __future__ import annotations

import signal
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

INTERVAL_S = 0.005
NOMINAL_S = 70e-6
WINDOW = 12  # kernels averaged for the speed around one sample


def reference_kernel():
    """The two kinds of work being timed: Fraction arithmetic with a dict
    (``core``, ``analysis``) and integer list sweeps (the axioms engine)."""
    x = Fraction(1, 3)
    for i in range(1, 7):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    counts = {}
    for v in sorted((i * 7919) % 101 for i in range(24)):
        counts[v] = counts.get(v, 0) + 1
    xs = [(i * 7919) % 1009 for i in range(40)]
    total = 0
    for a in xs:
        total += abs(3 * a - sum(xs[:8]))
    return x, counts, total + sorted(xs)[20]


class ReferenceClock:
    """Samples the reference kernel from SIGALRM while running.

    After the run, :meth:`nominal` integrates over an interval a speed that
    is constant between two samples: ``NOMINAL_S`` over the mean duration of
    the ``WINDOW`` kernels around them. It leaves out the time the kernels
    themselves ran and is additive over adjacent intervals, so a span's
    nominal self time never goes below zero.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._weights: list[float] = []  # nominal seconds per second, per sample
        self._cumulative: list[float] = []  # nominal work seconds before each sample

    def _tick(self, signum, frame):
        start = perf_counter()
        reference_kernel()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        count = len(self.durations)
        if not count:
            if exc[0] is None:
                raise RuntimeError("the reference clock took no samples")
            return False
        sums = [0.0, *accumulate(self.durations)]
        half = WINDOW // 2
        self._weights = []
        for index in range(count):
            low = max(0, min(index - half, count - WINDOW))
            high = min(count, low + WINDOW)
            self._weights.append(NOMINAL_S * (high - low) / (sums[high] - sums[low]))
        self._cumulative = [0.0]
        for index in range(count - 1):
            work = max(0.0, self.starts[index + 1] - self.starts[index] - self.durations[index])
            self._cumulative.append(self._cumulative[-1] + self._weights[index] * work)
        return False

    def _work(self, t: float) -> float:
        """Nominal work seconds from the first sample to ``t``."""
        index = bisect_right(self.starts, t) - 1
        if index < 0:
            return -self._weights[0] * (self.starts[0] - t)
        work = max(0.0, t - self.starts[index] - self.durations[index])
        if index + 1 < len(self.starts):
            work = min(work, self.starts[index + 1] - self.starts[index] - self.durations[index])
        return self._cumulative[index] + self._weights[index] * max(0.0, work)

    def nominal(self, start: float, end: float) -> float:
        """Seconds that ``[start, end]`` would take at the nominal speed."""
        return self._work(end) - self._work(start)
