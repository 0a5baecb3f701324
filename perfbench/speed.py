"""Machine-speed correction for timings taken on a CPU whose speed drifts.

On a shared virtual machine one vCPU can run at half speed for seconds to
minutes at a time (another tenant on its sibling hyperthread, or a frequency
change), and the two vCPUs of a 2-vCPU box drift nearly independently.  The
wall and CPU time of one CPU-bound child then spread by about 30% between
runs, with no performance counters to fall back on.

``SpeedSentinel`` is a thread that runs on the same pinned CPU as the
children and, every ``PERIOD_S``, measures the thread CPU time of one fixed
unit of ``Fraction`` arithmetic, the program's dominant cost.  The child's
progress rate follows the unit's, so a stretch of wall time is worth
``dt * NOMINAL_UNIT_NS / unit_ns`` seconds at nominal speed, and
``factor(t0, t1)`` is the mean of that ratio over the samples in [t0, t1].
On the reference machine the sentinel's samples correlate at 0.93 with the
duration of a fixed piece of work, and the correction cut that work's
run-to-run spread from 0.30 to 0.09 at 0.2 s and further for longer spans.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from fractions import Fraction

PERIOD_S = 0.1
# CPU cost of one unit on the reference machine (a 2-vCPU Intel Xeon VM,
# CPython 3.11) when it runs at full speed; corrected times are seconds at
# that speed.  About 1% of the CPU goes to the sentinel.
NOMINAL_UNIT_NS = 900_000


def unit() -> Fraction:
    s = Fraction(0)
    for i in range(1, 401):
        s += Fraction(i % 13, i % 11 + 1)
    return s


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every thread and child it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSentinel:
    """Context manager: samples the unit's CPU cost until it exits."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (CLOCK_MONOTONIC ns, unit CPU ns)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sentinel", daemon=True)

    def __enter__(self) -> "SpeedSentinel":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            c0 = time.thread_time_ns()
            unit()
            cost = time.thread_time_ns() - c0
            self.samples.append((time.clock_gettime_ns(time.CLOCK_MONOTONIC), cost))

    def factor(self, t0_ns: int, t1_ns: int) -> float:
        """Nominal-speed seconds per wall second over [t0, t1]; the window is
        widened by one period on each side so that a short span has a sample."""
        pad = int(PERIOD_S * 1e9)
        samples = self.samples[:]  # the thread only appends
        i = bisect.bisect_left(samples, t0_ns - pad, key=lambda s: s[0])
        j = bisect.bisect_right(samples, t1_ns + pad, key=lambda s: s[0])
        costs = [c for _, c in samples[i:j]] or [c for _, c in samples[-1:]]
        if not costs:
            raise RuntimeError("the speed sentinel took no sample")
        return sum(NOMINAL_UNIT_NS / c for c in costs) / len(costs)
