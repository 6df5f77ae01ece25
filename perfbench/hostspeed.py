"""Host speed, read from reference work timed next to the program's.

On a shared host the same single-threaded code runs at two speeds, about
1.9x apart, switching between them in phases that last from a quarter of a
second to minutes.  Process CPU time moves with wall time, so the slowdown
is in the CPU's speed, not in waiting for it.  A 20-s run sees a few such
phases, and two sets of ten runs of the same code can then differ by more
than a bound of 25 %.

So the benchmark keeps a reference clock.  Every `PERIOD_S` of wall time a
timer signal interrupts the program and times a reference task (fixed
pure-Python exact arithmetic, the kind of work metriclie does; it imports
nothing from metriclie).  The clock then advances the wall time since the
last tick, scaled by `REF_S / (the median of the last three task times)`.
Time spent in the task itself is left out of both clocks.  A call timed on
the reference clock takes the seconds it would take on a host where the
task takes `REF_S`: a change to metriclie moves it in full, a change in the
host's speed mostly not.  `run.py` prints the wall-clock figures as well.

`setup_s` needs another reference.  Starting an interpreter, loading
numpy's shared libraries and importing metriclie tracks the reference task
poorly: across its phases a start took about task time ** 0.4, and it
drifted by a third between runs at times when the task did not.  A bare
start that imports numpy tracks it well (their ratio spread 0.12 between
single starts, the start alone 0.22), so each timed start is scaled by
`START_REF_S / (the mean of such a start just before and just after it)`.
"""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction as Q

# About the time of `reference_task` on the host the reference figures in
# README.md come from (2 cores, Python 3.11.7) in its faster phase: 1.0 ms
# there, against 1.6 ms in the slower one.
REF_S = 0.001
PERIOD_S = 0.05
# The reference start, and about its wall time on the same host.
START_REF_CODE = "import numpy"
START_REF_S = 0.14


def reference_task():
    acc = Q(0)
    seen = {}
    for i in range(1, 160):
        x = Q(i % 7 + 1, i % 11 + 1) * Q(3, i % 5 + 2) - Q(i % 13, 17)
        acc += x
        seen[(i % 37, i % 41)] = x
    return acc, len(seen)


def probe():
    """Wall time of one reference task, with the cyclic garbage collector
    held off so that it does not charge the program's garbage to the task."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    reference_task()
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t1 - t0


class ReferenceClock:
    """`now()` gives (reference seconds, wall seconds), both without the time
    spent in the reference task; they advance only while the clock runs.
    The tick may run between any two bytecodes of the program, so the
    clock's state is one tuple, read and replaced whole: (reference and
    wall seconds up to `mark`, `mark` = wall time of the last tick or None
    while stopped, reference seconds per wall second)."""

    def __init__(self):
        self.recent = deque(maxlen=3)
        self.state = (0.0, 0.0, None, None)
        self.busy = False

    def _rate(self):
        self.recent.append(probe())
        return REF_S / sorted(self.recent)[len(self.recent) // 2]

    def _tick(self, signum, frame):
        if self.busy:   # a tick that fired inside this one
            return
        self.busy = True
        t = time.perf_counter()
        ref, wall, mark, _ = self.state
        # the segment just ended is charged at the rate of the probes
        # around its end
        rate = self._rate()
        self.state = (ref + (t - mark) * rate, wall + t - mark,
                      time.perf_counter(), rate)
        self.busy = False

    def start(self):
        for _ in range(self.recent.maxlen):
            rate = self._rate()
        ref, wall, _, _ = self.state
        self.state = (ref, wall, time.perf_counter(), rate)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        ref, wall = self.now()
        self.state = (ref, wall, None, None)

    def now(self):
        ref, wall, mark, rate = self.state
        dt = time.perf_counter() - mark
        return ref + dt * rate, wall + dt

    def reference(self):
        """Reference seconds alone, for timing spans."""
        ref, _, mark, rate = self.state
        return ref + (time.perf_counter() - mark) * rate


def timed_start(args):
    """Wall time of a fresh interpreter run with `args`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True)
    return time.perf_counter() - t0


def scaled_start(args):
    """(reference, wall) seconds of a fresh interpreter run with `args`,
    between two reference starts."""
    before = timed_start(["-c", START_REF_CODE])
    wall = timed_start(args)
    after = timed_start(["-c", START_REF_CODE])
    return wall * START_REF_S / ((before + after) / 2), wall
