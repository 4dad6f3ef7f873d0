"""Machine-speed calibration for timings on a shared host.

Other tenants of the shared host the benchmark was written on slow its CPU for
seconds to minutes at a time, with no steal time in ``/proc/stat``: about
1.45x for interpreter loops, 2x for allocation-heavy numpy work and 1.6x for
``locate``. A 20 s run can fall entirely inside such a stretch, and a 2 s
operation can straddle one. So while operations run, a SIGALRM handler
times a small fixed probe every PERIOD_S, and each timing is scaled by the
mean of REFERENCE_S / probe time over the readings taken during it. The
readings come at even steps of wall time, so that mean is the machine's
speed averaged over the timing, and a slow stretch inside a long operation
is weighted by its length (a median of the probe times would ignore a slow
stretch shorter than half the operation). The probe runs no radioloc
code and pauses the garbage collector, so a change to the program does not
move it; a neighbour moves both. ``clock`` excludes the handler's own time.
"""

from __future__ import annotations

import bisect
import csv
import gc
import io
import json
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# The probe's median time in the handler, between operations that ran at
# their quiet speed, on the 2-core Xeon virtual machine the benchmark was
# written on: timings are reported at that machine's quiet speed.
REFERENCE_S = 0.0007

_ROWS = [float(i) for i in range(150)]
_DOC = [{"x": 0.1 * i, "y": 0.2 * i, "kind": "virtual", "rss": [-50.5 - i % 7, None]}
        for i in range(20)]
_CSV = "".join(f"rp{i:03d},{0.1 * i!r},{0.2 * i!r},1.2,ap01,{-50.5 - i % 30!r},{i % 5}\n"
               for i in range(30))


def probe() -> float:
    """Seconds of a fixed mix of interpreter, small-array, JSON and CSV work."""
    was_enabled = gc.isenabled()
    gc.disable()  # the program's live objects must not change the probe's cost
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        stacked = np.array([np.full(7, v) for v in _ROWS])
        points = np.array([[v, 1.0, 2.0] for v in _ROWS])
        doc = json.loads(json.dumps(_DOC, indent=2))
        rows = [(r[0], float(r[1]), float(r[5]), int(r[6]))
                for r in csv.reader(io.StringIO(_CSV))]
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    del acc, stacked, points, doc, rows
    return elapsed


class SpeedSampler:
    """Probe readings taken from a timer signal while operations run."""

    def __init__(self):
        self.starts: list[float] = []
        self.readings: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.readings.append(probe())
        self.starts.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter time minus the time spent in the probe handler."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def scale(self, t0: float, t1: float) -> float:
        """Mean of REFERENCE_S / probe over the readings between perf_counter times t0 and t1.

        An interval too short to hold a reading takes the latest one before it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.readings[lo:hi] or self.readings[max(lo - 1, 0):lo] or [REFERENCE_S]
        return statistics.fmean(REFERENCE_S / reading for reading in inside)
