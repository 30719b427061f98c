"""The host speed probe: timings stated at a reference host speed.

The hosts this benchmark runs on are shared, and their speed drifts.
On one 2-vCPU Xeon VM, with nothing else running in the container, the
same fixed pure-Python loop takes anywhere from 22 to 40 ms within ten
minutes, and at a finer grain its speed changes from second to second.
A run of 20 seconds cannot average out spells that last minutes, so
the wall times of two runs of the same code differ by more than the
bounds the benchmark sets.

So every timed run also measures the host: it times a fixed
calibration unit (:func:`_unit`, this file's own code, which runs no
``repro`` code and allocates no object the garbage collector tracks,
so the program's heap does not change what a unit costs) about every
``INTERVAL`` seconds.  :meth:`SpeedProbe.scale` states a wall time at
reference speed: it multiplies it by the reference unit time over the
mean unit time of the units run during it, or during the ``WINDOW``
seconds around it if it is shorter.  That is the time it would have
taken on a host where one unit takes ``REFERENCE_UNIT_S``.  The report
prints the wall values next to the scaled ones.

In-process workloads time the units on a background thread, which
samples the host inside their long requests too.  A unit takes 1 to 2
ms, under CPython's 5 ms thread switch interval, so it runs without
being interrupted; the request waits for the GIL meanwhile, so the
probe adds 2 to 4% to in-process wall times.  The probe assumes the
program under test leaves no thread of its own busy in the benchmark
process.  The serve-edit client instead times a unit between two
requests (:meth:`SpeedProbe.tick`), while the daemon is idle: a
thread holding the GIL when an answer arrives would add its unit to
that answer's latency.
"""

import bisect
import threading
import time
from statistics import median

#: What one calibration unit takes on the reference host, in seconds.
#: Any fixed value serves; this one is close to what a unit takes on
#: the VM the benchmark was sized on, so scaled timings read close to
#: wall timings there.
REFERENCE_UNIT_S = 0.0015
#: Seconds between two calibration units.
INTERVAL = 0.05
#: A timing is scaled by the units of at least this many seconds
#: around it (about 20 units).
WINDOW = 1.0
#: Unit times beyond this multiple of the run's median are dropped
#: before the mean: a unit the scheduler preempted says nothing about
#: the host's speed.
OUTLIER = 3.0


class _Node:
    __slots__ = ("key", "count")

    def __init__(self, key):
        self.key = key
        self.count = 0


_SIZE = 1021
_NODES = tuple(_Node(key) for key in range(_SIZE))
_TABLE = dict.fromkeys(range(_SIZE), 0)


def _unit(n=3500):
    """One calibration unit: arithmetic, attribute access, dict updates
    and small strings over preallocated objects, like the interpreter
    and compiler loops it stands in for."""
    total = 0
    for i in range(n):
        node = _NODES[(i * 7919) % _SIZE]
        node.count += 1
        _TABLE[node.key] = _TABLE[node.key] + (node.count & 7)
        if i % 3 == 0:
            total += len(str(node.key))
    return total


class SpeedProbe:
    """Calibration units timed across one run; see the module docstring.

    With ``thread`` set, a background thread times a unit every
    ``INTERVAL`` seconds while the ``with`` block runs.  Without it, the
    timed loop calls :meth:`tick` between two requests.
    """

    def __init__(self, thread=True):
        #: ``(start, seconds)`` of every unit, in time order.
        self.units = []
        self._stop = threading.Event()
        self._thread = None
        if thread:
            self._thread = threading.Thread(target=self._run, daemon=True)
        self._starts = []
        self._limit = None

    def _run(self):
        while not self._stop.wait(INTERVAL):
            self._time_unit()

    def _time_unit(self):
        start = time.perf_counter()
        _unit()
        self.units.append((start, time.perf_counter() - start))

    def tick(self):
        """Between two requests: time a unit if ``INTERVAL`` has passed
        since the last one ended."""
        if not self.units or (time.perf_counter() - sum(self.units[-1])
                              >= INTERVAL):
            self._time_unit()

    def __enter__(self):
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        self._starts = [start for start, _took in self.units]
        self._limit = OUTLIER * median(took for _start, took in self.units)

    def unit_s(self, start=None, end=None):
        """Mean time of the units started between *start* and *end*
        (the whole run if not given), preempted units left out; None if
        there are none."""
        low = 0 if start is None else bisect.bisect_left(self._starts, start)
        high = (len(self.units) if end is None
                else bisect.bisect_right(self._starts, end))
        kept = [took for _start, took in self.units[low:high]
                if took <= self._limit]
        return sum(kept) / len(kept) if kept else None

    def factor(self):
        """The whole run's reference unit time over its mean unit time."""
        return REFERENCE_UNIT_S / self.unit_s()

    def scale(self, start, seconds):
        """*seconds* of wall time from *start*, at reference speed: times
        the reference unit time over the mean unit time of the units run
        during it, or during the ``WINDOW`` seconds around it if it is
        shorter than that."""
        half = max(WINDOW, seconds) / 2
        middle = start + seconds / 2
        unit = self.unit_s(middle - half, middle + half) or self.unit_s()
        return seconds * REFERENCE_UNIT_S / unit
