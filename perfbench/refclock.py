"""A clock that runs at a reference core speed, for timing on a shared host.

Other tenants of a shared host slow this machine's cores by up to about 1.7x,
in phases lasting from a fraction of a second to minutes, and CPU time slows
with wall time.  Neither the best nor the median of raw pass times is then
steady from run to run.  A :class:`ReferenceClock` measures the core's speed
all through a run instead: every SLICE_S seconds a timer signal runs a fixed
probe (pure-Python work over bitmask posets, the same kind of work the program
does), and each slice of time between two probes is scaled by
PROBE_REFERENCE_S over the mean time of those two probes.  Time spent in the
probes counts as zero.  :meth:`ReferenceClock.elapsed` converts any
``perf_counter`` interval of the run into reference seconds: the seconds it
would have taken on a core that runs the probe in PROBE_REFERENCE_S.
"""

from __future__ import annotations

import gc
import random
import signal
from bisect import bisect_right
from time import perf_counter

import queries

SLICE_S = 0.1
# the probe's time on an unloaded core of a 2-CPU Xeon host, Python 3.11.7
PROBE_REFERENCE_S = 0.004


def _probe_posets() -> list[list[int]]:
    rng = random.Random(20240521)
    return [queries.random_levelled(rng, 12, rng.randint(1, 6)) for _ in range(100)]


_PROBE_POSETS = _probe_posets()


def probe_work() -> dict:
    table: dict[tuple[int, ...], int] = {}
    for up in _PROBE_POSETS:
        key = tuple(sorted(up))
        table[key] = table.get(key, 0) + sum(queries.f_vector(up))
    return table


class ReferenceClock:
    """Use as a context manager around the run; convert intervals after it."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._rates: list[float] = []
        self._cum: list[float] = []
        self._previous = None

    def _probe(self) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection inside the probe would time the program's garbage
        start = perf_counter()
        probe_work()
        self.probes.append((start, perf_counter()))
        if collecting:
            gc.enable()

    def _on_timer(self, signum, frame) -> None:
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        # slice k runs from the end of probe k to the start of probe k + 1
        total = 0.0
        for (a0, a1), (b0, b1) in zip(self.probes, self.probes[1:]):
            rate = PROBE_REFERENCE_S / ((a1 - a0 + b1 - b0) / 2)
            self._starts.append(a1)
            self._ends.append(b0)
            self._rates.append(rate)
            self._cum.append(total)
            total += (b0 - a1) * rate

    def _at(self, t: float) -> float:
        """Reference seconds from the first probe's end to ``t``."""
        k = bisect_right(self._starts, t) - 1
        if k < 0:
            return 0.0
        return self._cum[k] + (min(t, self._ends[k]) - self._starts[k]) * self._rates[k]

    def elapsed(self, start: float, end: float) -> float:
        return self._at(end) - self._at(start)

    def probe_times(self) -> list[float]:
        return [end - start for start, end in self.probes]
