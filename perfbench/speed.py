"""The machine's current speed, sampled between and during timed intervals.

On a shared machine the same code runs up to 1.8 times as slow from one
second to the next, and for minutes at a time, while neighbours are
busy.  A fixed kernel of interpreter work is timed every PROBE_EVERY_S:
between the measured intervals, and inside an operation from a SIGALRM
handler, which runs in the main thread between bytecodes.  The time the
handler takes is cut out of the operation, and each remaining piece is
divided by the slowdown of the samples that bracket it: the last one
before it, any inside it and the first one after it.  So a six-second
operation is judged by the speed while it ran, not by the speed before
and after it.  The machine's speed changes within a tenth of a second,
so the nearest samples judge a piece better than a wider median does.
Timings come out in seconds of a machine on which the kernel takes
REFERENCE_PROBE_S.  A change to the program does
not touch the kernel, so it shows in full.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 0.001
KERNEL_REPEATS = 3


def _kernel() -> int:
    """Interpreter work of the kinds the package does: small-int loops,
    tuples, dict stores and a bigint product."""
    table = {}
    total = 0
    for i in range(4000):
        total += i * i % 7
        table[i & 127] = (i, total)
    product = 1
    for k in range(2, 600):
        product *= k
    return total + product.bit_length() + len(table)


class SpeedProbe:
    """Samples of the kernel's time, each the fastest of KERNEL_REPEATS runs.

    Call ``maybe`` right before every measured interval and ``sample``
    after the last one, so every interval has samples close by.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []
        self.pauses: list[tuple[float, float]] = []  # handler runs, to cut out

    def sample(self) -> None:
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
        self.samples.append(best)
        self.times.append(perf_counter())

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= PROBE_EVERY_S

    def maybe(self) -> None:
        if self.due():
            self.sample()

    @contextlib.contextmanager
    def inside(self):
        """Also sample every PROBE_EVERY_S while the block runs.

        The block must not call ``sample`` itself: the handler appends
        to the same lists.
        """
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.sample()
        self.pauses.append((start, perf_counter()))

    def slowdown(self, start: float, end: float) -> float:
        """The kernel's slowdown over [start, end]: the median of the samples
        from the last one taken before it to the first one taken after it."""
        lo = max(bisect_right(self.times, start) - 1, 0)
        hi = bisect_left(self.times, end) + 1
        return statistics.median(self.samples[lo:hi]) / REFERENCE_PROBE_S

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """Seconds of [start, end] without the probe's pauses: raw, and scaled piecewise."""
        raw = scaled = 0.0
        edge = start
        first = bisect_left(self.pauses, (start,))
        for pause_start, pause_end in self.pauses[first:] + [(end, end)]:
            if pause_start > end:
                pause_start = pause_end = end
            if pause_start > edge:
                raw += pause_start - edge
                scaled += (pause_start - edge) / self.slowdown(edge, pause_start)
            edge = max(edge, pause_end)
            if edge >= end:
                break
        return raw, scaled


class NoProbe:
    """Stands in for SpeedProbe where timings stay raw (traced passes)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        pass

    def due(self) -> bool:
        return False

    def maybe(self) -> None:
        pass

    def inside(self):
        return contextlib.nullcontext()

    def slowdown(self, start: float, end: float) -> float:
        return 1.0

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        return end - start, end - start
