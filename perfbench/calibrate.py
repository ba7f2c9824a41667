"""Machine-speed calibration for timings on a shared, noisy host.

On the shared 2-vCPU Xeon VM this benchmark was built on, one fixed
pure-Python loop took anywhere from 6.7 ms to 14 ms depending on the second
it ran in.
Slow and fast phases lasted seconds, and the two vCPUs' phases were nearly
independent (correlation 0.29), so a monitor on the other vCPU could not
track them.  Medians of raw wall times over a 30 s run spread by 30-44%
between runs, more than any bound a regression gate can use.

So a timed block runs under `Stopwatch`: a fixed short loop (the probe) runs
when the block starts, every INTERVAL_S while it runs (from a SIGALRM
handler, which is excluded from the block's time), and when it ends.  Each
stretch between two probes is rescaled to a reference speed,

    stretch at reference speed = stretch * REFERENCE_S / mean(probe before, probe after)

and the block's time is the sum.  REFERENCE_S is the probe's duration in
that host's fast phase, so the figures read as seconds on that machine when
nothing else competes for it.  The probe uses only the interpreter, so a
change to the program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0013
INTERVAL_S = 0.1


def _loop() -> int:
    # the operations tsn's solvers spend their time on: Fraction arithmetic,
    # dict and set updates, tuple sorting and a heap
    acc = Fraction(0)
    seen: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    members = set()
    for i in range(500):
        acc += Fraction(i % 7, 3)
        seen[i % 613] = seen.get(i % 613, 0) + i
        members.add((i * 7919) % 1009)
        heapq.heappush(heap, ((i * 31) % 97, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    order = sorted((v % 101, k) for k, v in seen.items())
    return len(order) + len(members) + int(acc > 0)


def probe() -> float:
    """Seconds the fixed loop takes right now (garbage collection off, so
    the probe never collects garbage on behalf of the timed code)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into seconds at
    the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)


def _edge_probe() -> float:
    # a job shorter than INTERVAL_S is rescaled by its two edge probes
    # alone, so each is the median of five to damp the probe's own jitter
    return sorted(probe() for _ in range(5))[2]


class Stopwatch:
    """Times a block in the main thread, in measured seconds (`seconds`) and
    in seconds at the reference speed (`reference_seconds`).  Uses SIGALRM;
    blocks must not nest."""

    def __enter__(self) -> "Stopwatch":
        self._marks = [(0.0, _edge_probe())]  # (block time so far, probe seconds)
        self._paused = 0.0
        self._stopped = False
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame) -> None:
        if self._stopped:
            return
        t = time.perf_counter()
        self._marks.append((t - self._start - self._paused, probe()))
        self._paused += time.perf_counter() - t

    def __exit__(self, *exc) -> None:
        self._stopped = True
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = end - self._start - self._paused
        marks = self._marks + [(self.seconds, _edge_probe())]
        self.probes = [p for _, p in marks]
        self.reference_seconds = sum(
            (t1 - t0) * scale(p0, p1) for (t0, p0), (t1, p1) in zip(marks, marks[1:]))
