"""Machine speed sampled during a run, to express timings in reference units.

The benchmark shares a few cores of a busy host.  Other tenants slow every
instruction by up to about 60% for stretches of seconds to minutes, much
longer than a pass, so neither more passes nor best-of-N make timings of
one run comparable with another.  ``SpeedSampler`` therefore interrupts the
workload every ``INTERVAL_S`` of wall time (``SIGALRM``) and times one run
of a fixed reference kernel: exact integer and ``Fraction`` arithmetic on
dicts of exponent tuples and on matrix rows, the same kind of work as
``semicov.poly`` and ``semicov.linalg``, but frozen in the benchmark so no
change to ``src/`` can alter it.  ``cost`` converts a stretch of the
workload's wall time into reference units ("ref"): how many runs of the
kernel the same stretch would have held, at the speed the machine had at
that moment.  One ref is about ``REF_S`` = 1.5 ms on the reference machine
when it is quiet, and ``ref * REF_S`` is a time in seconds at that speed.

The handler touches only its own data and draws no random numbers, so the
workload's reports stay byte-identical (the golden check confirms this).
"""
from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

perf = time.perf_counter

INTERVAL_S = 0.05
REF_S = 0.0015  # median kernel time on the quiet reference machine

_POLY = {(i, j, (i * j) % 3): i - j + 1 for i in range(6) for j in range(6)}
_ROWS = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(7)]
         for i in range(7)]


def reference_kernel() -> None:
    """Square a 36-term polynomial, then eliminate a 7x7 Fraction matrix."""
    out: dict = {}
    for ea, ca in _POLY.items():
        for eb, cb in _POLY.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    rows = [r[:] for r in _ROWS]
    n = len(rows)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]


class SpeedSampler:
    """Context manager: runs the kernel every INTERVAL_S and keeps
    ``starts`` and ``durations`` of those runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def sample(self) -> None:
        """Run and time the kernel once; a tick that lands inside is dropped."""
        self._busy = True
        t0 = perf()
        reference_kernel()
        self.durations.append(perf() - t0)
        self.starts.append(t0)
        self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:
            self.sample()

    def __enter__(self):
        reference_kernel()  # warm-up, not recorded
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def cost(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, ref) of the workload between ``start`` and ``end``.

        Seconds leave out the kernel runs inside the interval.  Ref
        multiplies them by the mean speed (kernel runs per second) of the
        samples taken inside it or within one interval of either end."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        seconds = end - start - sum(self.durations[i:j])
        lo = bisect.bisect_left(self.starts, start - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, end + INTERVAL_S)
        near = self.durations[lo:hi]
        if not near:
            raise RuntimeError("no speed sample near %.3f-%.3f s" % (start, end))
        return seconds, seconds * sum(1.0 / d for d in near) / len(near)
