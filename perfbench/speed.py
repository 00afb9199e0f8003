"""Host-speed calibration for timings on a shared machine.

The hosts this benchmark runs on share their cores with other tenants,
and the speed of a fixed CPU-bound loop drifts by up to 1.9x over
seconds; process CPU time drifts with it, so the slowdown is not time
stolen while descheduled but slower execution.  Such drift is common to
all pure-Python work, so each measured interval is scaled by the speed
of a fixed reference loop timed next to it.

A :class:`SpeedMeter` runs that loop from a SIGALRM handler every
``PERIOD_S`` of wall time while it is active, and records when each
sample ran and how long it took.  ``scaled`` turns a raw interval into
seconds at reference speed: the interval minus the samples that ran
inside it, times ``REF_S`` over the mean sample time near it.  When the
host runs as fast as it did when ``REF_S`` was fixed, scaled seconds
equal wall seconds; the loop is the benchmark's own code, so a change to
the program does not move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
# speed of an interval: the samples within this much of it
WINDOW_S = 0.1
# Time of one sample on the 2-core x86-64 host where the baseline in
# README.md was taken (Python 3.11), in its fast spells.
REF_S = 0.00090
ROUNDS = 4000


def _toggle(a: int, b: int) -> int:
    return (a | b) & ~(a & b)


def reference_work(rounds: int = ROUNDS) -> int:
    """A fixed mix of calls, bit operations and set updates.  Of the
    loops tried, this one's slowdowns tracked the solver's and the
    enumerator's most closely."""
    seen: set[int] = set()
    acc = 0
    for i in range(rounds):
        acc = _toggle(acc, i * 2654435761 & 0xFFFF)
        if acc & 3 == 0:
            seen.add(acc & 255)
    return len(seen)


class SpeedMeter:
    """Samples the host's speed while active (``with`` block)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._saved = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedMeter":
        self._on_alarm(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._on_alarm(None, None)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds at reference speed of the work done in [t0, t1].

        Samples that started inside the interval ran inside it (the
        handler interrupts the work), so their time is taken out.  The
        speed is the mean over the samples that started within
        ``WINDOW_S`` of the interval, so that one sample's jitter does
        not set a short interval's time.
        """
        starts = self.starts
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        work = (t1 - t0) - sum(self.durations[lo:hi])
        near = self.durations[bisect.bisect_left(starts, t0 - WINDOW_S):
                              bisect.bisect_left(starts, t1 + WINDOW_S)]
        return work * REF_S * len(near) / sum(near)

    def median_sample(self) -> float:
        return statistics.median(self.durations)
