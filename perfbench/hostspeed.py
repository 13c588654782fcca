"""Host-normalized timing.

The sandbox this benchmark was built on runs the same pure-Python loop at two
speeds about 1.7x apart, switching many times a second, and it has no
hardware counters.  So every timed quantity is reported as its wall time
multiplied by the mean of R_NOM / r over reference samples r taken just
before, during and just after it; values then read as seconds or milliseconds
at a nominal host speed.

A reference sample is one run of a short pure-Python loop that does the kind
of float work the program does (a Python call per step into a closure that
evaluates a clamped power of a sine, a division and an accumulation, as in
needlecomp's density callables and grid checks).  It does not call needlecomp.
During the timed work a SIGALRM interval timer takes a sample every
SAMPLE_INTERVAL_S from a signal handler, between bytecodes of whatever runs;
the time those samples take is subtracted from the wall time.  R_NOM is the
sample's time at the nominal speed.
"""

from __future__ import annotations

import math
import signal
import time

SAMPLE_STEPS = 100
SAMPLE_INTERVAL_S = 0.0005
# Samples taken on each side of a timed quantity.
EDGE_SAMPLES = 3
# Reference-sample time at the nominal host speed, in seconds.
R_NOM = 50e-6


def reference_loop(steps: int = SAMPLE_STEPS) -> float:
    """Run the reference loop and return its wall time in seconds."""
    power = 1.5
    density = lambda r: max(math.sin(r), 0.0) ** power
    start = time.perf_counter()
    acc = 0.0
    x = 0.1
    for _ in range(steps):
        acc += density(x) / (1.0 + x * x)
        x += 0.001
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise AssertionError("reference loop produced no work")
    return elapsed


class Clock:
    """Times quantities back to back with reference samples around and inside.

    The samples after one quantity are the ones before the next.  Only one
    Clock may be timing at a time in a process (it owns SIGALRM).
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S):
        self.interval_s = interval_s
        self._edge = [reference_loop() for _ in range(EDGE_SAMPLES)]
        self._inside: list[float] | None = None
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self._inside is not None:
            self._inside.append(reference_loop())

    def time(self, fn, *args):
        """Call fn(*args); return (result, raw seconds, normalized seconds).

        Raw seconds exclude the time of the samples taken inside."""
        inside: list[float] = []
        self._inside = inside
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._inside = None
        after = [reference_loop() for _ in range(EDGE_SAMPLES)]
        samples = self._edge + inside + after
        self._edge = after
        raw = elapsed - sum(inside)
        speed = sum(R_NOM / r for r in samples) / len(samples)
        return result, raw, raw * speed


def percentile_summary(values: list[float]) -> dict:
    """Median, the tail (the value with exactly ten values above it, i.e. the
    highest percentile that has at least ten samples beyond it) and count."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    median = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    out = {"n": n, "median": median, "tail": None, "tail_percentile": None}
    if n >= 40:
        out["tail"] = ordered[n - 11]
        out["tail_percentile"] = 100.0 * (n - 10) / n
    return out
