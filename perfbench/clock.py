"""A clock in reference seconds, steady on a machine whose speed drifts.

On the two-core virtual machine this benchmark was written on, a fixed
pure-Python loop ran up to twice as slow for seconds to tens of seconds at
a time, with no steal time visible from inside, so raw round times of
identical code spread by 10-35% between runs.  While sampling, this clock
pauses the workload every ``PROBE_EVERY_S`` (a SIGALRM timer, so long
operations are sampled too) and has a separate probe process, pinned to the
same CPU as the workload, time a fixed loop.  The time between samples is
scaled by ``REFERENCE_PROBE_S / probe time``, so a result reads as seconds
on the same machine running at the probe's reference speed.  The probe runs
in its own small process so that its time depends on the machine alone, not
on the heap, caches or allocator state of the program being measured.  The
pauses are left out of every interval the clock measures.

Run as a script, this file is the probe process: it answers each byte read
from standard input with the best of ``PROBE_REPEATS`` probe times.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# Best probe time seen in the probe process on an unloaded reference machine.
REFERENCE_PROBE_S = 0.003
PROBE_EVERY_S = 0.25
PROBE_REPEATS = 3


def probe():
    """Tuple, list, dict and Fraction work, like the package's hot loops."""
    out = []
    acc = Fraction(0)
    for i in range(1, 1500):
        out.append((i, i * i, (i, -i)))
        acc += Fraction(i % 7, i % 5 + 1)
    return len({t[0]: t for t in out}), acc


def serve() -> None:
    """The probe process: one best-of-PROBE_REPEATS time per byte read."""
    for _ in range(5):
        probe()
    while sys.stdin.buffer.read(1):
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            begin = perf_counter()
            probe()
            best = min(best, perf_counter() - begin)
        sys.stdout.write(f"{best!r}\n")
        sys.stdout.flush()


class SpeedClock:
    """Workload time with probe pauses removed, and its scaled form.

    Pins this process and a probe process to one CPU until ``close``."""

    def __init__(self):
        self._paused = 0.0
        self._probing = False
        self._times = []
        self._factors = []
        self._cpus = os.sched_getaffinity(0)
        cpu = min(self._cpus)
        os.sched_setaffinity(0, {cpu})
        self._probe = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        os.sched_setaffinity(self._probe.pid, {cpu})
        self.calibrate()

    def close(self) -> None:
        """End the probe process and unpin this one."""
        self._probe.stdin.close()
        self._probe.wait()
        self._probe.stdout.close()
        os.sched_setaffinity(0, self._cpus)

    def now(self) -> float:
        """Seconds since an arbitrary origin, not counting probe pauses."""
        while True:
            paused = self._paused
            t = perf_counter()
            if paused == self._paused:  # no probe ran between the two reads
                return t - paused

    def calibrate(self, *_signal_args) -> None:
        """Time the probe now and record the speed factor at this instant."""
        if self._probing:
            return
        self._probing = True
        start = perf_counter()
        try:
            self._probe.stdin.write(b".")
            self._probe.stdin.flush()
            best = float(self._probe.stdout.readline())
            self._times.append(start - self._paused)
            self._factors.append(REFERENCE_PROBE_S / best)
        finally:
            self._paused += perf_counter() - start
            self._probing = False

    @contextmanager
    def sampling(self):
        """Probe at entry, every PROBE_EVERY_S while inside, and at exit."""
        self.calibrate()
        previous = signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.calibrate()

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds in [a, b]: the integral of the speed factor,
        linear between probes and constant beyond the first and last."""
        times, factors = self._times, self._factors

        def factor(t: float) -> float:
            i = bisect_right(times, t)
            if i == 0:
                return factors[0]
            if i == len(times):
                return factors[-1]
            t0, t1 = times[i - 1], times[i]
            f0, f1 = factors[i - 1], factors[i]
            return f0 + (f1 - f0) * (t - t0) / (t1 - t0) if t1 > t0 else f1

        cuts = [a, *times[bisect_right(times, a):bisect_left(times, b)], b]
        return sum(
            (hi - lo) * (factor(lo) + factor(hi)) / 2 for lo, hi in zip(cuts, cuts[1:])
        )


if __name__ == "__main__":
    serve()
