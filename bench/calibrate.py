"""Calibration loop that measures how fast the machine runs Python right now.

On the shared reference machine the speed of pure-Python code drifts by up
to a third within seconds and over tens of seconds (a fixed 5 M-iteration
loop took 0.47-0.82 s in back-to-back trials), and CPU time drifts with wall
time, so neither removes the drift.  The benchmark therefore runs this probe
before the first report and after every report, and states each report's
time at the reference speed: its measured seconds times REFERENCE_S over the
mean of the probes right before and right after it.  The raw seconds are
kept in each run's result file.

The probe runs in a helper process that does nothing else, so that the state
loopsing leaves in its own process (heap, caches) does not enter the probe
time; the caller waits for the answer, so the two never run at once, and
both are kept on one CPU.  The probe does what loopsing's exact arithmetic
does: it multiplies sparse polynomials with tuple exponents and Fraction
coefficients and sorts the terms with a comparison function.  Over 200 s of
repeated passes of the same 168 functional reports, the spread of the
passes' median report time was 0.23 raw and 0.015 at reference speed.  The probe must not
change, or times before and after the change are no longer comparable.

Run as a script, it answers each line on standard input with one probe time.
"""

from __future__ import annotations

import functools
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Mean time of probe() between reports on the reference machine (2 vCPUs,
# Intel Xeon, CPython 3.11.7).
REFERENCE_S = 0.011

# Two sparse polynomials in four variables: exponent tuple -> coefficient.
_LEFT = tuple(
    ((i % 4, (i * 7) % 5, (i * 3) % 4, i % 3), Fraction(i + 1, i % 5 + 1)) for i in range(24)
)
_RIGHT = tuple(
    (((i * 5) % 4, i % 3, (i * 2) % 5, (i * 11) % 4), Fraction(2 * i - 7, i % 3 + 1))
    for i in range(24)
)


def _compare(a, b) -> int:
    """Graded reverse lexicographic order on (exponents, coefficient) items."""
    da, db = sum(a[0]), sum(b[0])
    if da != db:
        return -1 if da < db else 1
    for x, y in zip(reversed(a[0]), reversed(b[0])):
        if x != y:
            return 1 if x < y else -1
    return 0


_ORDER = functools.cmp_to_key(_compare)


def probe() -> float:
    """Seconds taken to multiply two fixed polynomials twice and sort the terms."""
    started = time.perf_counter()
    for _ in range(2):
        product: dict[tuple[int, ...], Fraction] = {}
        for ma, ca in _LEFT:
            for mb, cb in _RIGHT:
                mono = tuple(x + y for x, y in zip(ma, mb))
                product[mono] = product.get(mono, Fraction(0)) + ca * cb
        sorted(product.items(), key=_ORDER)
    return time.perf_counter() - started


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on a single CPU.

    The probe helper then measures the CPU the reports run on; with two
    CPUs of different speed the two could otherwise differ for a whole run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Calibrator:
    """A probe helper process; use as a context manager."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def measure(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        self.probes.append(float(self._helper.stdout.readline()))
        return self.probes[-1]

    def scale(self) -> float:
        """Factor converting seconds of the whole run to reference speed."""
        return REFERENCE_S / statistics.fmean(self.probes)

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


def at_reference_speed(seconds: list[float], probes: list[float]) -> list[float]:
    """Seconds at reference speed; probes[i] and probes[i + 1] bracket seconds[i]."""
    return [
        s * 2 * REFERENCE_S / (before + after)
        for s, before, after in zip(seconds, probes, probes[1:])
    ]


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(probe()), flush=True)
