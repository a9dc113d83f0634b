"""Calibration: how fast the host is right now, from code outside the library.

Machine speed drifts by 10-30% within seconds on a shared host.  A fixed
calibration runs between chunks of operations, and every operation's time
is reported at the reference speed: raw time * reference / (mean of the
calibrations just before and just after its chunk).  Set-up is scaled the
same way, by calibrations just before the process starts and just after
its set-up ends.

Standard library only, so the launcher can calibrate without importing the
library under test.
"""

from __future__ import annotations

import subprocess
import sys
import time

# The calibration is a pure-Python loop that shares no code with the
# library but does the same kind of work, dense polynomial products mod m
# inside 2x2 matrix products, so it slows down with the same neighbours.
# The operations of ``cli`` are process starts, and the loop does not track
# their cost well, so ``cli`` is calibrated by one bare ``python -c pass``
# start instead.
#
# References are about the median calibration times on a 2-vCPU Intel Xeon
# container with CPython 3.11.7.  They are constants, so scaled figures from
# different commits are comparable.

CALIB_REF_S = 0.0150
SPAWN_REF_S = 0.0600
CALIB_REPS = 20


class _Dense:
    """A stand-in dense polynomial mod m for the calibration loop."""

    __slots__ = ("c", "m")

    def __init__(self, cs, m):
        cs = [int(x) % m for x in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.c, self.m = tuple(cs), m

    def __mul__(self, other):
        cs = [0] * max(len(self.c) + len(other.c) - 1, 0)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    cs[i + j] += x * y
        return _Dense(cs, self.m)

    def __add__(self, other):
        cs = [0] * max(len(self.c), len(other.c))
        for i, x in enumerate(self.c):
            cs[i] += x
        for i, x in enumerate(other.c):
            cs[i] += x
        return _Dense(cs, self.m)


def _calib_kernel(m: int = 101, rounds: int = 12):
    a = (_Dense([1, 2, 3], m), _Dense([5, 0, 1], m), _Dense([7, 1], m), _Dense([1, 4, 4, 2], m))
    for r in range(rounds):
        b = (_Dense([r, 1, 2], m), _Dense([3, r], m), _Dense([1, 1, r, 1], m), _Dense([2, 5], m))
        a = (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
             a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])
        a = tuple(_Dense(x.c[:6], m) for x in a)
    return a


def calibrate() -> float:
    t0 = time.perf_counter()
    for _ in range(CALIB_REPS):
        _calib_kernel()
    return time.perf_counter() - t0


def calibrate_spawn() -> float:
    t0 = time.perf_counter()
    # capture_output: with a timeout and no pipes, subprocess polls with
    # growing sleeps and the measured time snaps to a few fixed values.
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


def calibration(name: str):
    """(calibration function, its reference time, seconds of operations
    between two calibrations) for a workload."""
    if name == "cli":
        return calibrate_spawn, SPAWN_REF_S, 0.6
    return calibrate, CALIB_REF_S, 0.3


