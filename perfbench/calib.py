"""Fixed, stdlib-only calibration loop and the sampler that interleaves it.

The loop exercises the same interpreter paths the suite leans on (big-int
gcd, ``Fraction`` arithmetic, dict and tuple churn, small-int row
operations mod p, small-object allocation) and nothing from the package
under test, so a change to the program can never move it.  Its time
gives the machine speed at that moment; wall times are normalised to a
reference machine by ``wall * CALIB_REF_S / calib_s``.

On a shared 2-CPU VM the speed of a fixed 3 s computation varies by about
10% from one run to the next, and one pass before and one after a 10 s
suite tracks it poorly.  ``BurstSampler`` instead runs a short burst of
the loop every ``interval`` seconds *during* the measured interval (from
a ``SIGALRM`` handler, in the same process), and subtracts the bursts'
own time from the measured wall.  Normalised this way, that variation
fell to about 3.5% over Q and over GF(p) alike.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from math import gcd

ROUNDS = 9000
BURST_ROUNDS = 400
BURST_INTERVAL_S = 0.2
PRIME = 10007

# About the median ``calib_s`` of this loop on the reference machine
# (2-CPU x86-64 VM, Python 3.11); normalised times read in its seconds.
CALIB_REF_S = 0.25


class _Residue:
    """A small value object, allocated on every round like a field scalar."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __mul__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.value * other.value % PRIME)


def calibration_work(rounds: int = ROUNDS) -> int:
    """Deterministic work; returns a checksum so nothing is optimised away.

    Each round does one of each of the suite's hot operations: a row
    operation mod p, a fraction-free big-integer row operation with gcd
    normalisation, ``Fraction`` arithmetic, a monomial-dict lookup with
    tuple churn, and a small-object multiply.
    """
    width = 48
    base = [(7 * k * k + 3) % PRIME for k in range(width)]
    mirrored = base[::-1]
    big = [(3**40 + 11 * k) * (2**25 - k) for k in range(width)]
    monomials = {(a, b, 8 - a - b): a * 9 + b for a in range(9) for b in range(9 - a)}
    keys = list(monomials)
    check = 0
    residue = _Residue(5)
    for i in range(rounds):
        v = (i * 31 + 1) % PRIME
        row = [(x - v * y) % PRIME for x, y in zip(base, mirrored)]
        a, b = big[i % width] | 1, big[(i * 7) % width] + i
        g = gcd(a, b)
        ma, mb = a // g, b // g
        g = 0
        for x in [ma * x - mb * y for x, y in zip(big[:12], big[12:24])]:
            g = gcd(g, x)
        f = Fraction(i % 97 + 1, i % 89 + 2) * Fraction(i % 13 + 3, i % 11 + 1) + Fraction(1, i + 1)
        key = keys[i % len(keys)]
        shifted = tuple(e + (i & 1) for e in key)
        check ^= monomials[key] + len(shifted) + row[i % width] + (g & 255) + f.denominator % 7
        residue = residue * _Residue(i % PRIME or 1)
    return check ^ residue.value


def calibrate() -> float:
    """Wall seconds for one full pass of the calibration loop."""
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


class BurstSampler:
    """Context manager timing calibration bursts while a computation runs.

    One burst runs on entry, one on exit, and one on every ``SIGALRM``
    in between.  ``wall_s`` is the block's wall time less the bursts run
    inside it; ``calib_s`` scales the mean burst to a full pass.
    """

    def __init__(self, interval: float = BURST_INTERVAL_S, rounds: int = BURST_ROUNDS):
        self.interval = interval
        self.rounds = rounds
        self.bursts: list[float] = []
        self.wall_s = 0.0
        self._inside_s = 0.0
        self._inside = False
        self._started = 0.0
        self._previous = None

    def _burst(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        calibration_work(self.rounds)
        spent = time.perf_counter() - start
        self.bursts.append(spent)
        if self._inside:
            self._inside_s += spent

    def __enter__(self) -> "BurstSampler":
        self._burst()
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        self._inside = True
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # A burst that fired after the block but before the timer stopped
        # is in both terms, so it cancels.
        self.wall_s = time.perf_counter() - self._started - self._inside_s
        self._inside = False
        signal.signal(signal.SIGALRM, self._previous)
        self._burst()

    @property
    def calib_s(self) -> float:
        return statistics.fmean(self.bursts) * ROUNDS / self.rounds
