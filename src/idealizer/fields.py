"""Exact scalars: rationals and prime fields.

A scalar is a plain Python number.  Over the rationals it is an ``int``
or a ``Fraction``; the two mix exactly under ``+ - * ==`` and ``hash``,
so integer data stays ``int`` until a division makes a ``Fraction``.
Over GF(p) it is an ``int``, canonically the least residue in [0, p).

Sums and products of GF(p) scalars are plain integer arithmetic, so they
leave [0, p) until reduced.  The field object owns reduction and
division: ``reduce(x)`` is the identity over Q and ``x % p`` mod p, and
``inv(x)`` is the exact inverse, raising ``ZeroDivisionError`` on zero.
Polynomials reduce in one place, ``HomogPoly.from_dict``; the few sums
and products made outside polynomials (``AutoMap.compose``,
``linalg.mat_mul``/``mat_vec``, ``HomogPoly.evaluate``) call ``reduce``.

The matrix layer (``linalg``) runs on int rows, integers over the
rationals and residues mod p.  ``int_row`` converts scalars into one, up
to a nonzero scale, and ``scalar_row`` converts an int row over a common
denominator back, exactly.

The rational field is the default everywhere.  Prime fields exist as a
modular mode that bounds coefficient size; any conclusion drawn mod p is
heuristic (dimensions can drop on specialization) and is flagged as such
by the reporting layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

__all__ = [
    "QQ",
    "PrimeField",
    "RationalField",
    "Scalar",
    "int_row",
    "is_prime",
    "scalar_row",
]

Scalar = Union[int, Fraction]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """The field of arbitrary-precision rationals (characteristic 0)."""

    char = 0
    name = "rational"
    zero, one = 0, 1
    render = staticmethod(str)

    def from_int(self, n: int) -> int:
        return n

    def from_fraction(self, q: Fraction) -> Scalar:
        q = Fraction(q)
        return q.numerator if q.denominator == 1 else q

    def parse(self, text: str) -> Fraction:
        return Fraction(text.strip())

    def reduce(self, x: Scalar) -> Scalar:
        return x

    def inv(self, x: Scalar) -> Fraction:
        return Fraction(1, x)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p.  A heuristic surrogate for the rationals."""

    p: int
    zero, one = 0, 1
    render = staticmethod(str)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("prime-field modulus must be prime, got %d" % self.p)

    @property
    def char(self) -> int:
        return self.p

    @property
    def name(self) -> str:
        return "prime:%d" % self.p

    def from_int(self, n: int) -> int:
        return n % self.p

    def from_fraction(self, q: Fraction) -> int:
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(
                "denominator %d not invertible mod %d" % (q.denominator, self.p)
            )
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def parse(self, text: str) -> int:
        return self.from_fraction(Fraction(text.strip()))

    def reduce(self, x: int) -> int:
        return x % self.p

    def inv(self, x: int) -> int:
        if not x % self.p:
            raise ZeroDivisionError("inverting zero in GF(%d)" % self.p)
        return pow(x, -1, self.p)

    def __repr__(self):
        return "GF(%d)" % self.p


def int_row(vec: Sequence[Scalar], field) -> list[int]:
    """The scalars as an int row: the primitive positive multiple over Q, residues mod p."""
    p = field.char
    if p:
        return [x % p for x in vec]
    denom = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def scalar_row(row: Sequence[int], field, denom: int) -> tuple[Scalar, ...]:
    """The exact scalars row / denom, for a nonzero int denom."""
    p = field.char
    if p:
        inv = pow(denom, -1, p)
        return tuple(v * inv % p for v in row)
    if denom == 1:
        return tuple(row)
    return tuple(Fraction(v, denom) if v else 0 for v in row)


def field_from_name(name: str):
    """Build a field from its config string, "rational" or "prime:<p>"."""
    if name == "rational":
        return QQ
    if name.startswith("prime:"):
        try:
            p = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError("bad prime-field spec %r" % name) from exc
        return PrimeField(p)
    raise ValueError("unknown field %r (expected 'rational' or 'prime:<p>')" % name)
