"""Exact scalar arithmetic: rationals and prime fields.

Scalars are plain value objects supporting Python's arithmetic operators
(``Fraction`` for the rationals, ``Residue`` for a prime field), so the
polynomial layer never branches on the field.  A field object carries
construction, parsing, and rendering, plus the characteristic, which
keys the one elimination engine.

The matrix layer (``linalg``) runs on int rows instead, integers over
the rationals and residues mod p.  ``int_row`` converts scalars into one,
up to a nonzero scale, and ``scalar_row`` converts back, exactly.

The rational field is the default everywhere.  Prime fields exist as a
fast mode for large experiments; any conclusion drawn mod p is heuristic
(dimensions can drop on specialization) and is flagged as such by the
reporting layer.
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
    "Residue",
    "Scalar",
    "int_row",
    "is_prime",
    "scalar_row",
]

Scalar = Union[Fraction, "Residue"]

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


@dataclass(frozen=True, slots=True)
class Residue:
    """An element of GF(p), stored as the least nonnegative representative."""

    value: int
    modulus: int

    def _check(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli: %d vs %d" % (self.modulus, other.modulus))

    def _wrap(self, v: int) -> "Residue":
        return Residue(v % self.modulus, self.modulus)

    def __add__(self, other):
        if isinstance(other, int):
            return self._wrap(self.value + other)
        self._check(other)
        return self._wrap(self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self._wrap(self.value - other)
        self._check(other)
        return self._wrap(self.value - other.value)

    def __rsub__(self, other):
        if isinstance(other, int):
            return self._wrap(other - self.value)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self.value * other)
        self._check(other)
        return self._wrap(self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self._wrap(other)
        self._check(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.modulus)
        return self._wrap(self.value * pow(other.value, -1, self.modulus))

    def __pow__(self, e: int):
        if e < 0:
            if self.value == 0:
                raise ZeroDivisionError("inverting zero in GF(%d)" % self.modulus)
            return self._wrap(pow(pow(self.value, -1, self.modulus), -e, self.modulus))
        return self._wrap(pow(self.value, e, self.modulus))

    def __neg__(self):
        return self._wrap(-self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus
        if isinstance(other, Residue):
            return self.modulus == other.modulus and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return "%d" % self.value


@dataclass(frozen=True)
class RationalField:
    """The field of arbitrary-precision rationals (characteristic 0)."""

    @property
    def char(self) -> int:
        return 0

    @property
    def name(self) -> str:
        return "rational"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_fraction(self, q: Fraction) -> Fraction:
        return Fraction(q)

    def parse(self, text: str) -> Fraction:
        return Fraction(text.strip())

    def render(self, x: Fraction) -> str:
        return str(x)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p.  A fast heuristic surrogate for the rationals."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("prime-field modulus must be prime, got %d" % self.p)

    @property
    def char(self) -> int:
        return self.p

    @property
    def name(self) -> str:
        return "prime:%d" % self.p

    @property
    def zero(self) -> Residue:
        return Residue(0, self.p)

    @property
    def one(self) -> Residue:
        return Residue(1, self.p)

    def from_int(self, n: int) -> Residue:
        return Residue(n % self.p, self.p)

    def from_fraction(self, q: Fraction) -> Residue:
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(
                "denominator %d not invertible mod %d" % (q.denominator, self.p)
            )
        return Residue(q.numerator * pow(q.denominator, -1, self.p) % self.p, self.p)

    def parse(self, text: str) -> Residue:
        return self.from_fraction(Fraction(text.strip()))

    def render(self, x: Residue) -> str:
        return str(x.value)

    def __repr__(self):
        return "GF(%d)" % self.p


def int_row(vec: Sequence[Scalar], field) -> list[int]:
    """The scalars as an int row: the primitive positive multiple over Q, residues mod p."""
    if field.char:
        return [x.value for x in vec]
    denom = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def scalar_row(row: Sequence[int], field, denom: int) -> tuple[Scalar, ...]:
    """The exact scalars row / denom, for a nonzero int denom."""
    p, zero = field.char, field.zero  # rows are sparse; zeros share one object
    if p:
        inv = pow(denom, -1, p)
        return tuple(Residue(v * inv % p, p) if v else zero for v in row)
    return tuple(Fraction(v, denom) if v else zero for v in row)


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
