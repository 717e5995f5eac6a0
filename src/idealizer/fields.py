"""Exact scalars: rationals and prime fields.

A scalar is a plain Python number.  Over the rationals it is an ``int``
or a ``Fraction``; the two mix exactly under ``+ - * ==`` and ``hash``,
so integer data stays ``int`` until a division makes a ``Fraction``.
Over GF(p) it is an ``int``, canonically the least residue in [0, p).

Every vector is a sparse int row: (column, value) pairs with distinct
columns and nonzero values, integers over the rationals and residues mod
p, reduced in ``HomogPoly.from_row`` (which every polynomial goes
through), ``poly.row_product`` and ``AutoMap.apply_row``.  A polynomial
is one such row over one denominator (``poly.HomogPoly``), an
automorphism one per variable over one denominator
(``automorphism.AutoMap``), and the matrix layer (``linalg``) runs on
them.  Scalars meet rows in few places:

- ``int_row`` converts a dense list of scalars into a row, up to a
  nonzero scale, its columns the list positions (points and evaluation
  values);
- ``HomogPoly.from_dict`` writes coefficients over one denominator, and
  ``HomogPoly.terms`` reads them back for printing;
- ``AutoMap.from_matrix`` writes a matrix over one denominator, and
  ``AutoMap.entry`` reads one entry back.

The rational field is the default everywhere.  A prime field is a field,
not a shortcut: every dimension computed over GF(p) is exact for the
ring over GF(p), and over its algebraic closure too, because rank does
not change under field extension.  Only the inference to characteristic
0 is heuristic (a dimension mod p can exceed the rational one), and the
reporting layer flags it as such.
"""

from __future__ import annotations

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
]

Scalar = Union[int, Fraction]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of the bases above (Sorenson and
# Webster, Math. Comp. 2017): Miller-Rabin on them is exact below it
_MR_BOUND = 3317044064679887385961981


class Frozen:
    """The base of the package's value classes.  ``__init__`` sets the
    attributes with one ``self.__dict__.update``; after that, assigning or
    deleting one raises ``AttributeError``.  ``cached_property`` stores
    into ``__dict__`` and still works."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class Value(Frozen):
    """A frozen class compared and hashed by its ``_key()`` tuple: equal
    only to an instance of the same class with an equal key."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 primes, exact for every
    n below ``_MR_BOUND``; at or above it no answer is proven, and a
    ``ValueError`` says so."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(
            "primality of %d is not decided: the test is exact below %d" % (n, _MR_BOUND)
        )
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


class RationalField(Value):
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

    def _key(self) -> tuple:
        return ()

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField(Value):
    """GF(p) for a prime p.

    Dimensions computed over it are exact over GF(p) and its algebraic
    closure; reading them as the rational ones is the heuristic step.
    """

    zero, one = 0, 1
    render = staticmethod(str)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("prime-field modulus must be prime, got %d" % p)
        self.__dict__.update(p=p)

    def _key(self) -> tuple:
        return (self.p,)

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

    def __repr__(self):
        return "GF(%d)" % self.p


def int_row(vec: Sequence[Scalar], field) -> list[tuple[int, int]]:
    """The nonzero scalars of a dense list as a sparse int row, keyed by
    position: the primitive positive multiple over Q, residues mod p."""
    p = field.char
    if p:
        return [(k, x % p) for k, x in enumerate(vec) if x % p]
    denom = lcm(*(x.denominator for x in vec))
    ints = [(k, x.numerator * (denom // x.denominator)) for k, x in enumerate(vec) if x]
    g = gcd(*(v for _, v in ints))
    return [(k, v // g) for k, v in ints] if g > 1 else ints


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
