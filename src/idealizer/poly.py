"""Homogeneous polynomials over a fixed, frozen monomial order.

A monomial is an exponent tuple of length ``nvars``.  Within each degree
the basis is ordered by descending lexicographic comparison of exponent
tuples, so for three variables in degree one the order is x0, x1, x2.
Every vector and matrix in the package is written over this order, and
it is never changed.

A ``HomogPoly`` is one sparse int row over one denominator, tagged with
its field characteristic.  The row is (column, value) pairs sorted by
column, the columns the basis indices of its degree, as every vector in
the package is (see ``fields``).  The form is canonical, so ``==`` and
``hash`` compare polynomials: over Q the denominator is positive and
its gcd with the values is 1, and mod p it is 1 and the values are
least residues.  ``HomogPoly.from_row`` makes that form, and every
constructor and operator builds its result there, so no operator builds
a ``Fraction``.  ``terms``, the (monomial, coefficient) pairs that
printing and ``coeff`` read, is derived on demand, and a
``Fraction`` is built only there; parsing reads ``Fraction``s and
``from_dict`` writes them over one denominator.  ``poly_to_vector`` is
the row made primitive over Q.  The ``*`` operator is the commutative
product of the underlying polynomial ring; twisted products live in the
ring objects, never here.

The ideal recursion, every twisted product of pieces (the right ideals,
IS, the idealizer's decomposable products and fT, all through
``TwistRing.product_rows``), the idealizer's constraint rows, the Ext
matrices, the two checks of twisted arithmetic (associativity and the
opposite-ring transport) and a non-diagonal ``AutoMap``'s image tables
multiply int rows, not polynomials, through one product, and the
evaluation row at a point (``monomial_values``) and a diagonal map's
weights are built degree by degree through it: ``product_index(nvars,
a, b)`` is the table of basis indices of m_i * m_j in degree a + b,
built lazily and cached.
It is built from integer codes: a monomial's code is the base-(a+b+1)
number whose digits are its exponents.  No exponent reaches the base,
so descending lex order is descending code order and the code of a
product is the sum of the codes of its factors; a table is one dict
from code to index in degree a + b and one addition and one lookup per
cell.  The codes are not cached: they are cheap next to the table.
``row_product`` multiplies two int rows over it, visiting only pairs of
nonzeros and summing into a dict, and ``times_monomial`` is its case of
a monomial factor: the columns of the other row moved through one table
row, its values untouched.  No full-width row is built.  ``*`` is
``row_product`` of the two rows over the product of the denominators;
it serves the polynomials that remain, such as ``TwistRing.mul``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Sequence

from .fields import Scalar, Value, int_row

__all__ = [
    "HomogPoly",
    "Mono",
    "basis_index",
    "format_poly",
    "mono_degree",
    "monomial_basis",
    "monomial_values",
    "monomials",
    "parse_poly",
    "product_index",
    "row_product",
    "times_monomial",
    "vanishes_at",
]

Mono = tuple[int, ...]


def mono_degree(m: Mono) -> int:
    return sum(m)


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[Mono, ...]:
    """All exponent tuples of the given degree, in the frozen order."""
    if degree < 0:
        return ()
    if nvars == 1:
        return ((degree,),)
    out: list[Mono] = []
    for e0 in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


def monomial_basis(d: int, n: int) -> tuple[Mono, ...]:
    """Degree-n monomial basis in d + 1 variables (coordinates of P^d)."""
    return monomials(d + 1, n)


@lru_cache(maxsize=None)
def basis_index(nvars: int, degree: int) -> dict[Mono, int]:
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


def basis_dim(nvars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return comb(degree + nvars - 1, nvars - 1)


def _codes(nvars: int, degree: int, base: int) -> list[int]:
    """Each monomial of the degree, in the frozen order, as the base-``base``
    number whose digits are its exponents."""
    out = []
    for m in monomials(nvars, degree):
        c = 0
        for e in m:
            c = c * base + e
        out.append(c)
    return out


@lru_cache(maxsize=None)
def product_index(nvars: int, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Row i, column j: the basis index of m_i * m_j in degree a + b, for
    m_i the i-th monomial of degree a and m_j the j-th of degree b.

    No exponent reaches the base a + b + 1, so the code of m_i * m_j is
    the sum of the codes of m_i and m_j: a cell is one addition and one
    lookup."""
    base = a + b + 1
    idx = {c: i for i, c in enumerate(_codes(nvars, a + b, base))}
    right = _codes(nvars, b, base)
    return tuple(tuple([idx[c + r] for r in right]) for c in _codes(nvars, a, base))


def row_product(
    u: Iterable[tuple[int, int]], v: Sequence[tuple[int, int]], nvars: int, a: int, b: int, p: int
) -> list[tuple[int, int]]:
    """The int row of f * g, for f of degree a with int row u and g of
    degree b with int row v, reduced mod p once at the end (p = 0: over Q).

    The product of the scales of u and v is the scale of the result.
    """
    table = product_index(nvars, a, b)
    out: dict[int, int] = {}
    for i, x in u:
        cols = table[i]
        for j, y in v:
            c = cols[j]
            out[c] = out.get(c, 0) + x * y
    if p:
        return [(c, s % p) for c, s in out.items() if s % p]
    return [(c, s) for c, s in out.items() if s]


def times_monomial(
    row: Iterable[tuple[int, int]], j: int, nvars: int, a: int, b: int
) -> list[tuple[int, int]]:
    """The int row of m_j * f, for m_j the j-th monomial of degree b and f
    of degree a with int row ``row``.

    Multiplying by a monomial is injective and keeps the monomial order,
    so the result has the values, the scale, the reduction and the
    column order of ``row``.
    """
    cols = product_index(nvars, b, a)[j]
    return [(cols[i], x) for i, x in row]


@lru_cache(maxsize=None)
def monomial_values(
    coords: tuple[Scalar, ...], field, degree: int
) -> tuple[tuple[int, int], ...]:
    """Values at coords of the degree-n monomials, in the frozen order.

    This int row is evaluation at the point as a functional on U_n, up
    to a nonzero scale; a column with a zero value is absent.  Degree 1
    is ``int_row(coords)``, the primitive positive multiple over Q, and
    degree n is degree n - 1 times each nonzero coordinate through
    ``product_index(nvars, 1, n - 1)``, one multiplication per
    (monomial, variable), reduced mod p at every step.  The degree-n
    monomials include each pure power c_i^n, so their values at a
    primitive vector have gcd 1: the row is the primitive positive
    multiple of the values at coords.
    """
    if degree == 1:
        return tuple(int_row(coords, field))
    if degree < 1:
        return ((0, 1),) if degree == 0 else ()
    prev, p = monomial_values(coords, field, degree - 1), field.char
    table = product_index(len(coords), 1, degree - 1)
    values: dict[int, int] = {}
    for i, c in monomial_values(coords, field, 1):
        cols = table[i]
        for k, x in prev:
            values[cols[k]] = x * c % p if p else x * c
    return tuple(sorted(values.items()))


def vanishes_at(f: HomogPoly, coords: tuple[Scalar, ...], field) -> bool:
    """Whether f vanishes at the point with these coordinates: f's int row
    times the evaluation row ``monomial_values`` is zero (mod p).  Both
    rows carry a nonzero scale, which vanishing does not see."""
    values = dict(monomial_values(coords, field, f.degree))
    s = sum(v * values.get(k, 0) for k, v in f.row)
    return not (s % field.char if field.char else s)


class HomogPoly(Value):
    """A homogeneous polynomial over the field of characteristic ``char``:
    the int row ``row`` over the denominator ``den``.

    The row is sparse and sorted by column, with no zero values.  It is
    kept canonical, so ``==`` and ``hash`` compare polynomials: over Q
    ``den`` is positive and its gcd with the values is 1, and mod p
    ``den`` is 1 and the values are least residues.  ``from_row`` makes
    that form, and every constructor and operator goes through it.
    ``terms``, the (monomial, coefficient) pairs, is derived on demand.
    """

    def __init__(self, nvars: int, degree: int, row: tuple, den: int, char: int):
        self.__dict__.update(nvars=nvars, degree=degree, row=row, den=den, char=char)

    def _key(self) -> tuple:
        return (self.nvars, self.degree, self.row, self.den, self.char)

    @staticmethod
    def from_row(
        nvars: int, degree: int, row: Iterable[tuple[int, int]], den: int, char: int
    ) -> "HomogPoly":
        """The polynomial row / den, for a nonzero int den, in canonical form."""
        if char:
            inv = pow(den, -1, char)
            vals = sorted((k, x) for k, v in row if (x := v * inv % char))
            return HomogPoly(nvars, degree, tuple(vals), 1, char)
        vals = sorted((k, v) for k, v in row if v)
        g = gcd(den, *(v for _, v in vals))
        if den < 0:
            g = -g
        if g != 1:
            vals = [(k, v // g) for k, v in vals]
        return HomogPoly(nvars, degree, tuple(vals), den // g, 0)

    @staticmethod
    def from_dict(
        nvars: int, degree: int, coeffs: Mapping[Mono, Scalar], char: int
    ) -> "HomogPoly":
        idx = basis_index(nvars, degree)
        for m in coeffs:
            if m in idx:
                continue
            if len(m) != nvars:
                raise ValueError("monomial %r has wrong arity" % (m,))
            if mono_degree(m) != degree:
                raise ValueError(
                    "term %r has degree %d, expected %d" % (m, mono_degree(m), degree)
                )
            raise ValueError("monomial %r has a negative exponent" % (m,))
        den = lcm(*(c.denominator for c in coeffs.values()))
        row = [(idx[m], c.numerator * (den // c.denominator)) for m, c in coeffs.items()]
        return HomogPoly.from_row(nvars, degree, row, den, char)

    @staticmethod
    def zero(nvars: int, degree: int, char: int) -> "HomogPoly":
        return HomogPoly.from_row(nvars, degree, (), 1, char)

    @staticmethod
    def variable(nvars: int, i: int, field) -> "HomogPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index %d out of range" % i)
        return HomogPoly.from_row(nvars, 1, ((i, 1),), 1, field.char)

    @staticmethod
    def monomial(mono: Mono, coeff: Scalar, char: int) -> "HomogPoly":
        return HomogPoly.from_dict(len(mono), mono_degree(mono), {mono: coeff}, char)

    @cached_property
    def terms(self) -> tuple[tuple[Mono, Scalar], ...]:
        """(monomial, coefficient) pairs in the frozen order; a ``Fraction``
        is built only here, for a coefficient over a denominator."""
        basis, den = monomials(self.nvars, self.degree), self.den
        return tuple((basis[k], Fraction(v, den) if den != 1 else v) for k, v in self.row)

    def is_zero(self) -> bool:
        return not self.row

    def coeff(self, mono: Mono, field) -> Scalar:
        return dict(self.terms).get(mono, field.zero)

    def _check_compatible(self, other: "HomogPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        if self.char != other.char:
            raise ValueError("mixed characteristics: %d vs %d" % (self.char, other.char))

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("adding degrees %d and %d" % (self.degree, other.degree))
        acc = {k: v * other.den for k, v in self.row}
        for k, v in other.row:
            acc[k] = acc.get(k, 0) + v * self.den
        return HomogPoly.from_row(
            self.nvars, self.degree, acc.items(), self.den * other.den, self.char
        )

    def __neg__(self) -> "HomogPoly":
        return self.scale(-1)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def scale(self, c: Scalar) -> "HomogPoly":
        row = [(k, v * c.numerator) for k, v in self.row]
        return HomogPoly.from_row(self.nvars, self.degree, row, self.den * c.denominator, self.char)

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        """Commutative product in the underlying polynomial ring:
        ``row_product`` of the rows over the product of the denominators.
        The factor of lower degree goes first, so f * g and g * f share
        one table."""
        self._check_compatible(other)
        f, g = (self, other) if self.degree <= other.degree else (other, self)
        n, a, b, p = self.nvars, f.degree, g.degree, self.char
        row = row_product(f.row, g.row, n, a, b, p)
        return HomogPoly.from_row(n, a + b, row, f.den * g.den, p)


def poly_to_vector(f: HomogPoly, field) -> list[tuple[int, int]]:
    """The int row of f in column order, made primitive over Q: a scale
    set by the coefficients alone."""
    row = f.row
    g = 0 if field.char else gcd(*(v for _, v in row))
    return [(k, v // g) for k, v in row] if g > 1 else list(row)


_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-])?\s*
    (?P<coeff>\d+(?:/\d+)?)?\s*
    (?P<vars>(?:\*?\s*x\d+(?:\^\d+)?\s*)*)
    """,
    re.VERBOSE,
)
_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly(text: str, nvars: int, field, degree: int | None = None) -> HomogPoly:
    """Parse a homogeneous polynomial such as ``x0 - 2*x1 + 1/3*x2``.

    Terms are ``[coeff][*]x<i>[^e]...`` joined by + and -.  Coefficients
    are integers or fractions a/b.  All terms must share one degree.
    """
    s = text.strip()
    if s in ("0", ""):
        if degree is None:
            raise ValueError("zero polynomial needs an explicit degree")
        return HomogPoly.zero(nvars, degree, field.char)
    acc: dict[Mono, Scalar] = {}
    seen_degree: int | None = None
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError("cannot parse %r at position %d" % (text, pos))
        sign, coeff_txt, vars_txt = m.group("sign"), m.group("coeff"), m.group("vars")
        if sign is None and not first:
            raise ValueError("missing +/- before position %d in %r" % (pos, text))
        if coeff_txt is None and not vars_txt.strip():
            raise ValueError("empty term in %r" % text)
        try:
            coeff = field.parse(coeff_txt) if coeff_txt else field.one
        except ZeroDivisionError as exc:
            raise ValueError("coefficient %s is not defined in %s" % (coeff_txt, field.name)) from exc
        if sign == "-":
            coeff = -coeff
        expts = [0] * nvars
        for vm in _VAR_RE.finditer(vars_txt):
            i = int(vm.group(1))
            e = int(vm.group(2)) if vm.group(2) else 1
            if i >= nvars:
                raise ValueError("variable x%d out of range (nvars=%d)" % (i, nvars))
            expts[i] += e
        mono = tuple(expts)
        deg = mono_degree(mono)
        if seen_degree is None:
            seen_degree = deg
        elif deg != seen_degree:
            raise ValueError(
                "inhomogeneous input %r: degrees %d and %d" % (text, seen_degree, deg)
            )
        prev = acc.get(mono)
        acc[mono] = coeff if prev is None else prev + coeff
        pos = m.end()
        first = False
    if degree is not None and seen_degree != degree:
        raise ValueError("parsed degree %d, expected %d" % (seen_degree, degree))
    return HomogPoly.from_dict(nvars, seen_degree, acc, field.char)


def _format_mono(m: Mono) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append("x%d" % i)
        elif e > 1:
            parts.append("x%d^%d" % (i, e))
    return "*".join(parts)


def format_poly(f: HomogPoly, field) -> str:
    """Canonical text form, the inverse of parse_poly on canonical input."""
    if f.is_zero():
        return "0"
    out: list[str] = []
    for m, c in f.terms:
        txt = field.render(c)
        neg = txt.startswith("-")
        if neg:
            txt = txt[1:]
        mono_txt = _format_mono(m)
        if mono_txt:
            body = mono_txt if txt == "1" else "%s*%s" % (txt, mono_txt)
        else:
            body = txt
        if not out:
            out.append("-" + body if neg else body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)
