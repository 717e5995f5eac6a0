"""Homogeneous polynomials over a fixed, frozen monomial order.

A monomial is an exponent tuple of length ``nvars``.  Within each degree
the basis is ordered by descending lexicographic comparison of exponent
tuples, so for three variables in degree one the order is x0, x1, x2.
Every vector and matrix in the package is written over this order, and
it is never changed.

A ``HomogPoly`` is a sparse sorted tuple of (monomial, coefficient)
pairs with no zero coefficients, tagged with its field characteristic.
The ``*`` operator is the commutative product of the underlying
polynomial ring; twisted products live in the ring objects, never here.

The ideal recursion, the right ideals and the Ext matrices multiply int
rows, not polynomials, through one product: ``product_index(nvars, a,
b)`` is the table of basis indices of m_i * m_j in degree a + b, built
lazily and cached, ``row_product`` multiplies two int rows over it, and
``times_monomial`` is its case of a monomial factor, a scatter of the
other row.  ``*`` remains for the checks of polynomial arithmetic
itself: associativity, the opposite-ring transport and ``AutoMap.apply``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Mapping, Sequence

from .fields import Scalar, int_row

__all__ = [
    "HomogPoly",
    "Mono",
    "basis_index",
    "format_poly",
    "mono_degree",
    "mono_mul",
    "monomial_basis",
    "monomial_values",
    "monomials",
    "parse_poly",
    "product_index",
    "row_product",
    "times_monomial",
]

Mono = tuple[int, ...]


def mono_degree(m: Mono) -> int:
    return sum(m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


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


@lru_cache(maxsize=None)
def product_index(nvars: int, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Row i, column j: the basis index of m_i * m_j in degree a + b, for
    m_i the i-th monomial of degree a and m_j the j-th of degree b."""
    idx = basis_index(nvars, a + b)
    right = monomials(nvars, b)
    return tuple(tuple(idx[mono_mul(m, r)] for r in right) for m in monomials(nvars, a))


def row_product(
    u: Sequence[int], v: Sequence[int], nvars: int, a: int, b: int, p: int
) -> list[int]:
    """The int row of f * g, for f of degree a with int row u and g of
    degree b with int row v, reduced mod p once at the end (p = 0: over Q).

    The product of the scales of u and v is the scale of the result.
    """
    table = product_index(nvars, a, b)
    out = [0] * basis_dim(nvars, a + b)
    right = [(j, y) for j, y in enumerate(v) if y]
    for x, cols in zip(u, table):
        if x:
            for j, y in right:
                out[cols[j]] += x * y
    return [c % p for c in out] if p else out


def times_monomial(row: Sequence[int], j: int, nvars: int, a: int, b: int) -> list[int]:
    """The int row of m_j * f, for m_j the j-th monomial of degree b and f
    of degree a with int row ``row``.

    It is a scatter of ``row``, so it keeps the scale and the reduction
    of ``row``.
    """
    cols = product_index(nvars, b, a)[j]
    out = [0] * basis_dim(nvars, a + b)
    for i, x in enumerate(row):
        if x:
            out[cols[i]] = x
    return out


@lru_cache(maxsize=None)
def monomial_values(coords: tuple[Scalar, ...], field, degree: int) -> tuple[int, ...]:
    """Values at coords of the degree-n monomials, in the frozen order.

    This int row is evaluation at the point as a functional on U_n, up
    to a nonzero scale.
    """
    values = []
    for mono in monomials(len(coords), degree):
        v = field.one
        for x, e in zip(coords, mono):
            if e:
                v = v * x**e
        values.append(v)
    return tuple(int_row(values, field))


@dataclass(frozen=True)
class HomogPoly:
    """A homogeneous polynomial over the field of characteristic ``char``.

    Terms are sorted and sparse, with no zero coefficients; mod p every
    coefficient is a least residue.  ``from_dict`` is the one place that
    reduces and drops zeros, and every operator builds its result there.
    """

    nvars: int
    degree: int
    terms: tuple[tuple[Mono, Scalar], ...]
    char: int

    def __post_init__(self):
        for m, c in self.terms:
            if len(m) != self.nvars:
                raise ValueError("monomial %r has wrong arity" % (m,))
            if mono_degree(m) != self.degree:
                raise ValueError(
                    "term %r has degree %d, expected %d"
                    % (m, mono_degree(m), self.degree)
                )

    @staticmethod
    def from_dict(
        nvars: int, degree: int, coeffs: Mapping[Mono, Scalar], char: int
    ) -> "HomogPoly":
        items = sorted(coeffs.items(), reverse=True)
        if char:
            items = [(m, c % char) for m, c in items]
        return HomogPoly(nvars, degree, tuple((m, c) for m, c in items if c), char)

    @staticmethod
    def zero(nvars: int, degree: int, char: int) -> "HomogPoly":
        return HomogPoly(nvars, degree, (), char)

    @staticmethod
    def variable(nvars: int, i: int, field) -> "HomogPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index %d out of range" % i)
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return HomogPoly(nvars, 1, ((mono, field.one),), field.char)

    @staticmethod
    def monomial(mono: Mono, coeff: Scalar, char: int) -> "HomogPoly":
        return HomogPoly.from_dict(len(mono), mono_degree(mono), {mono: coeff}, char)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Mono, field) -> Scalar:
        for m, c in self.terms:
            if m == mono:
                return c
        return field.zero

    def _check_compatible(self, other: "HomogPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        if self.char != other.char:
            raise ValueError("mixed characteristics: %d vs %d" % (self.char, other.char))

    def _from_coeffs(self, degree: int, coeffs: Mapping[Mono, Scalar]) -> "HomogPoly":
        return HomogPoly.from_dict(self.nvars, degree, coeffs, self.char)

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("adding degrees %d and %d" % (self.degree, other.degree))
        acc = dict(self.terms)
        for m, c in other.terms:
            s = acc.get(m)
            acc[m] = c if s is None else s + c
        return self._from_coeffs(self.degree, acc)

    def __neg__(self) -> "HomogPoly":
        return self._from_coeffs(self.degree, {m: -c for m, c in self.terms})

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def scale(self, c: Scalar) -> "HomogPoly":
        return self._from_coeffs(self.degree, {m: c * a for m, a in self.terms})

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        """Commutative product in the underlying polynomial ring."""
        self._check_compatible(other)
        acc: dict[Mono, Scalar] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                c = c1 * c2
                s = acc.get(m)
                acc[m] = c if s is None else s + c
        return self._from_coeffs(self.degree + other.degree, acc)

    def evaluate(self, coords: Sequence[Scalar], field) -> Scalar:
        """Value at an affine coordinate tuple (not scale-invariant)."""
        if len(coords) != self.nvars:
            raise ValueError("point has %d coordinates, expected %d" % (len(coords), self.nvars))
        total = field.zero
        for m, c in self.terms:
            v = c
            for x, e in zip(coords, m):
                if e:
                    v = v * x**e
            total = total + v
        return field.reduce(total)


def poly_to_vector(f: HomogPoly, field) -> list[int]:
    """The coefficients of f as an int row, up to a scale set by the coefficients alone."""
    idx = basis_index(f.nvars, f.degree)
    row = [0] * len(idx)
    for (m, _), v in zip(f.terms, int_row([c for _, c in f.terms], field)):
        row[idx[m]] = v
    return row


def vector_to_poly(vec: Sequence[Scalar], nvars: int, degree: int, char: int) -> HomogPoly:
    basis = monomials(nvars, degree)
    if len(vec) != len(basis):
        raise ValueError("vector length %d, basis size %d" % (len(vec), len(basis)))
    return HomogPoly.from_dict(nvars, degree, dict(zip(basis, vec)), char)


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
        coeff = field.parse(coeff_txt) if coeff_txt else field.one
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
