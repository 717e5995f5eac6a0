"""Graded automorphisms of the polynomial ring, and projective points.

An automorphism is an invertible (d+1) x (d+1) matrix A acting on the
ring by the linear substitution x_i -> sum_j A[j][i] x_j.  With that
convention apply(A, apply(B, f)) = apply(A B, f), and evaluation
satisfies

    apply(A, f)(P) = f(point_image(A, P)),   point_image(A, P) = A^T P.

The diagonal family diag(1, p_1, ..., p_d) (top-left entry normalized
to 1) is the case of interest.  A map is its int rows: ``images[i]`` is
the int row of den * phi(x_i) over the variables, with one denominator
``den``, kept canonical (gcd 1 and den > 0 over Q, den = 1 mod p), so
== and hash compare substitutions.  Scalars enter only through
``from_matrix`` and ``diagonal_family`` and leave only through
``entry``.  ``compose`` is ``apply_row`` of the other map's rows,
``inv`` one echelon of [M | I], and ``power`` w_i^n over den^n for a
diagonal map (read off the rows), else repeated squaring.

``apply_row(row, n)`` is den^n times the substitution on an int row,
through one image table per degree, each built from the table one
degree lower: the image of x_i times the image of the monomial over
x_i.  The degree-1 table is the map itself.  A diagonal map keeps one
int per column, the weight of the j-th monomial, reduced mod p at every
step and never normalised (diag(2, 4, 6) keeps its weights' common
factor), and multiplies each value by its column's weight in the row's
column order; any other map keeps the int row of each monomial's image
and sums the row's values times the image rows of its columns.  The
identity needs no table.  ``apply`` wraps it: phi(f) is ``apply_row``
of f's row over f's denominator times den^n, and no scalar is built.
Each table is built once per map and degree, outside ==, hash and repr,
and completely before the one store that publishes it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import Scalar, Value, int_row
from .linalg import Echelon, rank_rows
from .poly import HomogPoly, basis_dim, product_index, row_product

__all__ = ["AutoMap", "ProjPoint", "point_image"]


class AutoMap(Value):
    """An invertible linear substitution: the int rows of den * phi(x_i)."""

    def __init__(self, images: tuple, den: int, field):
        self.__dict__.update(images=images, den=den, field=field, _tables={})

    def _key(self) -> tuple:
        return (self.images, self.den, self.field)

    @staticmethod
    def _canonical(rows: Sequence[Sequence[tuple[int, int]]], den: int, field) -> "AutoMap":
        """x_i -> rows[i] / den, for int rows and a den > 0 (1 mod p), in
        canonical form: rows sorted, and gcd 1 with den over Q."""
        p = field.char
        if p:
            rows = [[(k, v % p) for k, v in r] for r in rows]
        else:
            g = gcd(den, *(v for r in rows for _, v in r))
            den //= g
            rows = [[(k, v // g) for k, v in r] for r in rows]
        return AutoMap(tuple(tuple(sorted((k, v) for k, v in r if v)) for r in rows), den, field)

    @staticmethod
    def from_matrix(rows: Sequence[Sequence[Scalar]], field) -> "AutoMap":
        mat = [tuple(r) for r in rows]
        n = len(mat)
        if any(len(r) != n for r in mat):
            raise ValueError("automorphism matrix must be square")
        den = lcm(*(x.denominator for r in mat for x in r))
        cols = [
            [(j, x.numerator * (den // x.denominator)) for j, r in enumerate(mat) if (x := r[i])]
            for i in range(n)
        ]
        auto = AutoMap._canonical(cols, den, field)
        if rank_rows(auto.images, n, field) < n:
            raise ValueError("automorphism matrix is singular")
        return auto

    @staticmethod
    def diagonal_family(multipliers: Sequence[Scalar], field) -> "AutoMap":
        """diag(1, p_1, ..., p_d): the normalized multiplier family."""
        diag = (field.one,) + tuple(multipliers)
        if any(not x for x in diag):
            raise ValueError("multipliers must be nonzero")
        n = len(diag)
        mat = [[x if i == j else 0 for j in range(n)] for i, x in enumerate(diag)]
        return AutoMap.from_matrix(mat, field)

    @staticmethod
    def identity(nvars: int, field) -> "AutoMap":
        return AutoMap(tuple(((i, 1),) for i in range(nvars)), 1, field)

    @property
    def nvars(self) -> int:
        return len(self.images)

    def entry(self, i: int, j: int) -> Scalar:
        """The matrix entry A[i][j], the coefficient of x_i in phi(x_j): an
        int, or a Fraction over Q when it is not integral."""
        v = dict(self.images[j]).get(i, 0)
        q = Fraction(v, self.den)
        return q.numerator if q.denominator == 1 else q

    def inv(self) -> "AutoMap":
        """The inverse, read off the canonical rows [I | lead_i M^-1] of
        [M | I], M the image rows: phi^-1(x_i) is den times row i of M^-1."""
        n = self.nvars
        ech = Echelon(2 * n, self.field)
        for i, r in enumerate(self.images):
            ech.insert(r + ((n + i, 1),))
        _, rows = ech.canonical_rows()
        common = lcm(*(r[0][1] for r in rows))
        scales = [self.den * common // r[0][1] for r in rows]
        return AutoMap._canonical(
            [[(k - n, s * v) for k, v in r[1:]] for s, r in zip(scales, rows)], common, self.field
        )

    def compose(self, other: "AutoMap") -> "AutoMap":
        """The map f -> self(other(f)), whose matrix is self's times other's."""
        rows = [self.apply_row(r, 1) for r in other.images]
        return AutoMap._canonical(rows, self.den * other.den, self.field)

    def power(self, n: int) -> "AutoMap":
        """The map f -> self^n(f) for any integer n, in closed form."""
        if n < 0:
            return self.inv().power(-n)
        if self._weights is not None:
            rows = [((i, w**n),) for i, w in enumerate(self._weights)]
            return AutoMap._canonical(rows, self.den**n, self.field)
        out, base = AutoMap.identity(self.nvars, self.field), self
        while n:
            if n & 1:
                out = out.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return out

    def is_identity(self) -> bool:
        return self.den == 1 and all(r == ((i, 1),) for i, r in enumerate(self.images))

    @cached_property
    def _identity(self) -> bool:
        """``is_identity()``, computed once: the identity needs no table."""
        return self.is_identity()

    @cached_property
    def _weights(self) -> tuple[int, ...] | None:
        """The w_i with den * phi(x_i) = w_i x_i for a diagonal map, else None."""
        if all(len(r) == 1 and r[0][0] == i for i, r in enumerate(self.images)):
            return tuple(r[0][1] for r in self.images)
        return None

    def apply_row(self, row: Iterable[tuple[int, int]], n: int) -> list[tuple[int, int]]:
        """den^n times the substitution applied to the degree-n polynomial
        with int row ``row`` (values reduced mod p), as an int row.  A
        diagonal map multiplies each value by its column's weight, in the
        row's column order; any other map sums the row's values times the
        image rows of its columns."""
        if self._identity:
            return list(row)
        table = self._image_table(n)
        p = self.field.char
        if self._weights is not None:
            if p:
                return [(j, v) for j, x in row if (v := x * table[j] % p)]
            return [(j, v) for j, x in row if (v := x * table[j])]
        out: dict[int, int] = {}
        for j, x in row:
            for k, a in table[j]:
                out[k] = out.get(k, 0) + x * a
        if p:
            return [(k, v % p) for k, v in out.items() if v % p]
        return [(k, v) for k, v in out.items() if v]

    def _image_table(self, n: int) -> tuple:
        """The images of the degree-n monomials under den * phi: the map's
        weights or rows at n = 1, else built once per degree from the table
        one degree lower, the image of a monomial being the image of x_i
        times the image of the monomial over x_i."""
        weights = self._weights
        if n <= 1:
            if n == 1:
                return self.images if weights is None else weights
            return (((0, 1),),) if weights is None else (1,)
        got = self._tables.get(n)
        if got is None:
            nvars, p = self.nvars, self.field.char
            prev, cols = self._image_table(n - 1), product_index(nvars, 1, n - 1)
            table: list = [None] * basis_dim(nvars, n)
            for i in range(nvars):
                for k, c in enumerate(cols[i]):
                    if table[c] is not None:
                        continue
                    if weights is None:
                        table[c] = tuple(row_product(self.images[i], prev[k], nvars, 1, n - 1, p))
                    else:
                        w = weights[i] * prev[k]
                        table[c] = w % p if p else w
            got = self._tables[n] = tuple(table)
        return got

    def apply(self, f: HomogPoly) -> HomogPoly:
        """The substitution x_i -> sum_j matrix[j][i] x_j applied to f:
        ``apply_row`` on f's row, over f's denominator times den^n."""
        if (f.nvars, f.char) != (self.nvars, self.field.char):
            raise ValueError("arity or characteristic mismatch")
        if f.is_zero() or f.degree == 0:
            return f
        n = f.degree
        return HomogPoly.from_row(f.nvars, n, self.apply_row(f.row, n), f.den * self.den**n, f.char)


class ProjPoint(Value):
    """A projective point stored by its canonical int coordinates: over Q
    primitive with positive first nonzero entry, mod p that entry 1."""

    def __init__(self, coords: tuple[int, ...]):
        self.__dict__.update(coords=coords)

    def _key(self) -> tuple:
        return (self.coords,)

    @staticmethod
    def make(coords: Sequence[Scalar], field) -> "ProjPoint":
        if not any(coords):
            raise ValueError("projective point needs a nonzero coordinate")
        ints, p = int_row(coords, field), field.char
        lead = ints[0][1]
        s = pow(lead, -1, p) if p else (1 if lead > 0 else -1)
        values = {k: v * s % p if p else v * s for k, v in ints}
        return ProjPoint(tuple(values.get(k, 0) for k in range(len(coords))))

    @property
    def nvars(self) -> int:
        return len(self.coords)

    def render(self, field) -> str:
        return "(" + " : ".join(field.render(x) for x in self.coords) + ")"


def point_image(auto: AutoMap, pt: ProjPoint) -> ProjPoint:
    """The point Q with apply(A, f)(P) = f(Q): the value of each image row
    at P, which den only scales."""
    c = pt.coords
    return ProjPoint.make([sum(x * c[j] for j, x in r) for r in auto.images], auto.field)
