"""Graded automorphisms of the polynomial ring, and projective points.

An automorphism is an invertible (d+1) x (d+1) matrix A acting on the
ring by the linear substitution x_i -> sum_j A[j][i] x_j.  With that
convention apply(A, apply(B, f)) = apply(A B, f), and evaluation
satisfies

    apply(A, f)(P) = f(point_image(A, P)),   point_image(A, P) = A^T P.

The diagonal family diag(1, p_1, ..., p_d) (top-left entry normalized
to 1) is the case of interest.  A map acts on int rows: it has one
denominator ``den``, the lcm of its entries' denominators over Q (1 mod
p), and one image table per degree under den * matrix, each built from
the table one degree lower: the image of x_i times the image of the
monomial over x_i.  A diagonal map keeps one int per column, the weight
of the j-th monomial, a column scale times a weight one degree lower,
reduced mod p at every step and never normalised (diag(2, 4, 6) keeps
its weights' common factor), and ``apply_row`` multiplies each value by
its column's weight in the row's column order.  Any other map keeps the
int row of the j-th monomial's image, and ``apply_row`` sums the row's
values times the image rows of its columns.  Either way
``apply_row(row, n)`` is den^n times the substitution on an int row,
and the identity needs no table.  ``apply`` wraps it: a polynomial is
already an int row over a denominator, so phi(f) is ``apply_row`` of
f's row over f's denominator times den^n, and no scalar is built.
Each table is built once per map and degree, outside ==, hash and repr,
and completely before the one store that publishes it.  power(n) is
closed-form: one power per diagonal entry, else repeated squaring of the
matrix and its inverse.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .fields import Scalar, Value, int_row, scalar_row
from .linalg import invert_matrix, mat_mul, mat_vec
from .poly import HomogPoly, basis_dim, product_index, row_product

__all__ = ["AutoMap", "ProjPoint", "point_image"]


class AutoMap(Value):
    """An invertible linear substitution, with its inverse precomputed."""

    def __init__(
        self,
        matrix: tuple[tuple[Scalar, ...], ...],
        inverse: tuple[tuple[Scalar, ...], ...],
        field,
        diagonal: tuple[Scalar, ...] | None = None,
    ):
        self.__dict__.update(
            matrix=matrix, inverse=inverse, field=field, diagonal=diagonal, _tables={}
        )

    def _key(self) -> tuple:
        return (self.matrix, self.inverse, self.field, self.diagonal)

    @staticmethod
    def from_matrix(rows: Sequence[Sequence[Scalar]], field) -> "AutoMap":
        mat = tuple(tuple(r) for r in rows)
        n = len(mat)
        if any(len(r) != n for r in mat):
            raise ValueError("automorphism matrix must be square")
        inv = invert_matrix(mat, field)
        if inv is None:
            raise ValueError("automorphism matrix is singular")
        diag = None
        if all(not mat[i][j] for i in range(n) for j in range(n) if i != j):
            diag = tuple(mat[i][i] for i in range(n))
        return AutoMap(mat, tuple(tuple(r) for r in inv), field, diag)

    @staticmethod
    def diagonal_family(multipliers: Sequence[Scalar], field) -> "AutoMap":
        """diag(1, p_1, ..., p_d): the normalized multiplier family."""
        diag = (field.one,) + tuple(multipliers)
        if any(not x for x in diag):
            raise ValueError("multipliers must be nonzero")
        return AutoMap._from_diagonal(diag, field)

    @staticmethod
    def _from_diagonal(diag: tuple[Scalar, ...], field) -> "AutoMap":
        n = len(diag)
        zero = field.zero
        mat = tuple(
            tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n)
        )
        inv = tuple(
            tuple(field.inv(diag[i]) if i == j else zero for j in range(n))
            for i in range(n)
        )
        return AutoMap(mat, inv, field, diag)

    @staticmethod
    def identity(nvars: int, field) -> "AutoMap":
        return AutoMap.diagonal_family([field.one] * (nvars - 1), field)

    @property
    def nvars(self) -> int:
        return len(self.matrix)

    def inv(self) -> "AutoMap":
        diag = None
        if self.diagonal is not None:
            diag = tuple(self.field.inv(x) for x in self.diagonal)
        return AutoMap(self.inverse, self.matrix, self.field, diag)

    def compose(self, other: "AutoMap") -> "AutoMap":
        """The map f -> self(other(f)), whose matrix is self.matrix @ other.matrix."""
        mat = mat_mul(self.matrix, other.matrix, self.field)
        inv = mat_mul(other.inverse, self.inverse, self.field)
        diag = None
        if self.diagonal is not None and other.diagonal is not None:
            diag = tuple(self.field.reduce(a * b) for a, b in zip(self.diagonal, other.diagonal))
        return AutoMap(
            tuple(tuple(r) for r in mat), tuple(tuple(r) for r in inv), self.field, diag
        )

    def power(self, n: int) -> "AutoMap":
        """The map f -> self^n(f) for any integer n, in closed form."""
        if n < 0:
            return self.inv().power(-n)
        if self.diagonal is not None:
            p = self.field.char
            diag = tuple(pow(x, n, p) if p else x**n for x in self.diagonal)
            return AutoMap._from_diagonal(diag, self.field)
        out, base = AutoMap.identity(self.nvars, self.field), self
        while n:
            if n & 1:
                out = out.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return out

    def is_identity(self) -> bool:
        one, zero = self.field.one, self.field.zero
        n = self.nvars
        return all(
            self.matrix[i][j] == (one if i == j else zero)
            for i in range(n)
            for j in range(n)
        )

    @cached_property
    def den(self) -> int:
        """The one denominator: the lcm of the entries' denominators (1 mod p)."""
        return lcm(*(x.denominator for r in self.matrix for x in r))

    @cached_property
    def _identity(self) -> bool:
        """``is_identity()``, computed once: the identity needs no table."""
        return self.is_identity()

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
        if self.diagonal is not None:
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
        """The images of the degree-n monomials under den * matrix, built
        once per degree from the table one degree lower: the image of a
        monomial is the image of x_i times the image of the monomial over
        x_i.  A diagonal map's entry is the monomial's weight, one int,
        its column's scale times a weight one degree lower, reduced mod p
        at every step and never normalised; any other map's entry is the
        int row of the monomial's image."""
        got = self._tables.get(n)
        if got is None:
            nvars, p, den = self.nvars, self.field.char, self.den
            if n == 0:
                got = (1,) if self.diagonal is not None else (((0, 1),),)
            else:
                prev, cols = self._image_table(n - 1), product_index(nvars, 1, n - 1)
                table: list = [None] * basis_dim(nvars, n)
                for i in range(nvars):
                    var = [
                        (j, x.numerator * (den // x.denominator))
                        for j, r in enumerate(self.matrix)
                        if (x := r[i])
                    ]
                    for k, c in enumerate(cols[i]):
                        if table[c] is not None:
                            continue
                        if self.diagonal is None:
                            table[c] = tuple(row_product(var, prev[k], nvars, 1, n - 1, p))
                        else:
                            w = var[0][1] * prev[k]
                            table[c] = w % p if p else w
                got = tuple(table)
            self._tables[n] = got
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
    """A projective point stored by its canonical coordinate vector.

    Over the rationals the canonical vector is integer, primitive, with
    positive first nonzero entry; over a prime field the first nonzero
    entry is scaled to 1.
    """

    def __init__(self, coords: tuple[Scalar, ...]):
        self.__dict__.update(coords=coords)

    def _key(self) -> tuple:
        return (self.coords,)

    @staticmethod
    def make(coords: Sequence[Scalar], field) -> "ProjPoint":
        if not any(coords):
            raise ValueError("projective point needs a nonzero coordinate")
        ints = int_row(coords, field)
        lead = ints[0][1]
        scaled = dict(scalar_row(ints, field, lead if field.char else abs(lead) // lead))
        return ProjPoint(tuple(scaled.get(k, field.zero) for k in range(len(coords))))

    @property
    def nvars(self) -> int:
        return len(self.coords)

    def render(self, field) -> str:
        return "(" + " : ".join(field.render(x) for x in self.coords) + ")"


def point_image(auto: AutoMap, pt: ProjPoint) -> ProjPoint:
    """The point Q with apply(A, f)(P) = f(Q): coordinates A^T P."""
    n = auto.nvars
    cols = [[auto.matrix[j][i] for j in range(n)] for i in range(n)]
    return ProjPoint.make(mat_vec(cols, pt.coords, auto.field), auto.field)
