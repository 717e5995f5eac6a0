"""Graded automorphisms of the polynomial ring, and projective points.

An automorphism is an invertible (d+1) x (d+1) matrix A acting on the
ring by the linear substitution x_i -> sum_j A[j][i] x_j.  With that
convention apply(A, apply(B, f)) = apply(A B, f), and evaluation
satisfies

    apply(A, f)(P) = f(point_image(A, P)),   point_image(A, P) = A^T P.

The diagonal family diag(1, p_1, ..., p_d) (top-left entry normalized
to 1) is the case of interest.  A diagonal map scales each monomial by
its weight prod_i diag_i^e_i, so apply() keeps the term order; any other
map sends each monomial to a polynomial, its image, and apply() sums the
images scaled by the coefficients.  Each map caches the reduced weight
or the image of every monomial it has met, outside ==, hash and repr; a
value is computed in full before the one store that publishes it, and an
image is built from the cached image of the monomial one variable lower.
power(n) is closed-form: one power per diagonal entry, else repeated
squaring of the matrix and its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

from .fields import Scalar, int_row, scalar_row
from .linalg import invert_matrix, mat_mul, mat_vec
from .poly import HomogPoly, Mono

__all__ = ["AutoMap", "ProjPoint", "point_image", "pullback_point"]


@dataclass(frozen=True)
class AutoMap:
    """An invertible linear substitution, with its inverse precomputed."""

    matrix: tuple[tuple[Scalar, ...], ...]
    inverse: tuple[tuple[Scalar, ...], ...]
    field: object
    diagonal: tuple[Scalar, ...] | None = None
    _weights: dict[Mono, Scalar] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _images: dict[Mono, HomogPoly] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    def apply(self, f: HomogPoly) -> HomogPoly:
        """The substitution x_i -> sum_j matrix[j][i] x_j applied to f."""
        if (f.nvars, f.char) != (self.nvars, self.field.char):
            raise ValueError("arity or characteristic mismatch")
        if f.is_zero() or f.degree == 0:
            return f
        if self.diagonal is not None:
            weights, p = self._weights, f.char
            terms = []
            for m, c in f.terms:
                w = weights.get(m)
                if w is None:
                    w = self.field.one
                    for x, e in zip(self.diagonal, m):
                        if e:
                            w = w * x**e
                    w = self.field.reduce(w)
                    weights[m] = w
                terms.append((m, c * w % p if p else c * w))
            return HomogPoly(f.nvars, f.degree, tuple(terms), f.char)
        acc: dict[Mono, Scalar] = {}
        for m, c in f.terms:
            for mm, a in self._image(m).terms:
                s = acc.get(mm)
                acc[mm] = c * a if s is None else s + c * a
        return HomogPoly.from_dict(f.nvars, f.degree, acc, f.char)

    def _image(self, m: Mono) -> HomogPoly:
        """The substitution applied to the monomial m of positive degree,
        cached per map: the image of x_i, i the first variable of m, times
        the image of m / x_i."""
        got = self._images.get(m)
        if got is None:
            n = self.nvars
            i = next(k for k, e in enumerate(m) if e)
            var = HomogPoly.from_dict(
                n,
                1,
                {tuple(int(k == j) for k in range(n)): self.matrix[j][i] for j in range(n)},
                self.field.char,
            )
            rest = m[:i] + (m[i] - 1,) + m[i + 1:]
            got = var if sum(rest) == 0 else self._image(rest) * var
            self._images[m] = got
        return got


@dataclass(frozen=True)
class ProjPoint:
    """A projective point stored by its canonical coordinate vector.

    Over the rationals the canonical vector is integer, primitive, with
    positive first nonzero entry; over a prime field the first nonzero
    entry is scaled to 1.
    """

    coords: tuple[Scalar, ...]

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


def pullback_point(auto: AutoMap, pt: ProjPoint) -> ProjPoint:
    """The point P' with f(pt) = apply(A, f)(P'); coordinates (A^-1)^T pt."""
    return point_image(auto.inv(), pt)


def evaluate_at(f: HomogPoly, pt: ProjPoint, field) -> Scalar:
    """Value of f at the canonical representative of pt.

    The value depends on the representative; its vanishing does not.
    """
    return f.evaluate(pt.coords, field)
