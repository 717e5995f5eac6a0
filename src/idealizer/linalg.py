"""Exact graded linear algebra over the frozen monomial order.

A ``GradedSubspace`` is stored as the reduced row echelon form of its
basis matrix, which is the unique canonical representative of the
subspace: two subspaces are equal iff their stored matrices are equal.
Ambients carry a shape tag (polynomial piece, pair piece, free) so that
an operation mixing vectors from different ambients is a hard error
instead of a silent misalignment.

One engine, ``Echelon``, computes every rank and RREF, on int rows keyed
by the characteristic p.  Over the rationals (p = 0) elimination is
fraction-free: rows are scaled to primitive integer vectors and updated
by cross-multiplication with gcd reduction, so intermediate entries stay
integral.  Over GF(p) the same step runs on least residues.  Scalars
become ints once on insert and are materialized once, in the canonical
form; a matrix inverse is read off the canonical form of [A | I].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import Residue, Scalar
from .poly import HomogPoly, basis_dim, poly_to_vector, vector_to_poly

__all__ = [
    "Ambient",
    "GradedSubspace",
    "intersect",
    "kernel",
    "poly_ambient",
    "segre_ambient",
    "span",
    "span_polys",
]


@dataclass(frozen=True)
class Ambient:
    """Shape descriptor for the space a vector lives in."""

    kind: str  # "poly" | "pair" | "free"
    nvars: int
    degree: int
    dim: int
    label: str = ""

    def require_same(self, other: "Ambient") -> None:
        if self != other:
            raise ValueError("ambient mismatch: %r vs %r" % (self, other))


def poly_ambient(nvars: int, degree: int) -> Ambient:
    return Ambient("poly", nvars, degree, basis_dim(nvars, degree))


def segre_ambient(nvars: int, degree: int) -> Ambient:
    """Pairs of degree-``degree`` monomials, lexicographic pair order."""
    n = basis_dim(nvars, degree)
    return Ambient("pair", nvars, degree, n * n)


def _int_rows_from_scalars(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to a primitive integer vector."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _normalize(vec: list[int], p: int) -> None:
    """Scale vec in place: primitive over Q (p = 0), leading entry 1 mod p."""
    if p:
        inv = pow(next(v for v in vec if v), -1, p)
        vec[:] = [v * inv % p for v in vec]
        return
    g = gcd(*vec)
    if g > 1:
        vec[:] = [v // g for v in vec]


def _eliminate(vec: list[int], row: list[int], j: int, p: int, start: int) -> None:
    """Clear vec[j] using row, whose pivot is j (1 mod p); both are 0 before start."""
    # Pivot rows are sparse, so skipping their zeros beats a comprehension.
    if p:
        c = vec[j]
        for k in range(start, len(vec)):
            if row[k]:
                vec[k] = (vec[k] - c * row[k]) % p
        return
    g = gcd(row[j], vec[j])
    a, b = row[j] // g, vec[j] // g
    for k in range(start, len(vec)):
        if row[k] or vec[k]:
            vec[k] = a * vec[k] - b * row[k]
    _normalize(vec, 0)


class Echelon:
    """Row echelon accumulator on int rows, used by every span builder.

    Over Q (p = 0) rows are primitive integer vectors, reduced by
    cross-multiplication; over GF(p) they are residues with leading
    entry 1.  Scalars become ints once, in ``insert``, and come back
    once, in ``canonical_rows``.
    """

    __slots__ = ("width", "p", "rows", "pivot_to_row")

    def __init__(self, width: int, field):
        self.width = width
        self.p = field.char
        self.rows: list[list[int]] = []
        self.pivot_to_row: dict[int, int] = {}

    def insert(self, vec: Sequence[Scalar]) -> bool:
        if len(vec) != self.width:
            raise ValueError("vector length %d, ambient dim %d" % (len(vec), self.width))
        p = self.p
        ints = [x.value for x in vec] if p else _int_rows_from_scalars(vec)
        for j in range(self.width):
            if ints[j]:
                r = self.pivot_to_row.get(j)
                if r is None:
                    if p:  # over Q the row is already primitive
                        _normalize(ints, p)
                    self.pivot_to_row[j] = len(self.rows)
                    self.rows.append(ints)
                    return True
                _eliminate(ints, self.rows[r], j, p, j)
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)

    def canonical_rows(self) -> tuple[tuple[int, ...], tuple[tuple[Scalar, ...], ...]]:
        """Pivot columns and the rows of the reduced row echelon form."""
        p = self.p
        order = sorted(self.pivot_to_row)
        rows = [list(self.rows[self.pivot_to_row[j]]) for j in order]
        # Back-substitute bottom-up so every pivot column is cleared above.
        for i in range(len(rows) - 1, -1, -1):
            for h in range(i):
                if rows[h][order[i]]:
                    _eliminate(rows[h], rows[i], order[i], p, order[h])
        if p:
            return tuple(order), tuple(tuple(Residue(v, p) for v in r) for r in rows)
        return tuple(order), tuple(
            tuple(Fraction(v, r[j]) for v in r) for j, r in zip(order, rows)
        )


@dataclass(frozen=True)
class GradedSubspace:
    """A subspace in canonical reduced-row-echelon form."""

    ambient: Ambient
    field: object
    pivots: tuple[int, ...]
    rows: tuple[tuple[Scalar, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def nonpivot_columns(self) -> tuple[int, ...]:
        pset = set(self.pivots)
        return tuple(j for j in range(self.ambient.dim) if j not in pset)

    def residual(self, vec: Sequence[Scalar]) -> list[Scalar]:
        """vec minus its projection onto this subspace (RREF reduction)."""
        if len(vec) != self.ambient.dim:
            raise ValueError("vector length mismatch")
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                for k in range(p, len(v)):
                    if row[k]:
                        v[k] = v[k] - c * row[k]
        return v

    def contains_vector(self, vec: Sequence[Scalar]) -> bool:
        return not any(self.residual(vec))

    def contains_poly(self, f: HomogPoly) -> bool:
        return self.contains_vector(poly_to_vector(f, self.field))

    def contains_subspace(self, other: "GradedSubspace") -> bool:
        self.ambient.require_same(other.ambient)
        return all(self.contains_vector(r) for r in other.rows)

    def quotient_coords(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Coordinates of vec in the quotient basis (non-pivot columns)."""
        res = self.residual(vec)
        return tuple(res[j] for j in self.nonpivot_columns())

    def basis_polys(self) -> list[HomogPoly]:
        if self.ambient.kind != "poly":
            raise ValueError("basis_polys needs a polynomial ambient")
        return [
            vector_to_poly(r, self.ambient.nvars, self.ambient.degree) for r in self.rows
        ]

    def sum(self, other: "GradedSubspace") -> "GradedSubspace":
        self.ambient.require_same(other.ambient)
        ech = Echelon(self.ambient.dim, self.field)
        for r in self.rows:
            ech.insert(r)
        for r in other.rows:
            ech.insert(r)
        return _from_echelon(self.ambient, self.field, ech)

    def quotient_dim(self, other: "GradedSubspace") -> int:
        """dim(self/other); raises unless other is contained in self."""
        if not self.contains_subspace(other):
            raise ValueError("quotient_dim: second subspace not contained in first")
        return self.dim - other.dim


def _from_echelon(ambient: Ambient, field, ech: Echelon) -> GradedSubspace:
    pivots, rows = ech.canonical_rows()
    return GradedSubspace(ambient, field, pivots, rows)


def span(
    vectors: Iterable[Sequence[Scalar]], ambient: Ambient, field, cap: int | None = None
) -> GradedSubspace:
    """The span of the vectors, read lazily until the rank reaches ``cap``.

    ``cap`` must be a proven upper bound on the rank of the span; once
    the echelon reaches it, no later vector can change the answer, so
    the rest of the iterable is never read (a generator is never advanced
    to build it).  Two ceilings are used:

    - ``ambient.dim``, the default: a span inside U_m has rank at most
      dim U_m.  It needs no guard.
    - ``dim T_n`` for the decomposable products (T_+^2)_n, which lie in
      T_n because T is a ring.  ``IdealizerRing.decomposable_piece``
      guards it by comparing the capped span with T_n, a free comparison
      of canonical forms, and raises ``ArithmeticError`` on a mismatch.

    The third ceiling, rank one for the Veronese constraint matrix, is
    taken and guarded in ``idealizer_ring``.
    """
    cap = ambient.dim if cap is None else cap
    ech = Echelon(ambient.dim, field)
    if cap > 0:
        for v in vectors:
            if ech.insert(v) and ech.dim >= cap:
                break
    return _from_echelon(ambient, field, ech)


def span_polys(
    polys: Iterable[HomogPoly], ambient: Ambient, field, cap: int | None = None
) -> GradedSubspace:
    """``span`` of the coefficient vectors, converted one polynomial at a time."""
    if ambient.kind != "poly":
        raise ValueError("span_polys needs a polynomial ambient")

    def vectors():
        for f in polys:
            if f.nvars != ambient.nvars or f.degree != ambient.degree:
                raise ValueError("polynomial does not live in the ambient")
            yield poly_to_vector(f, field)

    return span(vectors(), ambient, field, cap)


def kernel(rows: Sequence[Sequence[Scalar]], width: int, field) -> list[tuple[Scalar, ...]]:
    """Canonical basis of {x : M x = 0} for the matrix with the given rows."""
    ech = Echelon(width, field)
    for r in rows:
        ech.insert(r)
    pivots, rref = ech.canonical_rows()
    pivot_index = {p: i for i, p in enumerate(pivots)}
    out = []
    zero, one = field.zero, field.one
    for f in range(width):
        if f in pivot_index:
            continue
        v = [zero] * width
        v[f] = one
        for p, i in pivot_index.items():
            v[p] = -rref[i][f]
        out.append(tuple(v))
    return out


def rank_rows(rows: Sequence[Sequence[Scalar]], width: int, field) -> int:
    ech = Echelon(width, field)
    for r in rows:
        ech.insert(r)
    return ech.dim


def intersect(v: GradedSubspace, w: GradedSubspace) -> GradedSubspace:
    """Intersection via the kernel of the stacked coefficient system."""
    v.ambient.require_same(w.ambient)
    rv, rw = v.dim, w.dim
    if rv == 0 or rw == 0:
        return span([], v.ambient, v.field)
    width = rv + rw
    sys_rows = []
    for c in range(v.ambient.dim):
        row = [v.rows[i][c] for i in range(rv)] + [-w.rows[j][c] for j in range(rw)]
        if any(row):
            sys_rows.append(row)
    combos = kernel(sys_rows, width, v.field)
    zero = v.field.zero
    vecs = []
    for combo in combos:
        acc = [zero] * v.ambient.dim
        for i in range(rv):
            a = combo[i]
            if a:
                row = v.rows[i]
                for k in range(v.ambient.dim):
                    if row[k]:
                        acc[k] = acc[k] + a * row[k]
        vecs.append(acc)
    return span(vecs, v.ambient, v.field)


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]], field):
    n, m = len(a), len(b[0])
    inner = len(b)
    zero = field.zero
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = zero
            for k in range(inner):
                if a[i][k] and b[k][j]:
                    s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(a: Sequence[Sequence[Scalar]], v: Sequence[Scalar], field):
    zero = field.zero
    out = []
    for row in a:
        s = zero
        for x, y in zip(row, v):
            if x and y:
                s = s + x * y
        out.append(s)
    return out


def invert_matrix(a: Sequence[Sequence[Scalar]], field):
    """The right half of the RREF of [A | I]; None when A is singular."""
    n = len(a)
    one, zero = field.one, field.zero
    ech = Echelon(2 * n, field)
    for i, row in enumerate(a):
        ech.insert(list(row) + [one if k == i else zero for k in range(n)])
    pivots, rows = ech.canonical_rows()
    if pivots != tuple(range(n)):
        return None
    return [list(r[n:]) for r in rows]
