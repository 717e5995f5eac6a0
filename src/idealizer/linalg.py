"""Exact graded linear algebra over the frozen monomial order.

A ``GradedSubspace`` is stored as the reduced row echelon form of its
basis matrix, which is the unique canonical representative of the
subspace: two subspaces are equal iff their stored matrices are equal.
Ambients carry a shape tag (polynomial piece, pair piece, free) so that
an operation mixing vectors from different ambients is a hard error
instead of a silent misalignment.

Every vector here is an int row: integers over the rationals (p = 0),
residues mod p.  One engine, ``Echelon``, computes every rank and RREF.
Over Q elimination is fraction-free (cross-multiplication with gcd
reduction) and each canonical row is the RREF row scaled to primitive
integers with a positive pivot, which is still unique; mod p the pivot
is 1.  Spans, ranks, kernels, residuals, containment, sums and
intersections are scale-free: any row, in or out, may carry a nonzero
scale of its own.

Scalars enter only through ``fields.int_row`` (``poly_to_vector`` and the
rows callers build from point values) and leave only through
``fields.scalar_row``, in ``invert_matrix`` and in the kernel vectors
printed as linear forms (``twist.kernel_form``).  Two results stay int:
``basis_polys`` returns the canonical rows as polynomials, whose integer
coefficients are scalars in either field, and every caller only spans
them or tests them up to proportionality; ``quotient_coords``, the one
exact, not scale-free, result, returns an int row with its denominator.

``mat_mul`` and ``mat_vec`` multiply scalar matrices (automorphisms) and
reduce each entry with ``field.reduce``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import Scalar, int_row, scalar_row
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


def _normalize(vec: list[int], p: int) -> None:
    """Scale vec in place: leading entry 1 mod p, positive and primitive over Q."""
    lead = next(v for v in vec if v)
    if p:
        inv = pow(lead, -1, p)
        vec[:] = [v * inv % p for v in vec]
        return
    g = gcd(*vec)
    if lead < 0:
        g = -g
    if g != 1:
        vec[:] = [v // g for v in vec]


def _eliminate(vec: list[int], row: list[int], j: int, p: int, start: int) -> None:
    """Clear vec[j] using row, whose pivot is j (positive, or 1 mod p); both are 0 before start."""
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
    g = gcd(*vec)
    if g > 1:
        vec[:] = [v // g for v in vec]


class Echelon:
    """Row echelon accumulator on int rows, used by every span builder.

    ``insert`` takes an int row of any nonzero scale (any residues mod p)
    and keeps it, reduced, when it raises the rank.  Kept rows are
    primitive with a positive pivot over Q, and have pivot 1 mod p, so
    ``canonical_rows`` only back-substitutes; no scalar is built here.
    """

    __slots__ = ("width", "p", "rows", "pivot_to_row")

    def __init__(self, width: int, field):
        self.width = width
        self.p = field.char
        self.rows: list[list[int]] = []
        self.pivot_to_row: dict[int, int] = {}

    def insert(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.width:
            raise ValueError("vector length %d, ambient dim %d" % (len(vec), self.width))
        p = self.p
        ints = [v % p for v in vec] if p else list(vec)
        for j in range(self.width):
            if ints[j]:
                r = self.pivot_to_row.get(j)
                if r is None:
                    _normalize(ints, p)
                    self.pivot_to_row[j] = len(self.rows)
                    self.rows.append(ints)
                    return True
                _eliminate(ints, self.rows[r], j, p, j)
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)

    def canonical_rows(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Pivot columns and the int rows of the reduced row echelon form."""
        p = self.p
        order = sorted(self.pivot_to_row)
        rows = [list(self.rows[self.pivot_to_row[j]]) for j in order]
        # Back-substitute bottom-up so every pivot column is cleared above.
        for i in range(len(rows) - 1, -1, -1):
            for h in range(i):
                if rows[h][order[i]]:
                    _eliminate(rows[h], rows[i], order[i], p, order[h])
        return tuple(order), tuple(map(tuple, rows))


@dataclass(frozen=True)
class GradedSubspace:
    """A subspace stored as its canonical int RREF rows."""

    ambient: Ambient
    field: object
    pivots: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def nonpivot_columns(self) -> tuple[int, ...]:
        pset = set(self.pivots)
        return tuple(j for j in range(self.ambient.dim) if j not in pset)

    def residual(self, vec: Sequence[int]) -> list[int]:
        """vec minus its projection onto this subspace (vec[j] times the RREF
        row of each pivot j), times the lcm of those rows' int pivots."""
        n = self.ambient.dim
        if len(vec) != n:
            raise ValueError("vector length mismatch")
        hits = [(vec[j], j, row) for j, row in zip(self.pivots, self.rows) if vec[j]]
        scale = lcm(*(row[j] for _, j, row in hits))
        res = [scale * x for x in vec]
        for c, j, row in hits:
            c *= scale // row[j]
            for k in range(j, n):
                if row[k]:
                    res[k] -= c * row[k]
        p = self.field.char
        return [x % p for x in res] if p else res

    def contains_vector(self, vec: Sequence[int]) -> bool:
        return not any(self.residual(vec))

    def contains_poly(self, f: HomogPoly) -> bool:
        return self.contains_vector(poly_to_vector(f, self.field))

    def contains_subspace(self, other: "GradedSubspace") -> bool:
        self.ambient.require_same(other.ambient)
        return all(self.contains_vector(r) for r in other.rows)

    def quotient_coords(self, vec: Sequence[int]) -> tuple[list[int], int]:
        """Exact coordinates of vec, as given, in the quotient basis (non-pivot
        columns): an int row and the denominator it is over (1 mod p)."""
        res = self.residual(vec)
        scale = lcm(*(row[j] for j, row in zip(self.pivots, self.rows) if vec[j]))
        return [res[j] for j in self.nonpivot_columns()], scale

    def basis_polys(self) -> list[HomogPoly]:
        """The canonical rows as polynomials with integer coefficients."""
        if self.ambient.kind != "poly":
            raise ValueError("basis_polys needs a polynomial ambient")
        amb = self.ambient
        return [vector_to_poly(r, amb.nvars, amb.degree, self.field.char) for r in self.rows]

    def sum(self, other: "GradedSubspace") -> "GradedSubspace":
        self.ambient.require_same(other.ambient)
        return span(self.rows + other.rows, self.ambient, self.field)


def span(
    vectors: Iterable[Sequence[int]], ambient: Ambient, field, cap: int | None = None
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

    The third ceiling, rank one for the constraint matrices of T_n and
    of the Veronese idealizer, is taken and guarded in ``idealizer_ring``.
    """
    cap = ambient.dim if cap is None else cap
    ech = Echelon(ambient.dim, field)
    if cap > 0:
        for v in vectors:
            if ech.insert(v) and ech.dim >= cap:
                break
    return GradedSubspace(ambient, field, *ech.canonical_rows())


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


def kernel(rows: Sequence[Sequence[int]], width: int, field) -> list[tuple[int, ...]]:
    """Basis of {x : M x = 0}: for each non-pivot column f, an int multiple
    of the canonical kernel vector, whose last nonzero entry is 1, at f."""
    ech = Echelon(width, field)
    for r in rows:
        ech.insert(r)
    pivots, rref = ech.canonical_rows()
    out = []
    for f in sorted(set(range(width)) - set(pivots)):
        hits = [(j, r) for j, r in zip(pivots, rref) if r[f]]
        scale = lcm(*(r[j] for j, r in hits))
        v = [0] * width
        v[f] = scale
        for j, r in hits:
            v[j] = -r[f] * (scale // r[j])
        out.append(tuple(v))
    return out


def rank_rows(rows: Sequence[Sequence[int]], width: int, field) -> int:
    ech = Echelon(width, field)
    for r in rows:
        ech.insert(r)
    return ech.dim


def intersect(v: GradedSubspace, w: GradedSubspace) -> GradedSubspace:
    """Intersection by Zassenhaus: echelon the rows (x | x), x in v, and (y | 0), y in w.

    A kept row with a zero left half is (0 | z) with z in v and -z in w,
    and these right halves span v meet w.
    """
    v.ambient.require_same(w.ambient)
    n = v.ambient.dim
    ech = Echelon(2 * n, v.field)
    for r in v.rows:
        ech.insert(r + r)
    for r in w.rows:
        ech.insert(r + (0,) * n)
    return span((r[n:] for r in ech.rows if not any(r[:n])), v.ambient, v.field)


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
            row.append(field.reduce(s))
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
        out.append(field.reduce(s))
    return out


def invert_matrix(a: Sequence[Sequence[Scalar]], field):
    """The right half of the RREF of [A | I]; None when A is singular."""
    n = len(a)
    one, zero = field.one, field.zero
    ech = Echelon(2 * n, field)
    for i, row in enumerate(a):
        ech.insert(int_row(list(row) + [one if k == i else zero for k in range(n)], field))
    pivots, rows = ech.canonical_rows()
    if pivots != tuple(range(n)):
        return None
    return [list(scalar_row(r[n:], field, r[i])) for i, r in enumerate(rows)]
