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
is 1.  Spans, ranks, kernels, residuals, containment and intersections
are scale-free: any row, in or out, may carry a nonzero scale of its
own.

Every question about U/V goes through one quotient map per subspace,
built on first use and cached on it: with P the pivot columns and NP the
rest, v maps to v[NP] - sum over j in P of v[j] row_j[NP] / row_j[j].
It is stored per ambient column as (quotient index, coefficient) pairs
over one denominator, the lcm of the int pivots over Q and 1 mod p, so
``quotient_terms`` costs one pass over the nonzeros of the vector and
``contains_vector`` asks whether every quotient coordinate is zero.  A
sum V + W is never built: its dimension is dim W plus the rank of the
image of V in U/W.  ``residual`` scatters the quotient coordinates back
onto the non-pivot columns; the package no longer calls it, and it is
kept for the benchmark's span list.

Scalars enter only through ``fields.int_row`` (``poly_to_vector`` and the
rows callers build from point values) and leave only through
``fields.scalar_row``, in ``invert_matrix`` and in the kernel vectors
printed as linear forms (``twist.kernel_form``).  Two results stay int:
``basis_polys`` returns the canonical rows as polynomials, whose integer
coefficients are scalars in either field, and every caller only spans
them or tests them up to proportionality; ``quotient_coords``, the one
exact, not scale-free, result, returns an int row with its denominator.

``intersect`` has no caller in the package, which counts the dimension
of a meet from a sum; it is kept for the benchmark's span list and for
the test oracles.

``mat_mul`` and ``mat_vec`` multiply scalar matrices (automorphisms) and
reduce each entry with ``field.reduce``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def nonpivot_columns(self) -> tuple[int, ...]:
        """The columns of the quotient basis, computed once per subspace."""
        pset = set(self.pivots)
        return tuple(j for j in range(self.ambient.dim) if j not in pset)

    @cached_property
    def quotient_map(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """The projection U -> U/V, built once per subspace: a denominator D
        (the lcm of the int pivots over Q, 1 mod p) and, per ambient column
        c, the (quotient index, coefficient) pairs of D times the image of
        e_c.  A non-pivot column is its own basis vector; the pivot column
        of an RREF row r is -r[k]/r[c] on each non-pivot k."""
        p = self.field.char
        index = {j: i for i, j in enumerate(self.nonpivot_columns)}
        denom = 1 if p else lcm(*(r[j] for j, r in zip(self.pivots, self.rows)))
        cols: list[tuple[tuple[int, int], ...]] = [()] * self.ambient.dim
        for j, i in index.items():
            cols[j] = ((i, denom),)
        for j, r in zip(self.pivots, self.rows):
            s = denom // r[j]
            cols[j] = tuple(
                (index[k], (-x * s) % p if p else -x * s) for k, x in enumerate(r) if x and k != j
            )
        return denom, tuple(cols)

    def quotient_terms(self, terms: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
        """Exact coordinates in the quotient basis (non-pivot columns) of the
        vector with the given (column, value) nonzeros: an int row and the
        denominator it is over (1 mod p)."""
        denom, cols = self.quotient_map
        out = [0] * (self.ambient.dim - self.dim)
        for c, x in terms:
            for i, y in cols[c]:
                out[i] += x * y
        p = self.field.char
        return ([v % p for v in out] if p else out), denom

    def quotient_coords(self, vec: Sequence[int]) -> tuple[list[int], int]:
        """``quotient_terms`` of a full int row."""
        if len(vec) != self.ambient.dim:
            raise ValueError("vector length mismatch")
        return self.quotient_terms((c, x) for c, x in enumerate(vec) if x)

    def residual(self, vec: Sequence[int]) -> list[int]:
        """vec minus its projection onto this subspace, times the quotient
        denominator: the quotient coordinates scattered onto the non-pivot
        columns."""
        out = [0] * self.ambient.dim
        for j, v in zip(self.nonpivot_columns, self.quotient_coords(vec)[0]):
            out[j] = v
        return out

    def contains_vector(self, vec: Sequence[int]) -> bool:
        return not any(self.quotient_coords(vec)[0])

    def contains_poly(self, f: HomogPoly) -> bool:
        return self.contains_vector(poly_to_vector(f, self.field))

    def contains_subspace(self, other: "GradedSubspace") -> bool:
        self.ambient.require_same(other.ambient)
        return all(self.contains_vector(r) for r in other.rows)

    def basis_polys(self) -> list[HomogPoly]:
        """The canonical rows as polynomials with integer coefficients."""
        if self.ambient.kind != "poly":
            raise ValueError("basis_polys needs a polynomial ambient")
        amb = self.ambient
        return [vector_to_poly(r, amb.nvars, amb.degree, self.field.char) for r in self.rows]


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
