"""Exact graded linear algebra over the frozen monomial order.

A ``GradedSubspace`` is stored as the reduced row echelon form of its
basis matrix, which is the unique canonical representative of the
subspace: two subspaces are equal iff their stored matrices are equal.
Ambients carry a shape tag (polynomial piece, pair piece, free) so that
an operation mixing vectors from different ambients is a hard error
instead of a silent misalignment.

Over the rationals, elimination is fraction-free: rows are scaled to
primitive integer vectors and updated by cross-multiplication with gcd
reduction, so intermediate entries stay integral; rationals appear only
when the canonical form is materialized.  Over a prime field the same
elimination runs directly on residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .fields import Residue, Scalar
from .poly import HomogPoly, basis_dim, poly_to_vector, vector_to_poly

__all__ = [
    "Ambient",
    "GradedSubspace",
    "free_ambient",
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


def free_ambient(dim: int, label: str = "") -> Ambient:
    return Ambient("free", 0, 0, dim, label)


def _int_rows_from_scalars(vec: Sequence[Scalar]) -> list[int]:
    """Scale a rational vector to a primitive integer vector."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _gcd_normalize(vec: list[int]) -> None:
    g = 0
    for v in vec:
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for i in range(len(vec)):
            vec[i] //= g


class _IntEchelon:
    """Row echelon accumulator over the integers (spanning a Q-subspace)."""

    __slots__ = ("width", "rows", "pivot_to_row")

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivot_to_row: dict[int, int] = {}

    def reduce(self, vec: list[int]) -> list[int]:
        width = self.width
        j = 0
        while j < width:
            if vec[j]:
                r = self.pivot_to_row.get(j)
                if r is None:
                    break
                row = self.rows[r]
                a, b = row[j], vec[j]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                for k in range(j, width):
                    vec[k] = ma * vec[k] - mb * row[k]
                _gcd_normalize(vec)
            j += 1
        return vec

    def insert(self, vec: list[int]) -> bool:
        vec = self.reduce(vec)
        pivot = next((j for j, v in enumerate(vec) if v), None)
        if pivot is None:
            return False
        _gcd_normalize(vec)
        if vec[pivot] < 0:
            vec = [-v for v in vec]
        self.pivot_to_row[pivot] = len(self.rows)
        self.rows.append(vec)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def canonical(self, field) -> tuple[tuple[int, ...], list[list[Fraction]]]:
        order = sorted(self.pivot_to_row)
        rows = [list(self.rows[self.pivot_to_row[p]]) for p in order]
        # Back-substitute bottom-up so every pivot column is cleared above.
        for i in range(len(rows) - 1, -1, -1):
            p = order[i]
            low = rows[i]
            for h in range(i):
                if rows[h][p]:
                    a, b = low[p], rows[h][p]
                    g = gcd(a, b)
                    ma, mb = a // g, b // g
                    upper = rows[h]
                    for k in range(self.width):
                        upper[k] = ma * upper[k] - mb * low[k]
                    _gcd_normalize(upper)
        out = []
        for i, p in enumerate(order):
            piv = rows[i][p]
            out.append([Fraction(v, piv) for v in rows[i]])
        return tuple(order), out


class _ModEchelon:
    """Row echelon accumulator over GF(p); pivots normalized to 1."""

    __slots__ = ("width", "p", "rows", "pivot_to_row")

    def __init__(self, width: int, p: int):
        self.width = width
        self.p = p
        self.rows: list[list[int]] = []
        self.pivot_to_row: dict[int, int] = {}

    def reduce(self, vec: list[int]) -> list[int]:
        p = self.p
        j = 0
        while j < self.width:
            v = vec[j] % p
            vec[j] = v
            if v:
                r = self.pivot_to_row.get(j)
                if r is None:
                    break
                row = self.rows[r]
                for k in range(j, self.width):
                    vec[k] = (vec[k] - v * row[k]) % p
            j += 1
        for k in range(j, self.width):
            vec[k] %= p
        return vec

    def insert(self, vec: list[int]) -> bool:
        vec = self.reduce(vec)
        pivot = next((j for j, v in enumerate(vec) if v), None)
        if pivot is None:
            return False
        inv = pow(vec[pivot], -1, self.p)
        vec = [v * inv % self.p for v in vec]
        self.pivot_to_row[pivot] = len(self.rows)
        self.rows.append(vec)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def canonical(self) -> tuple[tuple[int, ...], list[list[int]]]:
        order = sorted(self.pivot_to_row)
        rows = [list(self.rows[self.pivot_to_row[p]]) for p in order]
        for i in range(len(rows) - 1, -1, -1):
            p = order[i]
            low = rows[i]
            for h in range(i):
                c = rows[h][p]
                if c:
                    upper = rows[h]
                    for k in range(self.width):
                        upper[k] = (upper[k] - c * low[k]) % self.p
        return tuple(order), rows


class Echelon:
    """Field-dispatching echelon accumulator used by every span builder."""

    def __init__(self, width: int, field):
        self.width = width
        self.field = field
        if field.char == 0:
            self._impl = _IntEchelon(width)
        else:
            self._impl = _ModEchelon(width, field.char)

    def _to_ints(self, vec: Sequence[Scalar]) -> list[int]:
        if self.field.char == 0:
            return _int_rows_from_scalars(vec)
        return [x.value if isinstance(x, Residue) else int(x) for x in vec]

    def insert(self, vec: Sequence[Scalar]) -> bool:
        if len(vec) != self.width:
            raise ValueError("vector length %d, ambient dim %d" % (len(vec), self.width))
        return self._impl.insert(self._to_ints(vec))

    @property
    def dim(self) -> int:
        return self._impl.dim

    def canonical_rows(self) -> tuple[tuple[int, ...], tuple[tuple[Scalar, ...], ...]]:
        if self.field.char == 0:
            pivots, rows = self._impl.canonical(self.field)
            return pivots, tuple(tuple(r) for r in rows)
        pivots, rows = self._impl.canonical()
        p = self.field.char
        return pivots, tuple(tuple(Residue(v, p) for v in r) for r in rows)


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


def span(vectors: Iterable[Sequence[Scalar]], ambient: Ambient, field) -> GradedSubspace:
    ech = Echelon(ambient.dim, field)
    for v in vectors:
        ech.insert(v)
    return _from_echelon(ambient, field, ech)


def span_polys(polys: Iterable[HomogPoly], ambient: Ambient, field) -> GradedSubspace:
    if ambient.kind != "poly":
        raise ValueError("span_polys needs a polynomial ambient")
    vecs = []
    for f in polys:
        if f.nvars != ambient.nvars or f.degree != ambient.degree:
            raise ValueError("polynomial does not live in the ambient")
        vecs.append(poly_to_vector(f, field))
    return span(vecs, ambient, field)


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


def identity_matrix(n: int, field) -> list[list[Scalar]]:
    one, zero = field.one, field.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


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
    """Exact inverse via Gauss-Jordan; returns None when singular."""
    n = len(a)
    aug = [list(a[i]) + identity_matrix(n, field)[i] for i in range(n)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = field.one / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[row])]
        row += 1
    return [r[n:] for r in aug]
