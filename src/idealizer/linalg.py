"""Exact graded linear algebra over the frozen monomial order.

A ``GradedSubspace`` is stored as the reduced row echelon form of its
basis matrix, which is the unique canonical representative of the
subspace: two subspaces are equal iff their stored matrices are equal.
Ambients carry a shape tag (polynomial piece, pair piece, free) so that
an operation mixing vectors from different ambients is a hard error
instead of a silent misalignment.

Every vector here is a sparse int row: (column, value) pairs with
distinct columns in [0, width) and nonzero values, integers over the
rationals (p = 0), residues mod p.  Rows stay sparse (a few percent of
their width is nonzero, and elimination fills in little), so no
operation here allocates or walks a full-width row: every loop runs
over nonzeros.  One engine, ``Echelon``, computes every rank and RREF.
Its working and kept rows are dicts from column to value; elimination
clears the least column of a row while a kept row has its pivot there.
Over Q elimination is fraction-free (cross-multiplication with gcd
reduction) and each canonical row is the RREF row scaled to primitive
integers with a positive pivot, which is still unique; mod p the pivot
is 1.  ``GradedSubspace`` stores each canonical row as a tuple of pairs
in increasing column order, pivot first, so the stored rows are
hashable and compare as the subspaces do.  Spans, ranks, kernels,
residuals, containment and intersections are scale-free: any row, in or
out, may carry a nonzero scale of its own.

Every question about U/V goes through one quotient map per subspace,
built on first use and cached on it: with P the pivot columns and NP the
rest, v maps to v[NP] - sum over j in P of v[j] row_j[NP] / row_j[j].
It is stored per ambient column as (quotient index, coefficient) pairs
over one denominator, the lcm of the int pivots over Q and 1 mod p, so
``quotient_coords`` costs one pass over the nonzeros of the vector and
``contains_vector`` asks whether every quotient coordinate is zero.  A
sum V + W is never built: its dimension is dim W plus the rank of the
image of V in U/W.  ``residual`` moves the quotient coordinates back
onto the non-pivot columns; the package no longer calls it, and it is
kept for the benchmark's span list.

``mult_rows``, x -> g * x into U/J summed off J's projection, builds the
matrices of T_n, R'_m, the hom tables and the Koszul blocks, and
``annihilates``, whether every row of J lies in their kernel, is their
guard on a piece (``GradedIdeal.annihilated_by``; a point ideal reads
its evaluation row instead).

A polynomial is already an int row over a denominator, so polynomials
come in as their rows (``poly_to_vector``) and kernel vectors leave as
polynomials over their last entry (``twist.kernel_form``), with no
scalar between; no scalar enters or leaves here.  ``quotient_coords``,
the one exact, not scale-free, result, returns an int row with its
denominator.

``intersect`` has no caller in the package, which counts the dimension
of a meet from a sum; it is kept for the benchmark's span list and for
the test oracles.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import Value
from .poly import HomogPoly, basis_dim, poly_to_vector, product_index

__all__ = [
    "Ambient",
    "GradedSubspace",
    "annihilates",
    "intersect",
    "kernel",
    "mult_rows",
    "poly_ambient",
    "segre_ambient",
    "span",
    "span_polys",
]


class Ambient(Value):
    """Shape descriptor for the space a vector lives in."""

    def __init__(self, kind: str, nvars: int, degree: int, dim: int):
        # kind: "poly" | "pair" | "free"
        self.__dict__.update(kind=kind, nvars=nvars, degree=degree, dim=dim)

    def _key(self) -> tuple:
        return (self.kind, self.nvars, self.degree, self.dim)

    def __repr__(self):
        return "Ambient(kind=%r, nvars=%r, degree=%r, dim=%r)" % self._key()

    def require_same(self, other: "Ambient") -> None:
        if self != other:
            raise ValueError("ambient mismatch: %r vs %r" % (self, other))


def poly_ambient(nvars: int, degree: int) -> Ambient:
    return Ambient("poly", nvars, degree, basis_dim(nvars, degree))


def segre_ambient(nvars: int, degree: int) -> Ambient:
    """Pairs of degree-``degree`` monomials, lexicographic pair order."""
    n = basis_dim(nvars, degree)
    return Ambient("pair", nvars, degree, n * n)


Row = Sequence[tuple[int, int]]


def _normalize(vec: dict[int, int], j: int, p: int) -> dict[int, int]:
    """vec scaled so its pivot vec[j] is 1 mod p, positive and primitive over Q."""
    lead = vec[j]
    if p:
        if lead == 1:
            return vec
        inv = pow(lead, -1, p)
        return {k: v * inv % p for k, v in vec.items()}
    g = gcd(*vec.values())
    if lead < 0:
        g = -g
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


def _eliminate(vec: dict[int, int], row: dict[int, int], j: int, p: int) -> dict[int, int]:
    """vec with vec[j] cleared by row, whose pivot is j (positive, or 1 mod p)."""
    if p:
        c = vec[j]
        for k, x in row.items():
            v = (vec.get(k, 0) - c * x) % p
            if v:
                vec[k] = v
            else:
                del vec[k]
        return vec
    g = gcd(row[j], vec[j])
    a, b = row[j] // g, vec[j] // g
    if a != 1:
        vec = {k: a * v for k, v in vec.items()}
    for k, x in row.items():
        v = vec.get(k, 0) - b * x
        if v:
            vec[k] = v
        else:
            del vec[k]
    g = gcd(*vec.values())
    return {k: v // g for k, v in vec.items()} if g > 1 else vec


class Echelon:
    """Row echelon accumulator on sparse int rows, used by every span builder.

    ``insert`` takes an int row of any nonzero scale (any residues mod p)
    and keeps it, reduced, when it raises the rank.  Kept rows are dicts,
    primitive with a positive pivot over Q and with pivot 1 mod p, keyed
    by their pivot, the least column of each; ``canonical_rows`` only
    back-substitutes.  No scalar is built here.
    """

    __slots__ = ("width", "p", "pivot_rows")

    def __init__(self, width: int, field):
        self.width = width
        self.p = field.char
        self.pivot_rows: dict[int, dict[int, int]] = {}

    def insert(self, row: Row) -> bool:
        p = self.p
        vec = dict(row)
        if vec and (min(vec) < 0 or max(vec) >= self.width):
            raise ValueError("row has a column outside the ambient of dim %d" % self.width)
        if p:
            vec = {k: v % p for k, v in vec.items() if v % p}
        elif 0 in vec.values():
            vec = {k: v for k, v in vec.items() if v}
        pivot_rows = self.pivot_rows
        while vec:
            j = min(vec)
            kept = pivot_rows.get(j)
            if kept is None:
                pivot_rows[j] = _normalize(vec, j, p)
                return True
            vec = _eliminate(vec, kept, j, p)
        return False

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def canonical_rows(self) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
        """Pivot columns and the int rows of the reduced row echelon form."""
        p = self.p
        order = sorted(self.pivot_rows)
        rows = [dict(self.pivot_rows[j]) for j in order]
        # Back-substitute bottom-up so every pivot column is cleared above.
        for i in range(len(rows) - 1, -1, -1):
            j, row = order[i], rows[i]
            for h in range(i):
                if j in rows[h]:
                    rows[h] = _eliminate(rows[h], row, j, p)
        return tuple(order), tuple(tuple(sorted(r.items())) for r in rows)


class GradedSubspace(Value):
    """A subspace stored as its canonical int RREF rows."""

    def __init__(self, ambient: Ambient, field, pivots: tuple[int, ...], rows: tuple):
        self.__dict__.update(ambient=ambient, field=field, pivots=pivots, rows=rows)

    def _key(self) -> tuple:
        return (self.ambient, self.field, self.pivots, self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def nonpivot_columns(self) -> tuple[int, ...]:
        """The columns of the quotient basis, computed once per subspace."""
        pset = set(self.pivots)
        return tuple(j for j in range(self.ambient.dim) if j not in pset)

    @cached_property
    def quotient_map(self) -> tuple[int, dict[int, tuple[tuple[int, int], ...]]]:
        """The projection U -> U/V, built once per subspace: a denominator D
        (the lcm of the int pivots over Q, 1 mod p) and, per ambient column
        c, the (quotient index, coefficient) pairs of D times the image of
        e_c.  A non-pivot column is its own basis vector; the pivot column
        of an RREF row r, whose first pair is its pivot, is -r[k]/r[c] on
        each non-pivot k."""
        p = self.field.char
        denom = 1 if p else lcm(*(r[0][1] for r in self.rows))
        index = {j: i for i, j in enumerate(self.nonpivot_columns)}
        images = {j: ((i, denom),) for j, i in index.items()}
        for r in self.rows:
            (j, lead), rest = r[0], r[1:]
            s = denom // lead
            images[j] = tuple((index[k], (-x * s) % p if p else -x * s) for k, x in rest)
        return denom, images

    def _project(self, vec: Iterable[tuple[int, int]]) -> dict[int, int]:
        """The quotient coordinates of an int row times the quotient
        denominator, summed but not reduced mod p."""
        images = self.quotient_map[1]
        out: dict[int, int] = {}
        for c, x in vec:
            for i, y in images[c]:
                out[i] = out.get(i, 0) + x * y
        return out

    def quotient_coords(self, vec: Iterable[tuple[int, int]]) -> tuple[list[tuple[int, int]], int]:
        """Exact coordinates in the quotient basis (non-pivot columns) of an
        int row: an int row over the quotient indices and the denominator
        it is over (1 mod p)."""
        out, p, denom = self._project(vec), self.field.char, self.quotient_map[0]
        if p:
            return [(i, v % p) for i, v in out.items() if v % p], denom
        return [(i, v) for i, v in out.items() if v], denom

    def residual(self, vec: Row) -> list[tuple[int, int]]:
        """vec minus its projection onto this subspace, times the quotient
        denominator: the quotient coordinates moved onto the non-pivot
        columns."""
        columns = self.nonpivot_columns
        return sorted((columns[i], v) for i, v in self.quotient_coords(vec)[0])

    def contains_vector(self, vec: Row) -> bool:
        """Whether no quotient coordinate of the row is nonzero (mod p)."""
        values, p = self._project(vec).values(), self.field.char
        return not any(v % p for v in values) if p else not any(values)

    def contains_poly(self, f: HomogPoly) -> bool:
        return self.contains_vector(poly_to_vector(f, self.field))


def span(vectors: Iterable[Row], ambient: Ambient, field) -> GradedSubspace:
    """The span of the vectors, read lazily until it fills the ambient."""
    ech = _echelon(vectors, ambient.dim, field, None)
    return GradedSubspace(ambient, field, *ech.canonical_rows())


def _echelon(rows: Iterable[Row], width: int, field, cap: int | None) -> Echelon:
    """An echelon of the rows, read until its rank reaches ``cap`` (default
    ``width``)."""
    cap = width if cap is None else cap
    ech = Echelon(width, field)
    if cap > 0:
        for r in rows:
            if ech.insert(r) and ech.dim >= cap:
                break
    return ech


def span_polys(polys: Iterable[HomogPoly], ambient: Ambient, field) -> GradedSubspace:
    """``span`` of the coefficient vectors, converted one polynomial at a time."""
    if ambient.kind != "poly":
        raise ValueError("span_polys needs a polynomial ambient")

    def vectors():
        for f in polys:
            if f.nvars != ambient.nvars or f.degree != ambient.degree:
                raise ValueError("polynomial does not live in the ambient")
            yield poly_to_vector(f, field)

    return span(vectors(), ambient, field)


def kernel(rows: Iterable[Row], width: int, field) -> list[tuple[tuple[int, int], ...]]:
    """Basis of {x : M x = 0}: for each non-pivot column f, an int multiple
    of the canonical kernel vector, whose last nonzero entry is 1, at f."""
    ech = Echelon(width, field)
    for r in rows:
        ech.insert(r)
    pivots, rref = ech.canonical_rows()
    # per non-pivot column f: (pivot j, int pivot, entry at f) of each row hitting f
    hits: dict[int, list[tuple[int, int, int]]] = {}
    for r in rref:
        j, lead = r[0]
        for f, x in r[1:]:
            hits.setdefault(f, []).append((j, lead, x))
    pset = set(pivots)
    out = []
    for f in range(width):
        if f in pset:
            continue
        col = hits.get(f, [])
        scale = lcm(*(lead for _, lead, _ in col))
        out.append(tuple(sorted([(j, -x * (scale // lead)) for j, lead, x in col] + [(f, scale)])))
    return out


def rank_rows(rows: Iterable[Row], width: int, field, cap: int | None = None) -> int:
    """The rank of the rows, read lazily until it reaches ``cap``.

    ``cap`` must be a proven upper bound on the rank; once the echelon
    reaches it, no later row can change the answer, so
    the rest of the iterable is never read (a generator is never advanced
    to build it).  The ceilings in use:

    - ``width``, the default: rows of that width have rank at most
      ``width``.  It needs no guard.
    - dim C^i - rank delta^(i-1) for the free module's Koszul
      differential delta^i (``ext.KoszulComplex.rank``): delta^i
      vanishes on the image of delta^(i-1), because delta delta = 0 on U.
    - ``dim T_n`` for the decomposable products (T_+^2)_n, which lie in
      T_n because T is a ring.  ``IdealizerRing.decomposable_piece``
      guards it by checking that every product row it reads lies in T_n,
      and raises ``ArithmeticError`` on one that does not.
    """
    return _echelon(rows, width, field, cap).dim


def mult_rows(u: Row, a: int, indices, n: int, quotient, nvars: int, field) -> list[Row]:
    """Int rows of x -> g * x, g of degree a with int row u, from the
    degree-n monomials at ``indices`` into U_(a+n)/J_(a+n): one row per
    quotient index, its columns positions in ``indices``.

    ``quotient`` is ``J.quotient(a + n)``: codim J_(a+n) and the
    (quotient index, coefficient) pairs of each column's image.  Each
    nonzero of u picks the image of its product column, so no product
    row is built, and at codimension 0 no column is visited.  The rows
    share the scales of u and of the projection, which no rank sees.
    """
    codim, images = quotient
    if not codim:
        return []
    table, p = product_index(nvars, n, a), field.char
    rows: list[list[tuple[int, int]]] = [[] for _ in range(codim)]
    for pos, k in enumerate(indices):
        cols = table[k]
        out: dict[int, int] = {}
        for i, x in u:
            for r, y in images[cols[i]]:
                out[r] = out.get(r, 0) + x * y
        for r, v in out.items():
            if p:
                v %= p
            if v:
                rows[r].append((pos, v))
    return rows


def annihilates(rows: Iterable[Row], v: GradedSubspace) -> bool:
    """Whether every row of v lies in the kernel of the matrix with these
    rows: the guard of every constraint matrix that J_n must satisfy."""
    p = v.field.char
    for r in map(dict, rows):
        get = r.get
        for x in v.rows:
            s = 0
            for k, y in x:
                s += get(k, 0) * y
            if s % p if p else s:
                return False
    return True


def intersect(v: GradedSubspace, w: GradedSubspace) -> GradedSubspace:
    """Intersection by Zassenhaus: echelon the rows (x | x), x in v, and (y | 0), y in w.

    The right half of a row sits n columns to the right.  A kept row
    with a zero left half is (0 | z) with z in v and -z in w, and these
    right halves span v meet w.
    """
    v.ambient.require_same(w.ambient)
    n = v.ambient.dim
    ech = Echelon(2 * n, v.field)
    for r in v.rows:
        ech.insert(r + tuple((c + n, x) for c, x in r))
    for r in w.rows:
        ech.insert(r)
    right = ([(c - n, x) for c, x in r.items()] for j, r in ech.pivot_rows.items() if j >= n)
    return span(right, v.ambient, v.field)
