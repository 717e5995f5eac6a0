"""Slow reference computations that tests compare the package against.

Each oracle takes a route the package does not use: point ideals built
by the degree recursion over their linear generators, ideal pieces and
products built from ``HomogPoly`` products, hom spaces and probe meets
built as subspaces where the package counts their dimensions from ranks,
quotient coordinates obtained by reduction against those pieces, sums of
subspaces as spans of both row sets where the package counts them in a
quotient, spans that read every generator with no rank ceiling, Segre
witness spaces in raw pair coordinates and fiber by fiber through an
echelon where the package counts components, the component count itself
fiber by fiber (``witness_dims_per_fiber``) where the package counts one
fiber per symmetry class, and multiplicative relations
found by exhaustive search over small exponents.  They are exact but
only affordable in low degree.

(IS)_m and (T_+^2)_n keep their subspace routes (``is_piece_span``,
``decomposable_piece_span``), where the package counts their ranks, and
an ideal's pieces keep their elimination route
(``ideal_piece_eliminated``), where the package writes a piece spanned
by monomials down.  The constraints of T_n and R'_m keep their
multiply-then-evaluate route (``evaluation_constraint_row``), where the
package multiplies into U/I through ``TwistRing.left_mult_rows``, and
the spans capped at dim T_n are built here (``span_capped``), where
``linalg.span`` takes no cap.

A point ideal's constraint guard keeps its piece route
(``point_guard_on_piece``): ``linalg.annihilates`` against the piece
built from the evaluation row, where the package compares each row with
the evaluation row itself.

The probe keeps its spanning route (``probe_dims_spanning``): fS and fT
spanned and guarded by ``contains_subspace``, where the package counts
both from least columns.

The polynomial primitives keep their first routes here too: the product
table with one ``mono_mul`` tuple per cell (``product_index_mono_mul``),
where the package adds integer monomial codes, polynomials as sorted
(monomial, coefficient) terms (``terms_from_dict``, ``terms_add``,
``terms_neg``, ``terms_scale``, ``terms_mul``), where the package keeps
one int row over one denominator, the product
by one ``mono_mul`` per pair of terms, a diagonal map applied by one
power per variable per term, a non-diagonal map applied with the powers
of the variable images rebuilt on every call, the opposite-ring check
that twists both factors of every pair afresh, the associativity sample
on ``HomogPoly`` products where the package multiplies int rows, values
at a point summed term by term (``evaluate``, ``evaluate_at``) where the
package asks only whether a form vanishes there and reads that off the
evaluation row, and orbit points reached as one pullback along phi^k
(``orbit_point``) or by stepping the orbit one point at a time
(``orbit_point_walk``) where the package moves a point ideal by
``point_image`` under the ring's cached inverse power.  Twisted products of pieces
are ``HomogPoly`` products ``twisted_products`` over ``monomial_polys``
where the package multiplies int rows, and a twisted ideal's piece is
``AutoMap.apply`` on the basis of the piece (``twisted_piece_apply``)
where the package moves the ideal once per power.  ``basis_polys`` reads
a piece's canonical rows as the polynomials these routes take; the
package twists and multiplies the rows themselves.

The Ext layer keeps its eager routes: a Koszul differential as one list
with every block built before any row is read (``cochain_matrix_eager``,
and the ranks and Ext dimensions read from it), multiplication blocks
with one product row per column sent through ``quotient_coords``
(``mult_rows_per_column``), and a diagonal map's image table with one
(column, weight) pair per monomial (``diagonal_image_table_pairs``),
where the package yields rows lazily, sums quotient-map images into each
column and keeps one weight per column.  A diagonal map's weights are
products of powers (``diagonal_weights_closed_form``) and a point's
monomial values are computed in field arithmetic
(``monomial_values_fraction``), where the package builds both degree by
degree on ints.

The package's rows are sparse (column, value) pairs.  ``DenseEchelon``
is the echelon engine the package used on full-width int lists before
it went sparse, kept as the oracle its sparse engine is compared with;
``densify`` and ``sparsify`` move rows between the two forms.
"""

import random
from fractions import Fraction
from itertools import combinations
from itertools import product as iter_product
from math import gcd, lcm, prod

from idealizer.automorphism import AutoMap, point_image
from idealizer.fields import int_row
from idealizer.linalg import (
    Echelon,
    GradedSubspace,
    annihilates,
    intersect,
    kernel,
    rank_rows,
    span,
    span_polys,
)
from idealizer.poly import (
    HomogPoly,
    basis_dim,
    basis_index,
    monomial_basis,
    monomial_values,
    monomials,
    poly_to_vector,
    product_index,
    times_monomial,
)
from idealizer.segre import _components
from idealizer.twist import GradedIdeal, TwistRing, point_ideal_forms


def densify(row, width, zero=0):
    """The full-width list of a sparse row."""
    out = [zero] * width
    for c, x in row:
        out[c] = x
    return out


def sparsify(vec):
    """The sparse row of a full-width list."""
    return [(c, x) for c, x in enumerate(vec) if x]


# -- the dense echelon engine ---------------------------------------------------------


def _dense_normalize(vec, p):
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


def _dense_eliminate(vec, row, j, p, start):
    """Clear vec[j] using row, whose pivot is j (positive, or 1 mod p); both are 0 before start."""
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


class DenseEchelon:
    """Row echelon accumulator on full-width int lists: the package's
    ``Echelon`` before its rows went sparse, scanning every column."""

    def __init__(self, width, field):
        self.width = width
        self.p = field.char
        self.rows = []
        self.pivot_to_row = {}

    def insert(self, vec):
        if len(vec) != self.width:
            raise ValueError("vector length %d, ambient dim %d" % (len(vec), self.width))
        p = self.p
        ints = [v % p for v in vec] if p else list(vec)
        for j in range(self.width):
            if ints[j]:
                r = self.pivot_to_row.get(j)
                if r is None:
                    _dense_normalize(ints, p)
                    self.pivot_to_row[j] = len(self.rows)
                    self.rows.append(ints)
                    return True
                _dense_eliminate(ints, self.rows[r], j, p, j)
        return False

    @property
    def dim(self):
        return len(self.rows)

    def canonical_rows(self):
        """Pivot columns and the full-width int rows of the reduced row echelon form."""
        p = self.p
        order = sorted(self.pivot_to_row)
        rows = [list(self.rows[self.pivot_to_row[j]]) for j in order]
        for i in range(len(rows) - 1, -1, -1):
            for h in range(i):
                if rows[h][order[i]]:
                    _dense_eliminate(rows[h], rows[i], order[i], p, order[h])
        return tuple(order), tuple(map(tuple, rows))


# -- polynomial products, diagonal maps, the twisted-product checks and orbit points


def mono_mul(a, b):
    """The exponent tuple of the product of two monomials."""
    return tuple(x + y for x, y in zip(a, b))


def product_index_mono_mul(nvars, a, b):
    """``poly.product_index`` with one ``mono_mul`` tuple and one lookup
    in the degree-(a + b) basis index per cell."""
    idx = basis_index(nvars, a + b)
    right = monomials(nvars, b)
    return tuple(tuple(idx[mono_mul(m, r)] for r in right) for m in monomials(nvars, a))


def terms_from_dict(coeffs, char):
    """``HomogPoly.from_dict`` as it was on (monomial, coefficient) terms:
    the terms sorted in the frozen order, reduced mod p, zeros dropped."""
    items = sorted(coeffs.items(), reverse=True)
    if char:
        items = [(m, c % char) for m, c in items]
    return tuple((m, c) for m, c in items if c)


def terms_add(s, t, char):
    """The terms of a sum, added monomial by monomial."""
    acc = dict(s)
    for m, c in t:
        prev = acc.get(m)
        acc[m] = c if prev is None else prev + c
    return terms_from_dict(acc, char)


def terms_neg(s, char):
    return terms_from_dict({m: -c for m, c in s}, char)


def terms_scale(s, c, char):
    return terms_from_dict({m: c * a for m, a in s}, char)


def terms_mul(s, t, char):
    """The terms of a product summed over pairs of terms, one ``mono_mul`` per pair."""
    acc = {}
    for m1, c1 in s:
        for m2, c2 in t:
            m = mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return terms_from_dict(acc, char)


def poly_mul_terms(f, g):
    """f * g by ``terms_mul``."""
    acc = dict(terms_mul(f.terms, g.terms, f.char))
    return HomogPoly.from_dict(f.nvars, f.degree + g.degree, acc, f.char)


def diagonal_apply_per_term(auto, f):
    """A diagonal map applied to f with one power per variable per term, uncached."""
    diag = [auto.entry(i, i) for i in range(auto.nvars)]
    out = {}
    for m, c in f.terms:
        v = c
        for x, e in zip(diag, m):
            if e:
                v = v * x**e
        out[m] = v
    return HomogPoly.from_dict(f.nvars, f.degree, out, f.char)


def opposite_iso_check_per_pair(ring, max_total_degree):
    """``TwistRing.opposite_iso_check`` with five ``apply`` calls and two
    products for every pair, nothing hoisted out of the pair loop."""
    opposite = TwistRing(ring.d, ring.phi.inv(), ring.field)
    checked = 0
    for a in range(max_total_degree + 1):
        for b in range(max_total_degree + 1 - a):
            for fm in ring.basis(a):
                f = HomogPoly.monomial(fm, 1, ring.field.char)
                for gm in ring.basis(b):
                    g = HomogPoly.monomial(gm, 1, ring.field.char)
                    # f .op g is g . f computed in this ring
                    lhs = ring.power(-(a + b)).apply(ring.mul(g, f))
                    rhs = opposite.mul(ring.power(-a).apply(f), ring.power(-b).apply(g))
                    checked += 1
                    if lhs != rhs:
                        return False, checked, (fm, gm)
    return True, checked, None


def associativity_sample_polys(ring, trials, seed, max_degree=3):
    """``twist.associativity_sample`` with every factor a ``HomogPoly``:
    the same random draws, each product ``TwistRing.mul``."""
    rng = random.Random(seed)

    def rand_poly(deg):
        coeffs = {}
        for m in monomials(ring.nvars, deg):
            if rng.random() < 0.6:
                coeffs[m] = ring.field.from_int(rng.randint(-4, 4))
        return HomogPoly.from_dict(ring.nvars, deg, coeffs, ring.field.char)

    for _ in range(trials):
        a, b, c = (rng.randint(1, max_degree) for _ in range(3))
        f, g, h = rand_poly(a), rand_poly(b), rand_poly(c)
        if ring.mul(ring.mul(f, g), h) != ring.mul(f, ring.mul(g, h)):
            return False
    return True


def matrix_apply_per_call(auto, f):
    """A non-diagonal map applied to f on terms, the images of the
    variables and their powers rebuilt on every call and nothing cached on
    the map."""
    n, p = f.nvars, f.char
    images = [
        tuple((tuple(1 if k == j else 0 for k in range(n)), auto.entry(j, i)) for j in range(n))
        for i in range(n)
    ]
    total = ()
    for m, c in f.terms:
        term = ((tuple(0 for _ in m), c),)
        for i, e in enumerate(m):
            for _ in range(e):
                term = terms_mul(term, images[i], p)
        total = terms_add(total, term, p)
    return HomogPoly.from_dict(n, f.degree, dict(total), p)


def evaluate(f, coords, field):
    """The value of f at an affine coordinate tuple (not scale-invariant),
    summed term by term in field arithmetic."""
    if len(coords) != f.nvars:
        raise ValueError("point has %d coordinates, expected %d" % (len(coords), f.nvars))
    total = field.zero
    for m, c in f.terms:
        v = c
        for x, e in zip(coords, m):
            if e:
                v = v * x**e
        total = total + v
    return total % field.char if field.char else total


def evaluate_at(f, pt, field):
    """The value of f at the canonical representative of pt; the value
    depends on the representative, its vanishing does not."""
    return evaluate(f, pt.coords, field)


def pullback_point(auto, pt):
    """The point P' with f(pt) = apply(A, f)(P'); coordinates (A^-1)^T pt."""
    return point_image(auto.inv(), pt)


def orbit_point(auto, start, n):
    """The single point c_n, c_0 = start, as one pullback along auto^n:
    pullback along A sends P to (A^-1)^T P, so n steps along either side
    of the orbit compose to the pullback along A^n."""
    return pullback_point(auto.power(n), start)


def orbit_point_walk(auto, start, n):
    """c_n, c_0 = start, in |n| steps along n's side of the orbit."""
    step = pullback_point if n > 0 else point_image
    pt = start
    for _ in range(abs(n)):
        pt = step(auto, pt)
    return pt


# -- twisted products and twisted ideals by polynomials -----------------------------


def basis_polys(V):
    """The canonical rows of a polynomial piece as polynomials with integer coefficients."""
    amb = V.ambient
    return [HomogPoly.from_row(amb.nvars, amb.degree, r, 1, V.field.char) for r in V.rows]


def monomial_polys(ring, n):
    """The degree-n monomials of the ring as polynomials."""
    return [HomogPoly.monomial(m, 1, ring.field.char) for m in ring.basis(n)]


def twisted_products(ring, lefts, rights):
    """Yield the HomogPoly products f . g = phi^(deg g)(f) * g, g of one degree,
    each f twisted once; f is the outer loop and g the inner one."""
    if not rights:
        return
    b = rights[0].degree
    for f in lefts:
        tf = ring.twisted(b, f)
        for g in rights:
            yield tf * g


def twisted_piece_apply(ideal, power, n):
    """The degree-n piece of phi^power(J): ``AutoMap.apply`` on each basis
    polynomial of J_n."""
    auto = ideal.ring.power(power)
    polys = [auto.apply(f) for f in basis_polys(ideal.piece(n))]
    return span_polys(polys, ideal.ring.ambient(n), ideal.ring.field)


# -- point ideals by recursion ------------------------------------------------------


def recursive_point_ideal(ring, point):
    """The point ideal with pieces from the x_v * I_{n-1} recursion."""
    return GradedIdeal(ring, point_ideal_forms(ring, point))


# -- reduction against RREF rows, and sums of subspaces -----------------------------


def reduce_against(V, vec):
    """vec minus its projection onto V (vec[j] times the RREF row of each
    pivot j), times the lcm of those rows' int pivots, as a full-width
    list; and that lcm."""
    n = V.ambient.dim
    vec = densify(vec, n)
    rows = [densify(row, n) for row in V.rows]
    hits = [(vec[j], j, row) for j, row in zip(V.pivots, rows) if vec[j]]
    scale = lcm(*(row[j] for _, j, row in hits))
    res = [scale * x for x in vec]
    for c, j, row in hits:
        c *= scale // row[j]
        for k in range(j, n):
            if row[k]:
                res[k] -= c * row[k]
    p = V.field.char
    return ([x % p for x in res] if p else res), scale


def quotient_coords_by_reduction(V, vec):
    """Quotient coordinates of vec read off its reduction: the non-pivot
    entries as a sparse row in column order, and the scale they are over."""
    res, scale = reduce_against(V, vec)
    return sparsify([res[j] for j in V.nonpivot_columns]), scale


def contains_subspace(v, w):
    """Whether the subspace v contains w, row by row of w."""
    v.ambient.require_same(w.ambient)
    return all(v.contains_vector(r) for r in w.rows)


def subspace_sum(v, w):
    """V + W as the span of both row sets."""
    v.ambient.require_same(w.ambient)
    return span(v.rows + w.rows, v.ambient, v.field)


# -- idealizer constraints by reduction -----------------------------------------


def residual_quotient_row(idl, ideal, shifted, source_degree):
    """Coordinate of shifted * e_k in U/I by reduction, one per monomial e_k."""
    target = ideal.piece(source_degree + shifted.degree)
    row = []
    for mono in monomial_basis(idl.ring.d, source_degree):
        prod = shifted * HomogPoly.monomial(mono, 1, idl.field.char)
        if target.ambient.dim - target.dim != 1:
            raise ArithmeticError("point ideal piece is not of codimension one")
        # every coordinate is over the target's one denominator, which int_row drops
        ints, _ = target.quotient_coords(poly_to_vector(prod, idl.field))
        row.append(dict(ints).get(0, 0))
    return int_row(row, idl.field)


def _kernel_span(idl, rows, degree):
    vecs = kernel(rows, basis_dim(idl.ring.nvars, degree), idl.field)
    return span(vecs, idl.ring.ambient(degree), idl.field)


def idealizer_piece_full(idl, n, j_cap):
    """T_n from every constraint phi^n(I_j) . x <= I_{j+n}, j <= cap."""
    ideal = recursive_point_ideal(idl.ring, idl.point)
    rows = [
        residual_quotient_row(idl, ideal, idl.ring.twisted(n, f), n)
        for j in range(1, j_cap + 1)
        for f in basis_polys(ideal.piece(j))
    ]
    return _kernel_span(idl, rows, n)


def veronese_idealizer_piece_residual(idl, n, m, j_cap):
    """R'_m with constraint rows reduced against the recursive ideal."""
    ideal = recursive_point_ideal(idl.ring, idl.point)
    rows = [
        residual_quotient_row(idl, ideal, idl.ring.twisted(n * m, b), n * m)
        for j in range(1, j_cap + 1)
        for b in basis_polys(ideal.piece(n * j))
    ]
    return _kernel_span(idl, rows, n * m)


# -- spans without a rank ceiling ---------------------------------------------------


def span_all(vectors, ambient, field):
    """The span of every vector: the echelon reads them all."""
    ech = Echelon(ambient.dim, field)
    for v in vectors:
        ech.insert(v)
    return GradedSubspace(ambient, field, *ech.canonical_rows())


def _span_all_polys(polys, ambient, field):
    return span_all((poly_to_vector(f, field) for f in polys), ambient, field)


def span_capped(vectors, ambient, field, cap):
    """The span of the vectors, read until the rank reaches ``cap``, as
    ``linalg.span`` took a cap before its ceilings became ranks."""
    ech = Echelon(ambient.dim, field)
    if cap > 0:
        for v in vectors:
            if ech.insert(v) and ech.dim >= cap:
                break
    return GradedSubspace(ambient, field, *ech.canonical_rows())


def decomposable_piece_polys(idl, n):
    """(T_+^2)_n from HomogPoly products T_a . T_{n-a}, 0 < a < n, stopped at
    rank dim T_n and checked against T_n there, as the package once built it."""
    polys = (
        g
        for a in range(1, n)
        for g in twisted_products(
            idl.ring,
            basis_polys(idl.idealizer_piece(a)),
            basis_polys(idl.idealizer_piece(n - a)),
        )
    )
    target = idl.idealizer_piece(n)
    vectors = (poly_to_vector(f, idl.field) for f in polys)
    piece = span_capped(vectors, idl.ring.ambient(n), idl.field, target.dim)
    if piece.dim == target.dim and piece != target:
        raise ArithmeticError("products of T reach dim T_%d but leave T_%d" % (n, n))
    return piece


def decomposable_piece_uncapped(idl, n):
    """(T_+^2)_n from every product T_a . T_{n-a}, 0 < a < n."""
    polys = (
        g
        for a in range(1, n)
        for g in twisted_products(
            idl.ring,
            basis_polys(idl.idealizer_piece(a)),
            basis_polys(idl.idealizer_piece(n - a)),
        )
    )
    return _span_all_polys(polys, idl.ring.ambient(n), idl.field)


def is_piece_uncapped(idl, m):
    """(IS)_m from every product phi^i(I_{m-i}) . U_i, 0 <= i < m."""
    polys = (
        g
        for i in range(m)
        for g in twisted_products(
            idl.ring, basis_polys(idl.I.piece(m - i)), monomial_polys(idl.ring, i)
        )
    )
    return _span_all_polys(polys, idl.ring.ambient(m), idl.field)


def is_piece_span(idl, m):
    """(IS)_m as a subspace: the span of the int-row products
    phi^i(I_{m-i}) . U_i, 0 <= i < m, stopped at rank dim U_m, as the
    package built it before it counted the rank."""
    rows = (
        row
        for i in range(m)
        for row in idl.ring.product_rows(
            idl.I.piece(m - i).rows,
            m - i,
            [((j, 1),) for j in range(basis_dim(idl.ring.nvars, i))],
            i,
        )
    )
    return span(rows, idl.ring.ambient(m), idl.field)


def decomposable_piece_span(idl, n):
    """(T_+^2)_n as a subspace: the span of the int-row products
    T_a . T_{n-a}, 0 < a < n, stopped at rank dim T_n and compared with
    T_n there, as the package built it before it counted the rank."""
    rows = (
        row
        for a in range(1, n)
        for row in idl.ring.product_rows(
            idl.idealizer_piece(a).rows, a, idl.idealizer_piece(n - a).rows, n - a
        )
    )
    target = idl.idealizer_piece(n)
    piece = span_capped(rows, idl.ring.ambient(n), idl.field, target.dim)
    if piece.dim == target.dim and piece != target:
        raise ArithmeticError("products of T reach dim T_%d but leave T_%d" % (n, n))
    return piece


def evaluation_constraint_row(idl, row, degree, source_degree):
    """Constraint row by multiply-then-evaluate: the value at the point of
    g * e_k, one per monomial e_k of the source degree, for g of the given
    degree with int row ``row``.

    I_m is the kernel of evaluation at the point, so the value is the
    coordinate of g * e_k in the one-dimensional U_m/I_m, up to a nonzero
    scale that does not change the kernel.  The evaluation row is built
    for every row, as ``IdealizerRing`` built it before the constraints
    of T_n, R'_m and the hom tables became one ``TwistRing.left_mult_rows``.
    """
    nvars = idl.ring.nvars
    values = dict(monomial_values(idl.point.coords, idl.field, source_degree + degree))
    table = product_index(nvars, degree, source_degree)
    u = [(table[i], x) for i, x in row]
    row = [
        sum(x * values.get(cols[k], 0) for cols, x in u)
        for k in range(basis_dim(nvars, source_degree))
    ]
    return int_row(row, idl.field)


def idealizer_piece_uncapped(idl, n):
    """T_n from the kernel of all d constraint rows phi^n(I_1) . x <= I_{n+1}."""
    rows = [
        evaluation_constraint_row(idl, poly_to_vector(idl.ring.twisted(n, f), idl.field), 1, n)
        for f in idl.forms
    ]
    vecs = kernel(rows, basis_dim(idl.ring.nvars, n), idl.field)
    return span_all(vecs, idl.ring.ambient(n), idl.field)


def veronese_idealizer_piece_uncapped(idl, n, m, j_cap):
    """R'_m from the kernel of every constraint row, j <= cap (at m = 0
    every row is read and found zero)."""
    rows = [
        evaluation_constraint_row(
            idl, poly_to_vector(idl.ring.twisted(n * m, b), idl.field), n * j, n * m
        )
        for j in range(1, j_cap + 1)
        for b in basis_polys(idl.I.piece(n * j))
    ]
    vecs = kernel(rows, basis_dim(idl.ring.nvars, n * m), idl.field)
    return span_all(vecs, idl.ring.ambient(n * m), idl.field)


# -- ideal pieces, hom spaces and probes from polynomial products -----------------


def recursive_piece_polys(ideal, n):
    """J_n = U_1 * J_{n-1} + (generators of degree n), with every product a HomogPoly."""
    ring = ideal.ring
    polys = [g for g in ideal.gens if g.degree == n]
    if n > 0:
        prev = recursive_piece_polys(ideal, n - 1)
        for v in range(ring.nvars):
            xv = HomogPoly.variable(ring.nvars, v, ring.field)
            polys.extend(xv * f for f in basis_polys(prev))
    return _span_all_polys(polys, ring.ambient(n), ring.field)


def ideal_piece_eliminated(ideal, n):
    """J_n = U_1 * J_{n-1} + (generators of degree n) on int rows, every
    piece an ``Echelon`` span, as ``GradedIdeal`` built every piece before
    it wrote monomial pieces down."""
    ring = ideal.ring
    rows = [poly_to_vector(g, ring.field) for g in ideal.gens if g.degree == n]
    if n > 0:
        prev = ideal_piece_eliminated(ideal, n - 1).rows
        for v in range(ring.nvars):
            rows.extend(times_monomial(r, v, ring.nvars, n - 1, 1) for r in prev)
    return span_all(rows, ring.ambient(n), ring.field)


def point_guard_on_piece(ideal, rows, n):
    """Whether the point ideal's piece I_n, built, lies in the kernel of
    the rows: ``linalg.annihilates`` against it, the guard of the hom
    tables and of T_n's constraint rows before a point ideal read it off
    its evaluation row."""
    return annihilates(rows, ideal.piece(n))


def _mult_rows_polys(g, degree, target, field):
    """Int matrix of x -> g * x from U_degree into U / target, column by
    HomogPoly product, as sparse rows over the monomial positions."""
    cols = [
        target.quotient_coords(poly_to_vector(g * HomogPoly.monomial(m, 1, field.char), field))
        for m in monomial_basis(g.nvars - 1, degree)
    ]
    denom = lcm(*(den for _, den in cols))
    rows = [[] for _ in range(target.ambient.dim - target.dim)]
    for k, (col, den) in enumerate(cols):
        for r, v in col:
            rows[r].append((k, v * (denom // den)))
    return rows


def hom_S_quotient_kernel(engine, J, n):
    """dim Hom_n as the span of the constraint kernel, checked to hold J_n, less dim J_n."""
    if n < 0:
        return 0
    ring, field = engine.ring, engine.field
    target = recursive_piece_polys(J, n + 1)
    rows = [
        r
        for f in engine.idealizer.forms
        for r in _mult_rows_polys(ring.twisted(n, f), n, target, field)
    ]
    sol = span_all(kernel(rows, basis_dim(ring.nvars, n), field), ring.ambient(n), field)
    inner = recursive_piece_polys(J, n)
    if not contains_subspace(sol, inner):
        raise ArithmeticError("J_n escapes its own hom constraints")
    return sol.dim - inner.dim


def probe_dims_intersect(engine, f, max_degree):
    """The probe's cokernel and torsion dimensions, with fS meet T built by ``intersect``.

    fS and fT are spans of HomogPoly products f . g = phi^(deg g)(f) * g.
    """
    ring, field, idl = engine.ring, engine.field, engine.idealizer
    n = f.degree
    coker, torsion = [], []
    for m in range(n, max_degree + 1):
        amb = ring.ambient(m)
        fS = _span_all_polys(twisted_products(ring, [f], monomial_polys(ring, m - n)), amb, field)
        T = idl.idealizer_piece(m)
        coker.append(amb.dim - subspace_sum(fS, T).dim)
        meet = intersect(fS, T)
        fT = _span_all_polys(
            twisted_products(ring, [f], basis_polys(idl.idealizer_piece(m - n))), amb, field
        )
        if not contains_subspace(meet, fT):
            raise ArithmeticError("fT escapes fS meet T")
        torsion.append(meet.dim - fT.dim)
    return coker, torsion


def probe_dims_spanning(engine, f, max_degree):
    """The probe's cokernel and torsion dimensions, with fS and fT spanned.

    fS is ``principal_right_piece`` and fT the span of f times the rows of
    T_(m-n), guarded by containment to lie in fS and in T; dim (fS + T) is
    dim T plus a rank in U/T, as in the package.
    """
    ring, field, idl = engine.ring, engine.field, engine.idealizer
    n = f.degree
    f_row = poly_to_vector(f, field)
    coker, torsion = [], []
    for m in range(n, max_degree + 1):
        fS = ring.principal_right_piece(f, m)
        T = idl.idealizer_piece(m)
        image = [T.quotient_coords(r)[0] for r in fS.rows]
        rank = rank_rows(image, T.ambient.dim - T.dim, field)
        coker.append(T.ambient.dim - T.dim - rank)
        rights = idl.idealizer_piece(m - n).rows
        fT = span(ring.product_rows([f_row], n, rights, m - n), ring.ambient(m), field)
        if not (contains_subspace(fS, fT) and contains_subspace(T, fT)):
            raise ArithmeticError("fT escapes fS meet T")
        torsion.append(fS.dim - rank - fT.dim)
    return coker, torsion


# -- the Ext layer's eager routes ---------------------------------------------------


def mult_rows_per_column(u, degree, indices, target, field):
    """``linalg.mult_rows`` with one product row per column, sent through
    ``quotient_coords``, and every column visited at codimension 0."""
    table = product_index(target.ambient.nvars, target.ambient.degree - degree, degree)
    rows = [[] for _ in range(target.ambient.dim - target.dim)]
    for pos, k in enumerate(indices):
        for r, v in target.quotient_coords([(table[k][i], x) for i, x in u])[0]:
            rows[r].append((pos, v))
    return rows


def mult_matrix_per_column(J, form, n):
    """Multiplication by a linear form from U_n/J_n to U_(n+1)/J_(n+1), the
    Koszul block, on ``mult_rows_per_column`` against J's pieces."""
    if n < 0:
        return [[] for _ in range(J.codim(n + 1))]
    source, target = J.piece(n), J.piece(n + 1)
    return mult_rows_per_column(form, 1, source.nonpivot_columns, target, J.ring.field)


def cochain_matrix_eager(kos, J, i, n):
    """delta^i on U/J as one list of rows, every block built before any
    row is read, on ``mult_matrix_per_column``."""
    src_index = {A: p for p, A in enumerate(combinations(range(kos.d), i))}
    tgt = list(combinations(range(kos.d), i + 1))
    sdim = J.codim(n + i)
    tdim = J.codim(n + i + 1)
    rows = [[] for _ in range(tdim * len(tgt))]
    mults = {}
    for q, B in enumerate(tgt):
        for t, b in enumerate(B):
            offset = src_index[B[:t] + B[t + 1:]] * sdim
            sign = -1 if t % 2 else 1
            if b not in mults:
                mults[b] = mult_matrix_per_column(J, kos.rows[b], n + i)
            for r, block_row in enumerate(mults[b]):
                rows[q * tdim + r].extend((offset + k, sign * v) for k, v in block_row)
    return rows


def koszul_rank_eager(kos, J, i, n):
    """The rank of delta^i from every row of ``cochain_matrix_eager``, none kept."""
    if i < 0 or i >= kos.d:
        return 0
    ech = Echelon(kos.cochain_dim(J, i, n), kos.field)
    for r in cochain_matrix_eager(kos, J, i, n):
        ech.insert(r)
    return ech.dim


def koszul_ext_eager(kos, J, i, n):
    """dim Ext^i against U/J from ``koszul_rank_eager``."""
    if i < 0 or i > kos.d:
        return 0
    ranks = koszul_rank_eager(kos, J, i, n) + koszul_rank_eager(kos, J, i - 1, n)
    return kos.cochain_dim(J, i, n) - ranks


def diagonal_weights_closed_form(auto, n):
    """A diagonal map's degree-n weights, each one product of powers of the
    column scales under den * matrix, reduced mod p only at the end."""
    p, den = auto.field.char, auto.den
    diag = (auto.entry(i, i) for i in range(auto.nvars))
    scale = [x.numerator * (den // x.denominator) for x in diag]
    weights = (prod(x**e for x, e in zip(scale, m)) for m in monomials(auto.nvars, n))
    return tuple(w % p for w in weights) if p else tuple(weights)


def diagonal_image_table_pairs(auto, n):
    """A diagonal map's image table with one (column, weight) pair per
    monomial, the shape of a non-diagonal map's table."""
    return tuple(((j, w),) for j, w in enumerate(diagonal_weights_closed_form(auto, n)))


def monomial_values_fraction(coords, field, degree):
    """The evaluation row at coords in the given degree, each monomial's
    value a product of powers of the coordinates in field arithmetic
    (``Fraction`` over Q), then made one int row by ``int_row``."""
    values = []
    for mono in monomials(len(coords), degree):
        v = field.one
        for x, e in zip(coords, mono):
            if e:
                v = v * x**e
        values.append(v)
    return tuple(int_row(values, field))


def diagonal_apply_row_pairs(auto, row, n):
    """``AutoMap.apply_row`` for a diagonal map, summing the image rows of
    ``diagonal_image_table_pairs``."""
    table = diagonal_image_table_pairs(auto, n)
    out = {}
    for j, x in row:
        for k, a in table[j]:
            out[k] = out.get(k, 0) + x * a
    p = auto.field.char
    if p:
        return [(k, v % p) for k, v in out.items() if v % p]
    return [(k, v) for k, v in out.items() if v]


# -- Segre witness in raw pair coordinates ----------------------------------------


def ideal_piece(ctx, point, m):
    """I_m for the point, by the degree-one recursion."""
    ring = TwistRing(ctx.d, AutoMap.identity(ctx.nvars, ctx.field), ctx.field)
    return recursive_point_ideal(ring, point).piece(m)


def K_piece(ctx, point, m):
    """Span of I_m tensor I_m: outer products of basis vectors."""
    piece = ideal_piece(ctx, point, m)
    dim = piece.ambient.dim
    vecs = [
        [(i * dim + j, a * b) for i, a in u for j, b in v] for u in piece.rows for v in piece.rows
    ]
    return span(vecs, ctx.ambient(m), ctx.field)


def segre_product_span(ctx, v, w):
    """Span of all products of elements of two pair-graded pieces."""
    if v.ambient.kind != "pair" or w.ambient.kind != "pair":
        raise ValueError("segre products need pair ambients")
    a, b = v.ambient.degree, w.ambient.degree
    target = ctx.ambient(a + b)
    basis_a = monomial_basis(ctx.d, a)
    basis_b = monomial_basis(ctx.d, b)
    dim_a = basis_dim(ctx.nvars, a)
    dim_b = basis_dim(ctx.nvars, b)
    dim_t = basis_dim(ctx.nvars, a + b)
    idx_t = basis_index(ctx.nvars, a + b)

    def gens():
        for x in v.rows:
            for y in w.rows:
                vec = [0] * target.dim
                for p, xval in x:
                    mu, nu = basis_a[p // dim_a], basis_a[p % dim_a]
                    for q, yval in y:
                        mu2, nu2 = basis_b[q // dim_b], basis_b[q % dim_b]
                        left = idx_t[tuple(s + t for s, t in zip(mu, mu2))]
                        right = idx_t[tuple(s + t for s, t in zip(nu, nu2))]
                        slot = left * dim_t + right
                        vec[slot] = vec[slot] + xval * yval
                yield sparsify(vec)

    return span(gens(), target, ctx.field)


def witness_dims_naive(ctx, point, max_piece):
    """dim ((J meet K)/(sum of J_a.K_b))_m from raw pair coordinates, K
    built at the point."""
    out = {}
    for m in range(1, max_piece + 1):
        meet = intersect(ctx.diagonal_ideal_piece(m), K_piece(ctx, point, m))
        # the product piece is the span over all bidegree splits;
        # J_0 and K_0 vanish, so a and b both run over positive degrees
        ech = Echelon(ctx.ambient(m).dim, ctx.field)
        for a in range(1, m):
            prod = segre_product_span(ctx, ctx.diagonal_ideal_piece(a), K_piece(ctx, point, m - a))
            for row in prod.rows:
                ech.insert(row)
        out[m] = meet.dim - ech.dim
    return out


def witness_dims_per_fiber(ctx, max_piece):
    """Dims of (J meet K), (J.K) and their quotient, one fiber at a time.

    Every fiber F_w is built by scanning all |K_m|^2 pairs of K monomials
    and gets its own union-find, where the package runs one per symmetry
    class of fibers under permutations of x_1..x_d.
    """
    meet_dims = {}
    product_dims = {}
    witness = {}
    for m in range(1, max_piece + 1):
        kbasis = [mu for mu in monomial_basis(ctx.d, m) if mu[0] < m]
        fibers = {}
        for mu in kbasis:
            for nu in kbasis:
                fibers.setdefault(tuple(a + b for a, b in zip(mu, nu)), []).append(mu)
        meet_dims[m] = len(kbasis) ** 2 - len(fibers)
        witness[m] = sum(_components(w, lefts) - 1 for w, lefts in fibers.items())
        product_dims[m] = meet_dims[m] - witness[m]
    return {
        "meet_dims": meet_dims,
        "product_dims": product_dims,
        "witness_dims": witness,
    }


def _pure_power(nvars: int, degree: int):
    return tuple(degree if i == 0 else 0 for i in range(nvars))


def witness_dims_blockwise(ctx, max_piece):
    """Blockwise dims of (J meet K), (J.K), and their quotient.

    In adapted coordinates the three spaces split over the fibers
    F_w = {(mu, nu) : mu nu = w}; K selects the pairs with both sides
    different from the pure power of the nonvanishing coordinate, and
    (J.K)_m = J_{m-1}.K_1 because K_{b+1} = U_1.K_b for point ideals.
    Each fiber's product rows, lifted from the degree-(m-1) sub-fibers,
    go through an ``Echelon``.
    """
    meet_dims = {}
    product_dims = {}
    witness = {}
    for m in range(1, max_piece + 1):
        pure = _pure_power(ctx.nvars, m)
        meet_total = 0
        prod_total = 0
        for w in monomials(ctx.nvars, 2 * m):
            fiber = [
                (mu, tuple(a - b for a, b in zip(w, mu)))
                for mu in monomials(ctx.nvars, m)
                if all(a >= b for a, b in zip(w, mu))
            ]
            kpairs = [
                (mu, nu) for mu, nu in fiber if mu != pure and nu != pure
            ]
            meet_total += max(len(kpairs) - 1, 0)
            index = {pair: t for t, pair in enumerate(kpairs)}
            ech = Echelon(len(kpairs), ctx.field)
            for i in range(1, ctx.nvars):
                if not w[i]:
                    continue
                for j in range(1, ctx.nvars):
                    s = list(w)
                    s[i] -= 1
                    s[j] -= 1
                    if s[j] < 0:
                        continue
                    sub = [
                        (alpha, tuple(a - b for a, b in zip(s, alpha)))
                        for alpha in monomials(ctx.nvars, m - 1)
                        if all(a - b >= 0 for a, b in zip(s, alpha))
                    ]
                    if len(sub) < 2:
                        continue

                    def lift(pair):
                        alpha, beta = pair
                        left = tuple(a + (k == i) for k, a in enumerate(alpha))
                        return left, tuple(b + (k == j) for k, b in enumerate(beta))

                    base = lift(sub[0])
                    for other in sub[1:]:
                        pairs = lift(other), base
                        if any(pair not in index for pair in pairs):
                            raise ArithmeticError("product generator escapes the K block")
                        ech.insert(((index[pairs[0]], 1), (index[pairs[1]], -1)))
            prod_total += ech.dim
        meet_dims[m] = meet_total
        product_dims[m] = prod_total
        witness[m] = meet_total - prod_total
    return {
        "meet_dims": meet_dims,
        "product_dims": product_dims,
        "witness_dims": witness,
    }


def phi_tensor_invariance(ctx, auto, m):
    """Is J_m stable under phi tensor phi acting on pairs?"""
    piece = ctx.diagonal_ideal_piece(m)
    dim_m = basis_dim(ctx.nvars, m)
    basis = monomial_basis(ctx.d, m)
    images = [auto.apply(HomogPoly.monomial(mu, 1, ctx.field.char)) for mu in basis]
    vecs = [[g.coeff(nu, ctx.field) for nu in basis] for g in images]
    image_vecs = []
    for row in piece.rows:
        out = [ctx.field.zero] * piece.ambient.dim
        for p, val in row:
            lvec = vecs[p // dim_m]
            rvec = vecs[p % dim_m]
            for li, lv in enumerate(lvec):
                if not lv:
                    continue
                coeff = val * lv
                for ri, rv in enumerate(rvec):
                    if rv:
                        slot = li * dim_m + ri
                        out[slot] = out[slot] + coeff * rv
        image_vecs.append(int_row(out, ctx.field))
    return span(image_vecs, piece.ambient, ctx.field) == piece


# -- multiplicative relations by exhaustive search ---------------------------------


def brute_force_relation(multipliers, max_exp: int = 5):
    """Smallest-support exhaustive search for a multiplicative relation."""
    ps = tuple(Fraction(p) for p in multipliers)
    best = None
    for combo in iter_product(range(-max_exp, max_exp + 1), repeat=len(ps)):
        if not any(combo):
            continue
        value = Fraction(1)
        for p, a in zip(ps, combo):
            value *= p**a
        if value == 1:
            weight = sum(abs(a) for a in combo)
            if best is None or weight < best[0]:
                best = (weight, combo)
    if best is None:
        return None
    combo = best[1]
    lead = next((a for a in combo if a), 0)
    return tuple(-a for a in combo) if lead < 0 else tuple(combo)
