"""Slow reference computations that tests compare the package against.

Each oracle takes a route the package does not use: point ideals built
by the degree recursion over their linear generators, ideal pieces and
products built from ``HomogPoly`` products, hom spaces and probe meets
built as subspaces where the package counts their dimensions from ranks,
quotient coordinates obtained by reduction against those pieces, sums of
subspaces as spans of both row sets where the package counts them in a
quotient, spans that read every generator with no rank ceiling, Segre
witness spaces in raw pair coordinates, and multiplicative relations
found by exhaustive search over small exponents.  They are exact but
only affordable in low degree.
"""

from fractions import Fraction
from itertools import product as iter_product
from math import lcm

from idealizer.automorphism import AutoMap
from idealizer.fields import int_row, scalar_row
from idealizer.linalg import Echelon, GradedSubspace, intersect, kernel, span
from idealizer.poly import HomogPoly, basis_dim, basis_index, monomial_basis, poly_to_vector
from idealizer.twist import GradedIdeal, TwistRing, point_ideal_forms


def recursive_point_ideal(ring, point):
    """The point ideal with pieces from the x_v * I_{n-1} recursion."""
    return GradedIdeal(ring, point_ideal_forms(ring, point))


# -- reduction against RREF rows, and sums of subspaces -----------------------------


def reduce_against(V, vec):
    """vec minus its projection onto V (vec[j] times the RREF row of each
    pivot j), times the lcm of those rows' int pivots; and that lcm."""
    n = V.ambient.dim
    if len(vec) != n:
        raise ValueError("vector length mismatch")
    hits = [(vec[j], j, row) for j, row in zip(V.pivots, V.rows) if vec[j]]
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
    entries and the scale they are over."""
    res, scale = reduce_against(V, vec)
    return [res[j] for j in V.nonpivot_columns], scale


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
        ints, den = target.quotient_coords(poly_to_vector(prod, idl.field))
        coords = scalar_row(ints, idl.field, den)
        if len(coords) != 1:
            raise ArithmeticError("point ideal piece is not of codimension one")
        row.append(coords[0])
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
        for f in ideal.piece(j).basis_polys()
    ]
    return _kernel_span(idl, rows, n)


def veronese_idealizer_piece_residual(idl, n, m, j_cap):
    """R'_m with constraint rows reduced against the recursive ideal."""
    ideal = recursive_point_ideal(idl.ring, idl.point)
    rows = [
        residual_quotient_row(idl, ideal, idl.ring.twisted(n * m, b), n * m)
        for j in range(1, j_cap + 1)
        for b in ideal.piece(n * j).basis_polys()
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


def decomposable_piece_uncapped(idl, n):
    """(T_+^2)_n from every product T_a . T_{n-a}, 0 < a < n."""
    polys = (
        g
        for a in range(1, n)
        for g in idl.ring.products(
            idl.idealizer_piece(a).basis_polys(), idl.idealizer_piece(n - a).basis_polys()
        )
    )
    return _span_all_polys(polys, idl.ring.ambient(n), idl.field)


def is_piece_uncapped(idl, m):
    """(IS)_m from every product phi^i(I_{m-i}) . U_i, 0 <= i < m."""
    polys = (
        g
        for i in range(m)
        for g in idl.ring.products(idl.I.piece(m - i).basis_polys(), idl.ring.monomial_polys(i))
    )
    return _span_all_polys(polys, idl.ring.ambient(m), idl.field)


def idealizer_piece_uncapped(idl, n):
    """T_n from the kernel of all d constraint rows phi^n(I_1) . x <= I_{n+1}."""
    rows = [idl._quotient_row(idl.ring.twisted(n, f), n) for f in idl.forms]
    vecs = kernel(rows, basis_dim(idl.ring.nvars, n), idl.field)
    return span_all(vecs, idl.ring.ambient(n), idl.field)


def veronese_idealizer_piece_uncapped(idl, n, m, j_cap):
    """R'_m from the kernel of every constraint row, j <= cap."""
    if m == 0:
        return span_all([[1]], idl.ring.ambient(0), idl.field)
    rows = [
        idl._quotient_row(idl.ring.twisted(n * m, b), n * m)
        for j in range(1, j_cap + 1)
        for b in idl.I.piece(n * j).basis_polys()
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
            polys.extend(xv * f for f in prev.basis_polys())
    return _span_all_polys(polys, ring.ambient(n), ring.field)


def _mult_rows_polys(g, degree, target, field):
    """Int matrix of x -> g * x from U_degree into U / target, column by HomogPoly product."""
    cols = [
        target.quotient_coords(poly_to_vector(g * HomogPoly.monomial(m, 1, field.char), field))
        for m in monomial_basis(g.nvars - 1, degree)
    ]
    denom = lcm(*(den for _, den in cols))
    cols = [[v * (denom // den) for v in col] for col, den in cols]
    return [[col[r] for col in cols] for r in range(target.ambient.dim - target.dim)]


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
    if not sol.contains_subspace(inner):
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
        fS = _span_all_polys(ring.products([f], ring.monomial_polys(m - n)), amb, field)
        T = idl.idealizer_piece(m)
        coker.append(amb.dim - subspace_sum(fS, T).dim)
        meet = intersect(fS, T)
        fT = _span_all_polys(
            ring.products([f], idl.idealizer_piece(m - n).basis_polys()), amb, field
        )
        if not meet.contains_subspace(fT):
            raise ArithmeticError("fT escapes fS meet T")
        torsion.append(meet.dim - fT.dim)
    return coker, torsion


# -- Segre witness in raw pair coordinates ----------------------------------------


def ideal_piece(ctx, m):
    """I_m for the context's point, by the degree-one recursion."""
    ring = TwistRing(ctx.d, AutoMap.identity(ctx.nvars, ctx.field), ctx.field)
    return recursive_point_ideal(ring, ctx.point).piece(m)


def K_piece(ctx, m):
    """Span of I_m tensor I_m: outer products of basis vectors."""
    rows = ideal_piece(ctx, m).rows
    vecs = []
    for u in rows:
        for v in rows:
            vec = []
            for a in u:
                if a:
                    vec.extend(a * b for b in v)
                else:
                    vec.extend(0 for _ in v)
            vecs.append(vec)
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
                for p, xval in enumerate(x):
                    if not xval:
                        continue
                    mu, nu = basis_a[p // dim_a], basis_a[p % dim_a]
                    for q, yval in enumerate(y):
                        if not yval:
                            continue
                        mu2, nu2 = basis_b[q // dim_b], basis_b[q % dim_b]
                        left = idx_t[tuple(s + t for s, t in zip(mu, mu2))]
                        right = idx_t[tuple(s + t for s, t in zip(nu, nu2))]
                        slot = left * dim_t + right
                        vec[slot] = vec[slot] + xval * yval
                yield vec

    return span(gens(), target, ctx.field)


def witness_dims_naive(ctx, max_piece):
    """dim ((J meet K)/(sum of J_a.K_b))_m from raw pair coordinates."""
    out = {}
    for m in range(1, max_piece + 1):
        meet = intersect(ctx.diagonal_ideal_piece(m), K_piece(ctx, m))
        # the product piece is the span over all bidegree splits;
        # J_0 and K_0 vanish, so a and b both run over positive degrees
        ech = Echelon(ctx.ambient(m).dim, ctx.field)
        for a in range(1, m):
            prod = segre_product_span(ctx, ctx.diagonal_ideal_piece(a), K_piece(ctx, m - a))
            for row in prod.rows:
                ech.insert(row)
        out[m] = meet.dim - ech.dim
    return out


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
        for p, val in enumerate(row):
            if not val:
                continue
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
