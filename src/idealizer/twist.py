"""The twisted polynomial ring S and its graded one-sided ideals.

S shares its graded vector space with the commutative ring U in d + 1
variables.  For f of degree m and g of degree n the product is

    f . g  =  phi^n(f) * g

(the left factor is twisted by the degree of the right factor; * is the
commutative product).  The normalization is pinned by the example
x1 . x0 = p_1 (x0 x1) for the diagonal family.

Graded left ideals of S coincide with graded ideals of U because
S_1 . J_n = phi^n(U_1) * J_n = U_1 * J_n, so left-ideal pieces follow
the commutative recursion J_{n+1} = U_1 * J_n + (new generators).  That
recursion serves every ideal given by generators (zero, maximal,
principal), and runs on int rows: J_n is spanned by the rows of J_{n-1}
scattered by each x_v through ``poly.product_index`` and by the degree-n
generators, each converted once, so no polynomial is multiplied.  A
piece whose spanning rows are all single monomials (the zero and maximal
ideals, monomial ideals and their diagonal twists) is written down as
those monomials' unit rows, with no elimination.  The ideal of a point
c, an orbit point c_k among them, is built without the recursion:
the ideal generated by the linear forms vanishing at c is saturated, so
its degree-n piece is the kernel of evaluation at c on U_n, whose reduced
echelon form is read off the evaluation row.

Every twisted ideal is a moved ideal.  phi^k is a ring automorphism of
U, so phi^k(J) is the ideal generated by the images of J's generators,
and its pieces come from the same recursion; when the images are the
generators themselves (phi(x0) = x0 for the diagonal family) the ideal
is its own twist.  A point ideal moves to a point ideal: phi^k(I_c) is
the ideal of P' = point_image(phi^-k, c), because apply(A, f)(P') =
f(c) for P' = point_image(A^-1, c), so no polynomial is substituted at
all and the inverse is the ring's cached power phi^-k.  Each ideal keeps
one moved ideal per power, and the Koszul ranks of U/J
(``ext.KoszulComplex.rank``).

Every twisted product of two pieces, f . g = phi^b(f) * g for g of degree
b, is one ``TwistRing.product_rows``: each left int row is twisted once
by ``AutoMap.apply_row`` and multiplied by each right int row through
``poly.row_product``, so no polynomial is built to twist a piece.  A
product row carries the scale den^a of phi^b, which a span ignores.
The products of pieces of T take it.  A principal right ideal
(f S)_m = phi^b(f) * U_b, b = m - deg f, is the twisted row of f moved
by each monomial of degree b (``principal_right_rows``); the rows of
(IS)_m are these for each row f of a piece of I, and the probe twists
f once per degree for these rows and for its fT.

Every twisted product into a quotient, x -> phi^n(f) * x from U_n into
U/J, is one ``TwistRing.left_mult_rows`` against J's projection
``J.quotient(k)``: the rows of T_n, R'_m and the hom tables.  U_k/I_k is
one-dimensional for a point ideal, with evaluation at c as its
coordinate, so a point ideal is its evaluation row: a ``PointIdeal``
reads its projection ``quotient(k)``, its ``codim(k)`` (1), its one
quotient column ``nonpivot_columns(k)`` (the row's last column) and the
guard ``annihilated_by`` (I_k = ker ev lies in a row's kernel exactly
when the row is a multiple of ev) off that row and builds no piece for
them.  A ``GradedIdeal`` answers all four from its piece.

The two checks of twisted arithmetic, ``associativity_sample`` and
``TwistRing.opposite_iso_check``, run on int rows as well.  Each side of
an identity is an int row times a known product of den powers, so the
sides are compared cross-multiplied by each other's product; mod p
every den is 1.

Automorphism powers are cached per ring, each computed in closed form
by ``AutoMap.power``.  Each cache value is built completely before the
single dict store that publishes it, so warmed rings can be read from
several threads.
"""

from __future__ import annotations

import random
from math import gcd

from .automorphism import AutoMap, ProjPoint, point_image
from .linalg import GradedSubspace, annihilates, kernel, mult_rows, poly_ambient, span
from .poly import (
    HomogPoly,
    basis_dim,
    monomial_values,
    monomials,
    poly_to_vector,
    row_product,
    times_monomial,
)

__all__ = ["GradedIdeal", "PointIdeal", "TwistRing", "kernel_form", "point_ideal_forms"]


class TwistRing:
    """k<x_0..x_d> with multiplication twisted by a graded automorphism."""

    def __init__(self, d: int, phi: AutoMap, field):
        if d < 2:
            raise ValueError("need projective dimension d >= 2, got %d" % d)
        if phi.nvars != d + 1:
            raise ValueError("automorphism arity %d, expected %d" % (phi.nvars, d + 1))
        self.d = d
        self.nvars = d + 1
        self.phi = phi
        self.field = field
        self._powers: dict[int, AutoMap] = {}

    def ambient(self, n: int):
        return poly_ambient(self.nvars, n)

    def basis(self, n: int):
        return monomials(self.nvars, n)

    def power(self, n: int) -> AutoMap:
        """phi^n for any integer n, in closed form by ``AutoMap.power``, cached."""
        got = self._powers.get(n)
        if got is None:
            got = self._powers[n] = self.phi.power(n)
        return got

    def twisted(self, n: int, f: HomogPoly) -> HomogPoly:
        return self.power(n).apply(f)

    def mul(self, f: HomogPoly, g: HomogPoly) -> HomogPoly:
        """The twisted product f . g = phi^(deg g)(f) * g."""
        return self.twisted(g.degree, f) * g

    def variable(self, i: int) -> HomogPoly:
        return HomogPoly.variable(self.nvars, i, self.field)

    def product_rows(self, lefts, a: int, rights, b: int):
        """Yield the int rows of the twisted products f . g = phi^b(f) * g.

        ``lefts`` are int rows of degree a and ``rights`` int rows of
        degree b.  Each f is twisted once, by ``AutoMap.apply_row``, so a
        row carries the scale den^a of phi^b besides its factors' scales.
        f is the outer loop and g the inner one.
        """
        nvars, p, auto = self.nvars, self.field.char, self.power(b)
        for f in lefts:
            u = auto.apply_row(f, a)
            for g in rights:
                yield row_product(u, g, nvars, a, b, p)

    def product_piece(self, v: GradedSubspace, w: GradedSubspace) -> GradedSubspace:
        """Span of the twisted products of two graded pieces v . w."""
        if v.ambient.kind != "poly" or w.ambient.kind != "poly":
            raise ValueError("twisted products need polynomial ambients")
        a, b = v.ambient.degree, w.ambient.degree
        return span(self.product_rows(v.rows, a, w.rows, b), self.ambient(a + b), self.field)

    def left_mult_rows(self, lefts, a: int, n: int, J: GradedIdeal):
        """Yield the int rows of x -> f . x = phi^n(f) * x from U_n into
        U_(a+n)/J_(a+n), codim J_(a+n) rows per int row f of degree a in
        ``lefts``: f twisted once, then ``linalg.mult_rows`` against
        ``J.quotient(a + n)``, read at the first row."""
        auto, nvars = self.power(n), self.nvars
        quotient, indices = J.quotient(a + n), range(basis_dim(nvars, n))
        for f in lefts:
            yield from mult_rows(auto.apply_row(f, a), a, indices, n, quotient, nvars, self.field)

    def principal_right_rows(self, u, a: int, b: int) -> list[list[tuple[int, int]]]:
        """The int rows spanning (f S)_(a+b): u, the int row of phi^b(f) for
        f of degree a, times each monomial of degree b, in basis order."""
        return [times_monomial(u, j, self.nvars, a, b) for j in range(basis_dim(self.nvars, b))]

    def principal_right_piece(self, f: HomogPoly, m: int) -> GradedSubspace:
        """(f S)_m, the span of ``principal_right_rows`` for b = m - deg f."""
        a, b = f.degree, m - f.degree
        u = self.power(b).apply_row(poly_to_vector(f, self.field), a)
        return span(self.principal_right_rows(u, a, b), self.ambient(m), self.field)

    def opposite_iso_check(self, max_total_degree: int):
        """Verify degreewise that psi_n = phi^{-n} maps the opposite ring
        onto the twist by phi^{-1}: psi(f .op g) = psi(f) .' psi(g) for
        every pair of basis monomials with deg f + deg g bounded by the
        given total degree.

        For deg f = a and deg g = b the two sides are phi^-(a+b)(phi^a(g) * f)
        and phi'^b(phi^-a(f)) * phi^-b(g), phi' = phi^{-1}.  Each side is
        an int row by ``AutoMap.apply_row``, exact up to a product of den
        powers, and the two are compared cross-multiplied by each other's
        product.  The twists of each g and each f are made once per degree
        pair (a, b), so a pair costs one ``apply_row`` and two products.
        Pairs run in (a, b, f, g) order, and the first failing pair is
        reported.

        Returns (ok, pairs_checked, first_failure).
        """
        opposite = TwistRing(self.d, self.phi.inv(), self.field)
        nvars, p = self.nvars, self.field.char
        checked = 0
        for a in range(max_total_degree + 1):
            for b in range(max_total_degree + 1 - a):
                back, g_fwd, g_back = self.power(-(a + b)), self.power(a), self.power(-b)
                f_back, f_op = self.power(-a), opposite.power(b)
                lhs_scale = g_fwd.den**b * back.den ** (a + b)
                rhs_scale = (f_back.den * f_op.den) ** a * g_back.den**b
                rights = [
                    (gm, g_fwd.apply_row(((j, 1),), b), g_back.apply_row(((j, 1),), b))
                    for j, gm in enumerate(self.basis(b))
                ]
                for i, fm in enumerate(self.basis(a)):
                    tf = f_op.apply_row(f_back.apply_row(((i, 1),), a), a)
                    for gm, g_a, g_b in rights:
                        # f .op g is g . f computed in this ring
                        checked += 1
                        lhs = back.apply_row(times_monomial(g_a, i, nvars, b, a), a + b)
                        rhs = row_product(tf, g_b, nvars, a, b, p)
                        if not _same_rows(lhs, rhs_scale, rhs, lhs_scale):
                            return False, checked, (fm, gm)
        return True, checked, None


def _same_rows(u, su: int, v, sv: int) -> bool:
    """Whether su * u and sv * v are one int row (mod p both scales are 1)."""
    return {k: x * su for k, x in u} == {k: y * sv for k, y in v}


class GradedIdeal:
    """A graded ideal of U presented by homogeneous generators.

    Equals the graded left ideal of S generated by the same elements.
    Pieces are computed by the degree recursion and memoized.
    """

    def __init__(self, ring: TwistRing, gens: list[HomogPoly]):
        for g in gens:
            if g.nvars != ring.nvars:
                raise ValueError("generator arity mismatch")
        self.ring = ring
        self.gens = [g for g in gens if not g.is_zero()]
        self._pieces: dict[int, GradedSubspace] = {}
        self._moved: dict[int, GradedIdeal | None] = {}
        # Koszul ranks of U/J, filled by ext.KoszulComplex.rank
        self.ranks: dict = {}

    def piece(self, n: int) -> GradedSubspace:
        got = self._pieces.get(n)
        if got is not None:
            return got
        if n < 0:
            value = span([], self.ring.ambient(n), self.ring.field)
        else:
            value = self._build_piece(n)
        self._pieces[n] = value
        return value

    def _build_piece(self, n: int) -> GradedSubspace:
        """J_n = U_1 * J_{n-1} + (generators of degree n), on int rows.

        When every spanning row is one monomial, J_n is the span of those
        distinct monomials, and their unit rows in column order are
        already its canonical form, so nothing is eliminated."""
        ring = self.ring
        rows = [poly_to_vector(g, ring.field) for g in self.gens if g.degree == n]
        if n > 0:
            prev = self.piece(n - 1).rows
            for v in range(ring.nvars):
                rows.extend(times_monomial(r, v, ring.nvars, n - 1, 1) for r in prev)
        if all(len(r) == 1 for r in rows):
            pivots = tuple(sorted({r[0][0] for r in rows}))
            return GradedSubspace(
                ring.ambient(n), ring.field, pivots, tuple(((k, 1),) for k in pivots)
            )
        return span(rows, ring.ambient(n), ring.field)

    def dim(self, n: int) -> int:
        return self.piece(n).dim

    def codim(self, n: int) -> int:
        """dim U_n/J_n, the dimension of the quotient's degree-n piece (0
        below degree 0, where no piece is built)."""
        if n < 0:
            return 0
        piece = self.piece(n)
        return piece.ambient.dim - piece.dim

    def nonpivot_columns(self, n: int) -> tuple[int, ...]:
        """The columns of the monomials spanning U_n/J_n."""
        return self.piece(n).nonpivot_columns if n >= 0 else ()

    def quotient(self, n: int):
        """codim J_n and the column images of J_n's quotient map, the
        projection ``linalg.mult_rows`` reads (no map at codimension 0)."""
        codim = self.codim(n)
        return codim, self.piece(n).quotient_map[1] if codim else {}

    def annihilated_by(self, rows, n: int) -> bool:
        """Whether J_n lies in the kernel of the matrix with these int rows,
        ``linalg.annihilates`` on the piece: the one guard of the
        constraint matrices of T_n, R'_m and the hom tables."""
        return annihilates(rows, self.piece(n))

    def moved(self, power: int) -> GradedIdeal:
        """phi^power applied to the ideal: this ideal when phi^power fixes
        it, else the moved ideal, built once per power."""
        if power not in self._moved:
            # None marks an ideal phi^power fixes: storing self would keep a reference cycle
            self._moved[power] = self._move(power)
        moved = self._moved[power]
        return self if moved is None else moved

    def twisted_piece(self, power: int, n: int) -> GradedSubspace:
        """The piece of phi^power applied to the ideal, in degree n."""
        return self.moved(power).piece(n)

    def _move(self, power: int) -> GradedIdeal | None:
        """phi^power(J), the ideal on the images of the generators; None
        when the images are the generators."""
        gens = [self.ring.twisted(power, g) for g in self.gens]
        return None if gens == self.gens else GradedIdeal(self.ring, gens)


def kernel_form(ring: TwistRing, vec) -> HomogPoly:
    """The linear form of a kernel vector, scaled so its last nonzero coefficient is 1."""
    return HomogPoly.from_row(ring.nvars, 1, vec, max(vec)[1], ring.field.char)


def point_ideal_forms(ring: TwistRing, point: ProjPoint) -> list[HomogPoly]:
    """Canonical basis of the linear forms vanishing at the point."""
    if point.nvars != ring.nvars:
        raise ValueError("point arity does not match the ring")
    row = monomial_values(point.coords, ring.field, 1)
    return [kernel_form(ring, v) for v in kernel([row], ring.nvars, ring.field)]


class PointIdeal(GradedIdeal):
    """The ideal of a point c, generated by the linear forms vanishing at c.

    The ideal is saturated, so I_n = ker(ev_c) on U_n for every n >= 1
    (and I_0 = 0).  I_n has codimension 1 for every n >= 0, and its one
    quotient column is L, the last column of the evaluation row ev: the
    column the reduced echelon form leaves unpivoted.  ``codim``,
    ``nonpivot_columns``, ``quotient`` and ``annihilated_by`` answer from
    ev alone, so a point module and a hom table build no piece.  Each
    piece is written down from ev, with no recursion and no elimination:
    the rows ev[L] x_k - ev[k] x_L, k != L, have distinct pivots k and are
    already the reduced echelon form, and each is scaled to its canonical
    int row here.

    phi^power moves the ideal of c to the ideal of the point P' with
    f(c) = apply(phi^power, f)(P'), P' = point_image(phi^-power, c), so
    a twisted piece is a piece of the moved point's ideal; the ring's
    cached power supplies the inverse.
    """

    def __init__(self, ring: TwistRing, point: ProjPoint):
        super().__init__(ring, point_ideal_forms(ring, point))
        self.point = point

    def _values(self, n: int):
        """The evaluation row at c in degree n (``poly.monomial_values``)."""
        return monomial_values(self.point.coords, self.ring.field, n)

    def _build_piece(self, n: int) -> GradedSubspace:
        ev = dict(self._values(n))
        last = max(ev)
        lead, p = ev[last], self.ring.field.char
        inv = pow(lead, -1, p) if p else None
        pivots, rows = [], []
        for k in range(basis_dim(self.ring.nvars, n)):
            if k == last:
                continue
            v = ev.get(k)
            if v is None:
                row = ((k, 1),)
            elif p:
                row = ((k, 1), (last, -v * inv % p))
            else:
                g = gcd(lead, v) if lead > 0 else -gcd(lead, v)
                row = ((k, lead // g), (last, -v // g))
            pivots.append(k)
            rows.append(row)
        return GradedSubspace(self.ring.ambient(n), self.ring.field, tuple(pivots), tuple(rows))

    def codim(self, n: int) -> int:
        return 1 if n >= 0 else 0

    def nonpivot_columns(self, n: int) -> tuple[int, ...]:
        return (self._values(n)[-1][0],) if n >= 0 else ()

    def quotient(self, n: int):
        """The evaluation row at c, scaled so that its last value, on I_n's
        one non-pivot column, is 1 (positive over Q): I_n's quotient map,
        with no piece of I built."""
        if n < 0:
            return 0, {}
        ev = self._values(n)
        lead, p = ev[-1][1], self.ring.field.char
        scale = pow(lead, -1, p) if p else (1 if lead > 0 else -1)
        images = [()] * basis_dim(self.ring.nvars, n)
        for k, v in ev:
            images[k] = ((0, v * scale % p if p else v * scale),)
        return 1, images

    def annihilated_by(self, rows, n: int) -> bool:
        """Whether I_n lies in the kernel of the matrix with these int
        rows.  I_n = ker ev is a hyperplane of U_n, so it does exactly
        when every row r is a multiple of ev: r[k] ev[L] = ev[k] r[L] for
        every column k, L the last column of ev, cross-multiplied and
        reduced mod p."""
        if n < 0:
            return True
        ev = dict(self._values(n))
        last = max(ev)
        lead, p = ev[last], self.ring.field.char
        for r in map(dict, rows):
            at_last = r.get(last, 0)
            for k in ev.keys() | r.keys():
                s = r.get(k, 0) * lead - ev.get(k, 0) * at_last
                if s % p if p else s:
                    return False
        return True

    def _move(self, power: int) -> PointIdeal | None:
        """The ideal of point_image(phi^-power, c), or None if that is c."""
        pt = point_image(self.ring.power(-power), self.point)
        return None if pt == self.point else PointIdeal(self.ring, pt)


def associativity_sample(ring: TwistRing, trials: int, seed: int, max_degree: int = 3) -> bool:
    """Seeded random check that (f.g).h = f.(g.h) in the twisted ring.

    f, g and h are random int rows; each product is ``TwistRing.product_rows``
    of one left row and one right row, exact up to the den power of its
    twist, and the two sides are compared cross-multiplied by each
    other's product of den powers.
    """
    rng = random.Random(seed)
    field = ring.field

    def rand_row(deg: int) -> list[tuple[int, int]]:
        row = []
        for j in range(basis_dim(ring.nvars, deg)):
            if rng.random() < 0.6:
                v = field.from_int(rng.randint(-4, 4))
                if v:
                    row.append((j, v))
        return row

    def mul(u, a: int, v, b: int):
        """The row of u . v and the scale it carries, den^a of phi^b."""
        return next(ring.product_rows([u], a, [v], b)), ring.power(b).den ** a

    for _ in range(trials):
        a, b, c = (rng.randint(1, max_degree) for _ in range(3))
        f, g, h = rand_row(a), rand_row(b), rand_row(c)
        fg, s_fg = mul(f, a, g, b)
        left, s_left = mul(fg, a + b, h, c)
        gh, s_gh = mul(g, b, h, c)
        right, s_right = mul(f, a, gh, b + c)
        if not _same_rows(left, s_gh * s_right, right, s_fg * s_left):
            return False
    return True
