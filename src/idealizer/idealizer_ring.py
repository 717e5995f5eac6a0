"""The idealizer of a point ideal inside a twisted polynomial ring.

Fix the left ideal I = S.I_1 generated by the linear forms vanishing at a
point c.  The idealizer is the largest graded subring of S in which I
becomes a two-sided ideal,

    T_n = { x in U_n : phi^n(I_1) . x  is contained in  I_{n+1} },

computed degree by degree as the kernel of an explicit constraint matrix.
Reducing to the degree-1 generators is legitimate because I is generated
in degree 1.  Each constraint asks that phi^n(f) * x lie in I_{n+1}; the
quotient U_{n+1}/I_{n+1} is one-dimensional with coordinate evaluation at
c, so a constraint row is multiply-then-evaluate.  The test suite keeps
an oracle that takes every constraint up to a cap and reduces against a
recursively built I.

Spans stop at a proven rank ceiling, and each ceiling is guarded so that
a bug cannot hide behind it:

- a span inside U_m has rank at most dim U_m (the default ceiling of
  ``linalg.span``; is_piece reaches it once IS fills U_m), which needs no
  guard;
- (T_+^2)_n lies in T_n because T is a ring, so decomposable_piece stops
  at dim T_n; reaching it, the span must equal T_n, a free comparison of
  canonical forms;
- the idealizer contains its ideal, so I_{nm} lies in R'_m and every
  Veronese constraint row vanishes on I_{nm} = ker(ev_c).  The constraint
  matrix therefore has rank at most codim I_{nm} = 1, and
  veronese_idealizer_piece stops at its first nonzero row.  That row
  must be a multiple of the evaluation row, which holds iff
  ker(ev_c) lies in its kernel; the check costs O(dim U_{nm}) and never
  builds I_{nm}.

A violated guard raises ``ArithmeticError``.  The uncapped routes live
with the test oracles.

Everything downstream is a finite-dimensional witness: Hilbert functions
of S/IS and S/T, minimal generator counts of T, and the comparison of
Veronese subrings of T with idealizers inside Veronese subrings of S.
"""

from __future__ import annotations

from .automorphism import ProjPoint
from .fields import int_row
from .linalg import GradedSubspace, kernel, rank_rows, span, span_polys
from .orbit import distinct_window, orbit_points
from .poly import (
    HomogPoly,
    basis_dim,
    basis_index,
    mono_mul,
    monomial_basis,
    monomial_values,
)
from .twist import PointIdeal, TwistRing

__all__ = ["IdealizerRing"]


class IdealizerRing:
    """T = idealizer of the point ideal of c inside the twist of U."""

    def __init__(self, ring: TwistRing, point: ProjPoint):
        self.ring = ring
        self.field = ring.field
        self.point = point
        self.I = PointIdeal(ring, point)
        self.forms = self.I.gens
        self._pieces: dict[int, GradedSubspace] = {}
        self._is_pieces: dict[int, GradedSubspace] = {}

    # -- degreewise pieces ------------------------------------------------

    def _quotient_row(self, g: HomogPoly, source_degree: int) -> list[int]:
        """Constraint row: coordinate of g * e_k in U/I, one per monomial e_k.

        I_m is the kernel of evaluation at the point, so the coordinate in
        the one-dimensional quotient is the value at the point, up to a
        nonzero scalar that does not change the kernel.
        """
        degree = source_degree + g.degree
        values = monomial_values(self.point.coords, self.field, degree)
        index = basis_index(self.ring.nvars, degree)
        row = [
            sum((gc * values[index[mono_mul(gm, mono)]] for gm, gc in g.terms), self.field.zero)
            for mono in monomial_basis(self.ring.d, source_degree)
        ]
        return int_row(row, self.field)

    def idealizer_piece(self, n: int) -> GradedSubspace:
        """T_n as a subspace of U_n."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        cached = self._pieces.get(n)
        if cached is not None:
            return cached
        rows = [self._quotient_row(self.ring.twisted(n, f), n) for f in self.forms]
        vecs = kernel(rows, basis_dim(self.ring.nvars, n), self.field)
        piece = span(vecs, self.ring.ambient(n), self.field)
        self._pieces[n] = piece
        return piece

    def t_dim(self, n: int) -> int:
        return self.idealizer_piece(n).dim

    # -- structure of T ----------------------------------------------------

    def check_T_equals_k_plus_I(self, max_degree: int) -> dict:
        """Compare T_n with I_n for 1 <= n <= N after an orbit distinctness check."""
        window = orbit_points(self.ring.phi, self.point, max_degree)
        distinct, collision = distinct_window(window)
        dims = [self.t_dim(n) for n in range(max_degree + 1)]
        ideal_dims = [self.I.dim(n) for n in range(max_degree + 1)]
        first_failure = None
        agree = dims[0] == 1
        if dims[0] != 1:
            first_failure = 0
        for n in range(1, max_degree + 1):
            if self.idealizer_piece(n) != self.I.piece(n):
                agree = False
                if first_failure is None:
                    first_failure = n
                break
        return {
            "orbit_distinct": distinct,
            "collision": collision,
            "dims": dims,
            "ideal_dims": ideal_dims,
            "agrees": agree,
            "first_failure": first_failure,
        }

    def s_mod_t_dims(self, max_degree: int) -> list[int]:
        return [
            basis_dim(self.ring.nvars, n) - self.t_dim(n)
            for n in range(max_degree + 1)
        ]

    # -- the two-sided ideal IS --------------------------------------------

    def is_piece(self, m: int) -> GradedSubspace:
        """(IS)_m = sum over i of phi^i(I_{m-i}) . U_i."""
        cached = self._is_pieces.get(m)
        if cached is not None:
            return cached

        def gens():
            for i in range(m):
                yield from self.ring.products(
                    self.I.piece(m - i).basis_polys(), self.ring.monomial_polys(i)
                )

        piece = span_polys(gens(), self.ring.ambient(m), self.field)
        self._is_pieces[m] = piece
        return piece

    def s_mod_is_dims(self, max_degree: int) -> list[int]:
        return [
            basis_dim(self.ring.nvars, m) - self.is_piece(m).dim
            for m in range(max_degree + 1)
        ]

    # -- generators of T as an algebra ---------------------------------------

    def decomposable_piece(self, n: int) -> GradedSubspace:
        """Degree-n span of products of positive-degree elements of T.

        The span lies in T_n, so it stops at rank dim T_n; reaching that
        ceiling it must equal T_n, or the pieces of T are wrong.
        """
        def gens():
            for a in range(1, n):
                yield from self.ring.products(
                    self.idealizer_piece(a).basis_polys(),
                    self.idealizer_piece(n - a).basis_polys(),
                )

        target = self.idealizer_piece(n)
        piece = span_polys(gens(), self.ring.ambient(n), self.field, target.dim)
        if piece.dim == target.dim and piece != target:
            raise ArithmeticError("products of T reach dim T_%d but leave T_%d" % (n, n))
        return piece

    def algebra_generator_degrees(self, max_degree: int) -> list[tuple[int, int]]:
        """Minimal generator counts (n, dim T_n / (T_+^2)_n) for 1 <= n <= N."""
        out = []
        for n in range(1, max_degree + 1):
            if n == 1:
                out.append((1, self.t_dim(1)))
                continue
            out.append((n, self.t_dim(n) - self.decomposable_piece(n).dim))
        return out

    # -- Veronese subrings ----------------------------------------------------

    def veronese_gen_in_degree_one(self, n: int) -> dict:
        """Does T_n . T_n fill T_{2n}?  The n-th Veronese fails this for twists."""
        product = self.ring.product_piece(self.idealizer_piece(n), self.idealizer_piece(n))
        target = self.idealizer_piece(2 * n)
        return {
            "n": n,
            "product_dim": product.dim,
            "target_dim": target.dim,
            "generated": product == target,
        }

    def veronese_idealizer_piece(self, n: int, m: int, j_cap: int) -> GradedSubspace:
        """R'_m: the m-th piece of the idealizer of I^(n) inside S^(n).

        One constraint row per basis element b of I_{nj}, j <= cap: the
        coordinate of phi^{nm}(b) . x in U_{nj+nm}/I_{nj+nm}.  The rows
        are built lazily and the first nonzero one decides R'_m, because
        the constraint matrix has rank at most one (see the module notes).
        """
        if m == 0:
            return span([[1]], self.ring.ambient(0), self.field)
        rows = (
            self._quotient_row(self.ring.twisted(n * m, b), n * m)
            for j in range(1, j_cap + 1)
            for b in self.I.piece(n * j).basis_polys()
        )
        row = next((r for r in rows if any(r)), None)
        if row is not None:
            values = monomial_values(self.point.coords, self.field, n * m)
            if rank_rows([values, row], len(row), self.field) != 1:
                raise ArithmeticError(
                    "Veronese constraint row is not a multiple of evaluation at the point"
                )
        vecs = kernel([] if row is None else [row], basis_dim(self.ring.nvars, n * m), self.field)
        return span(vecs, self.ring.ambient(n * m), self.field)

    def veronese_idealizer_compare(
        self, n: int, max_piece: int, j_cap: int | None = None
    ) -> dict:
        """Compare (T^(n))_m with R'_m for 0 <= m <= N.

        Agreement from some degree on is the finite witness that the two
        rings differ in at most finitely many degrees; D is the least
        such degree inside the window, or None if the top degree differs.
        """
        if j_cap is None:
            j_cap = -(-max_piece // 2) + 1
        agree = []
        dims = []
        for m in range(max_piece + 1):
            t_piece = self.idealizer_piece(n * m)
            r_piece = self.veronese_idealizer_piece(n, m, j_cap)
            agree.append(t_piece == r_piece)
            dims.append((t_piece.dim, r_piece.dim))
        last_false = None
        for m in range(max_piece + 1):
            if not agree[m]:
                last_false = m
        least = 0 if last_false is None else last_false + 1
        if least > max_piece:
            least = None
        return {
            "n": n,
            "max_piece": max_piece,
            "j_cap": j_cap,
            "agree": agree,
            "dims": dims,
            "least_agreement_degree": least,
        }
