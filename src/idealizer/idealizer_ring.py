"""The idealizer of a point ideal inside a twisted polynomial ring.

Fix the left ideal I = S.I_1 generated by the linear forms vanishing at a
point c.  The idealizer is the largest graded subring of S in which I
becomes a two-sided ideal,

    T_n = { x in U_n : phi^n(I_1) . x  is contained in  I_{n+1} },

computed degree by degree as the kernel of an explicit constraint matrix.
Reducing to the degree-1 generators is legitimate because I is generated
in degree 1.  Each constraint asks that phi^n(f) * x lie in I_{n+1}, so
the rows are ``TwistRing.left_mult_rows`` of I_1 into U/I, the product
into a quotient that the hom tables use too.  U_{n+1}/I_{n+1} is
one-dimensional with coordinate evaluation at c, so a row holds the
values at c of phi^n(f) times each monomial.

The dimensions of IS and of (T_+^2), and the span T_n . T_n, come from
twisted products of pieces, each one ``TwistRing.product_rows`` or
``TwistRing.principal_right_rows``; no polynomial is multiplied.  The
package reads only the dimensions of (IS)_m and (T_+^2)_n, so they are
ranks (``linalg.rank_rows``), with no reduced echelon form.

Ranks and kernels stop at a proven rank ceiling, and each ceiling is
guarded so that a bug cannot hide behind it:

- a rank inside U_m is at most dim U_m (the default ceiling of
  ``linalg.rank_rows``; is_piece reaches it once IS fills U_m), which
  needs no guard;
- (T_+^2)_n lies in T_n because T is a ring, so decomposable_piece stops
  at rank dim T_n; every product row it reads must lie in T_n, a test
  through T_n's cached quotient map (one column in the generic regime).
  A span of rows in T_n with rank dim T_n is T_n;
- the idealizer contains its ideal, so I_n lies in T_n and I_{nm} in
  R'_m: every constraint row of T_n and of the Veronese idealizer R'_m
  vanishes on I_k = ker(ev_c), k = n or nm.  Each constraint matrix
  therefore has rank at most codim I_k = 1, and ``_constraint_kernel``
  stops at its first nonzero row.  I_k must lie in that row's kernel
  (``I.annihilated_by``, the guard of the hom tables), that is, the row
  must be a multiple of evaluation at c, and the kernel is then the
  cached I_k.

A violated guard raises ``ArithmeticError``.

Everything downstream is a finite-dimensional witness: Hilbert functions
of S/IS and S/T, minimal generator counts of T, and the comparison of
Veronese subrings of T with idealizers inside Veronese subrings of S.
"""

from __future__ import annotations

from .automorphism import ProjPoint
from .linalg import GradedSubspace, kernel, rank_rows, span
from .orbit import OrbitWindow, distinct_window, orbit_points
from .poly import basis_dim, poly_to_vector
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
        self.form_rows = [poly_to_vector(f, self.field) for f in self.forms]
        self._pieces: dict[int, GradedSubspace] = {}
        self._is_dims: dict[int, int] = {}
        self._orbits: dict[int, OrbitWindow] = {}

    def orbit(self, window: int) -> OrbitWindow:
        """The orbit points c_n of the point, |n| <= window, built once per window."""
        got = self._orbits.get(window)
        if got is None:
            got = self._orbits[window] = orbit_points(self.ring.phi, self.point, window)
        return got

    # -- degreewise pieces ------------------------------------------------

    def _constraint_kernel(self, rows, degree: int) -> GradedSubspace:
        """The kernel in U_degree of constraint rows into U/I that vanish
        on I_degree: the matrix has rank at most codim I_degree = 1 (see
        the module notes), so the first nonzero row decides.  I_degree must
        lie in its kernel, and is then the kernel; with no nonzero row it
        is U_degree."""
        row = next((r for r in rows if r), None)
        if row is None:
            width = basis_dim(self.ring.nvars, degree)
            return span(kernel([], width, self.field), self.ring.ambient(degree), self.field)
        if not self.I.annihilated_by([row], degree):
            raise ArithmeticError("constraint row is not a multiple of evaluation at the point")
        return self.I.piece(degree)

    def idealizer_piece(self, n: int) -> GradedSubspace:
        """T_n as a subspace of U_n: ``_constraint_kernel`` of the d rows
        phi^n(f) . x in I_{n+1}, one per linear form f of I_1."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        cached = self._pieces.get(n)
        if cached is not None:
            return cached
        rows = self.ring.left_mult_rows(self.form_rows, 1, n, self.I)
        piece = self._constraint_kernel(rows, n)
        self._pieces[n] = piece
        return piece

    def t_dim(self, n: int) -> int:
        return self.idealizer_piece(n).dim

    # -- structure of T ----------------------------------------------------

    def check_T_equals_k_plus_I(self, max_degree: int) -> dict:
        """Compare T_n with I_n for 1 <= n <= N after an orbit distinctness check."""
        distinct, collision = distinct_window(self.orbit(max_degree))
        dims = [self.t_dim(n) for n in range(max_degree + 1)]
        ideal_dims = [self.I.dim(n) for n in range(max_degree + 1)]
        first_failure = next(
            (
                n
                for n in range(max_degree + 1)
                if (dims[0] != 1 if n == 0 else self.idealizer_piece(n) != self.I.piece(n))
            ),
            None,
        )
        return {
            "orbit_distinct": distinct,
            "collision": collision,
            "dims": dims,
            "ideal_dims": ideal_dims,
            "agrees": first_failure is None,
            "first_failure": first_failure,
        }

    def s_mod_t_dims(self, max_degree: int) -> list[int]:
        return [
            basis_dim(self.ring.nvars, n) - self.t_dim(n)
            for n in range(max_degree + 1)
        ]

    # -- the two-sided ideal IS --------------------------------------------

    def is_piece(self, m: int) -> int:
        """dim (IS)_m, (IS)_m = sum over i of I_{m-i} . U_i: the rank of
        the products phi^i(f) * e for f a row of I_{m-i} and e a monomial
        of degree i, the ``principal_right_rows`` of f twisted once."""
        cached = self._is_dims.get(m)
        if cached is not None:
            return cached
        ring = self.ring
        rows = (
            row
            for i in range(m)
            for f in self.I.piece(m - i).rows
            for row in ring.principal_right_rows(ring.power(i).apply_row(f, m - i), m - i, i)
        )
        dim = rank_rows(rows, basis_dim(ring.nvars, m), self.field)
        self._is_dims[m] = dim
        return dim

    def s_mod_is_dims(self, max_degree: int) -> list[int]:
        return [basis_dim(self.ring.nvars, m) - self.is_piece(m) for m in range(max_degree + 1)]

    # -- generators of T as an algebra ---------------------------------------

    def decomposable_piece(self, n: int) -> int:
        """dim (T_+^2)_n, the degree-n span of products of positive-degree
        elements of T.

        A product t . s of t in T_a and s in T_{n-a} is one
        ``TwistRing.product_rows`` of a row of T_a and a row of T_{n-a}.
        The span lies in T_n, so its rank stops at dim T_n; every product
        row read must lie in T_n, checked through T_n's cached quotient
        map, or the pieces of T are wrong.
        """
        target = self.idealizer_piece(n)

        def rows():
            for a in range(1, n):
                lefts, rights = self.idealizer_piece(a).rows, self.idealizer_piece(n - a).rows
                for row in self.ring.product_rows(lefts, a, rights, n - a):
                    if not target.contains_vector(row):
                        raise ArithmeticError("products of T leave T_%d" % n)
                    yield row

        return rank_rows(rows(), target.ambient.dim, self.field, target.dim)

    def algebra_generator_degrees(self, max_degree: int) -> list[tuple[int, int]]:
        """Minimal generator counts (n, dim T_n / (T_+^2)_n) for 1 <= n <= N."""
        out = []
        for n in range(1, max_degree + 1):
            if n == 1:
                out.append((1, self.t_dim(1)))
                continue
            out.append((n, self.t_dim(n) - self.decomposable_piece(n)))
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
        vanish on I_{nm}, so ``_constraint_kernel`` reads them lazily and
        the first nonzero one decides R'_m.  At m = 0, x is a scalar and
        b . x = b x lies in I_{nj}, so every row is zero and R'_0 = U_0
        is returned with no row read.
        """
        if m == 0:
            return self._constraint_kernel((), 0)
        rows = (
            row
            for j in range(1, j_cap + 1)
            for row in self.ring.left_mult_rows(self.I.piece(n * j).rows, n * j, n * m, self.I)
        )
        return self._constraint_kernel(rows, n * m)

    def veronese_idealizer_compare(self, n: int, max_piece: int) -> dict:
        """Compare (T^(n))_m with R'_m for 0 <= m <= N.

        Agreement from some degree on is the finite witness that the two
        rings differ in at most finitely many degrees; D is the least
        such degree inside the window, or None if the top degree differs.
        """
        j_cap = -(-max_piece // 2) + 1
        agree = []
        dims = []
        for m in range(max_piece + 1):
            t_piece = self.idealizer_piece(n * m)
            r_piece = self.veronese_idealizer_piece(n, m, j_cap)
            agree.append(t_piece == r_piece)
            dims.append((t_piece.dim, r_piece.dim))
        least = next((m for m in range(max_piece + 1) if all(agree[m:])), None)
        return {
            "n": n,
            "max_piece": max_piece,
            "j_cap": j_cap,
            "agree": agree,
            "dims": dims,
            "least_agreement_degree": least,
        }
