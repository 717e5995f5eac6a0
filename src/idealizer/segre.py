"""The Segre product witness: a nonzero torsion module over T x T.

Inside U^s = (U tensor U)(doubled grading), with J the kernel of the
multiplication map U_m x U_m -> U_{2m} and K the span of I_m x I_m for a
point ideal I, the degreewise quotient

    ((J meet K) / (J . K))_m

is nonzero in every positive degree; its dimensions are the witness that
the Segre square of the idealizer is not noetherian.  They are computed
blockwise: in coordinates where the point is (1:0:...:0), I is spanned by
the last d variables and every space in sight splits over the fibers of
the multiplication map.  The test suite keeps a naive oracle on honest
coordinate vectors of monomial pairs and checks that the two agree where
it is affordable.

The dimension counts do not depend on the point: a linear change of
coordinates moving one point to another carries every ingredient to its
counterpart.  local_witness_check is the 2d-variable identity behind
nonvanishing: u1 v2 - u2 v1 lies in J' meet K' but (J'.K')_2 = 0.
"""

from __future__ import annotations

from .automorphism import ProjPoint
from .fields import QQ
from .linalg import Ambient, Echelon, GradedSubspace, poly_ambient, segre_ambient, span, span_polys
from .poly import HomogPoly, basis_dim, monomial_basis, monomials

__all__ = ["SegreContext", "local_witness_check", "nonvanishing_from"]


def _pure_power(nvars: int, degree: int):
    return tuple(degree if i == 0 else 0 for i in range(nvars))


class SegreContext:
    """Degreewise data for U tensor U over a chosen point."""

    def __init__(self, d: int, field, point: ProjPoint):
        if d < 2:
            raise ValueError("need projective dimension at least 2")
        if point.nvars != d + 1:
            raise ValueError("point arity does not match d")
        self.d = d
        self.nvars = d + 1
        self.field = field
        self.point = point

    # -- x-coordinate constructions (exact but only affordable in low degree)

    def ambient(self, m: int) -> Ambient:
        return segre_ambient(self.nvars, m)

    def diagonal_ideal_piece(self, m: int) -> GradedSubspace:
        """J_m: the kernel of multiplication on pairs, via fiber differences."""
        amb = self.ambient(m)
        dim_m = basis_dim(self.nvars, m)
        fibers: dict[tuple, list[int]] = {}
        for i, mu in enumerate(monomial_basis(self.d, m)):
            for j, nu in enumerate(monomial_basis(self.d, m)):
                w = tuple(a + b for a, b in zip(mu, nu))
                fibers.setdefault(w, []).append(i * dim_m + j)
        vecs = []
        for w in sorted(fibers, reverse=True):
            base, *others = fibers[w]
            vecs.extend(((other, 1), (base, -1)) for other in others)
        return span(vecs, amb, self.field)

    # -- adapted coordinates, one fiber at a time --------------------------------

    def witness_dims(self, max_piece: int) -> dict:
        """Blockwise dims of (J meet K), (J.K), and their quotient.

        In adapted coordinates the three spaces split over the fibers
        F_w = {(mu, nu) : mu nu = w}; K selects the pairs with both sides
        different from the pure power of the nonvanishing coordinate, and
        (J.K)_m = J_{m-1}.K_1 because K_{b+1} = U_1.K_b for point ideals.
        """
        meet_dims = {}
        product_dims = {}
        witness = {}
        for m in range(1, max_piece + 1):
            pure = _pure_power(self.nvars, m)
            meet_total = 0
            prod_total = 0
            for w in monomials(self.nvars, 2 * m):
                fiber = [
                    (mu, tuple(a - b for a, b in zip(w, mu)))
                    for mu in monomials(self.nvars, m)
                    if all(a >= b for a, b in zip(w, mu))
                ]
                kpairs = [
                    (mu, nu) for mu, nu in fiber if mu != pure and nu != pure
                ]
                meet_total += max(len(kpairs) - 1, 0)
                index = {pair: t for t, pair in enumerate(kpairs)}
                ech = Echelon(len(kpairs), self.field)
                for i in range(1, self.nvars):
                    if not w[i]:
                        continue
                    for j in range(1, self.nvars):
                        s = list(w)
                        s[i] -= 1
                        s[j] -= 1
                        if s[j] < 0:
                            continue
                        sub = [
                            (alpha, tuple(a - b for a, b in zip(s, alpha)))
                            for alpha in monomials(self.nvars, m - 1)
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


def nonvanishing_from(witness_dims: dict) -> int | None:
    """The least degree with a nonzero witness dimension, or None."""
    return next((m for m in sorted(witness_dims) if witness_dims[m] > 0), None)


def local_witness_check(d: int, field=QQ) -> dict:
    """The two-sided membership behind the witness, in 2d affine variables.

    With J' = (u_i - v_i : i) and K' = (u_i v_j : i, j), the element
    w = u1 v2 - u2 v1 lies in J' meet K' while (J'.K')_2 = 0 because every
    product of generators has degree at least 3; and u1 v1 is not in J'_2,
    so the membership is not an artifact of J' swallowing everything.
    """
    if d < 2:
        raise ValueError("need at least two variables on each side")
    nvars = 2 * d

    def u(i):
        return HomogPoly.variable(nvars, i - 1, field)

    def v(j):
        return HomogPoly.variable(nvars, d + j - 1, field)

    w = u(1) * v(2) - u(2) * v(1)
    j_forms = [u(i) - v(i) for i in range(1, d + 1)]
    k_gens = [u(i) * v(j) for i in range(1, d + 1) for j in range(1, d + 1)]

    amb2 = poly_ambient(nvars, 2)
    j2 = span_polys(
        (form * HomogPoly.variable(nvars, t, field) for form in j_forms for t in range(nvars)),
        amb2,
        field,
    )
    k2 = span_polys(k_gens, amb2, field)
    explicit = u(1) * (v(2) - u(2)) + u(2) * (u(1) - v(1))
    return {
        "d": d,
        "w_nonzero": not w.is_zero(),
        "w_in_J2": j2.contains_poly(w),
        "w_in_K2": k2.contains_poly(w),
        "w_matches_explicit_combination": w == explicit,
        "product_piece_trivial": True,  # generators have degree >= 3
        "control_not_in_J2": not j2.contains_poly(u(1) * v(1)),
        "ok": (
            not w.is_zero()
            and j2.contains_poly(w)
            and k2.contains_poly(w)
            and w == explicit
            and not j2.contains_poly(u(1) * v(1))
        ),
    }
