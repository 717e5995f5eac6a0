"""The Segre product witness: a nonzero torsion module over T x T.

Inside U^s = (U tensor U)(doubled grading), with J the kernel of the
multiplication map U_m x U_m -> U_{2m} and K the span of I_m x I_m for a
point ideal I, the degreewise quotient

    ((J meet K) / (J . K))_m

is nonzero in every positive degree; its dimensions are the witness that
the Segre square of the idealizer is not noetherian.  They are counted
without elimination: in coordinates where the point is (1:0:...:0), I is
spanned by the last d variables and every space in sight splits over the
fibers of the multiplication map.  Inside a fiber, both J meet K and J.K
are spanned by differences e_a - e_b of monomial pairs, so their ranks
are vertex counts minus component counts (witness_dims).  Permuting
x_1..x_d fixes x_0, K and J and carries one fiber onto another with the
same component count, so the count runs once per symmetry class of
fibers, weighted by the size of the class.

The dimension counts do not depend on the point: a linear change of
coordinates moving one point to another carries every ingredient to its
counterpart.  local_witness_check is the 2d-variable identity behind
nonvanishing: u1 v2 - u2 v1 lies in J' meet K' but (J'.K')_2 = 0.
"""

from __future__ import annotations

from math import factorial

from .fields import QQ
from .linalg import Ambient, GradedSubspace, poly_ambient, segre_ambient, span, span_polys
from .poly import HomogPoly, basis_dim, monomial_basis

__all__ = ["SegreContext", "local_witness_check", "nonvanishing_from"]


class SegreContext:
    """Degreewise data for U tensor U (the same for every point)."""

    def __init__(self, d: int, field):
        if d < 2:
            raise ValueError("need projective dimension at least 2")
        self.d = d
        self.nvars = d + 1
        self.field = field

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

    # -- adapted coordinates, one symmetry class of fibers at a time -------------

    def witness_dims(self, max_piece: int) -> dict:
        """Dims of (J meet K), (J.K) and their quotient, by counting components.

        In adapted coordinates the three spaces split over the fibers
        F_w = {(mu, nu) : mu nu = w}.  K keeps the pairs with neither side
        the pure power x_0^m; J meet K in F_w is spanned by the differences
        of those K pairs, so it has dimension |K_w| - 1.  Since
        K_{b+1} = U_1.K_b for point ideals, (J.K)_m = J_{m-1}.K_1, and the
        lifts of the block J_{m-1}.(x_i tensor x_j) into F_w are exactly
        the K pairs with mu_i > 0 and nu_j > 0, the pairs with label
        (i, j).  So (J.K)_m meet F_w is spanned by the differences inside
        each label class: an oriented incidence matrix, whose rank over
        every field is |K_w| minus the number c_w of components of the
        pairs linked through shared labels.  A class of one pair spans no
        difference and so adds no row, but its pair still counts as a
        vertex: a component of its own unless another of its labels links
        it.  The witness in F_w is c_w - 1.

        A permutation s of x_1..x_d fixes x_0, so it fixes K and J; it
        carries F_w onto F_sw and the label (i, j) to (s(i), s(j)), so
        c_sw = c_w.  The fibers are therefore counted once per symmetry
        class (w_0, tail), with the tail sorted non-increasing, and
        weighted by the number of distinct arrangements of the tail
        (``_fiber_classes``).  F_w holds a K pair exactly when
        w_0 <= 2m - 2, so the number of fibers is the sum of the weights.
        """
        meet_dims = {}
        product_dims = {}
        witness = {}
        for m in range(1, max_piece + 1):
            fibers = 0
            excess = 0
            for w, weight in _fiber_classes(self.d, m):
                lefts = _class_lefts(w, m)
                if not lefts:
                    raise ArithmeticError("a fiber class holds no K pair")
                fibers += weight
                excess += weight * (_components(w, lefts) - 1)
            meet_dims[m] = (basis_dim(self.nvars, m) - 1) ** 2 - fibers
            witness[m] = excess
            product_dims[m] = meet_dims[m] - excess
        return {
            "meet_dims": meet_dims,
            "product_dims": product_dims,
            "witness_dims": witness,
        }


def _partitions(n: int, parts: int, largest: int | None = None):
    """Non-increasing tuples of ``parts`` integers >= 0 summing to n, each
    at most ``largest``."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    top = n if largest is None else min(n, largest)
    for first in range(top, -1, -1):
        if first * parts < n:
            return
        for rest in _partitions(n - first, parts - 1, first):
            yield (first,) + rest


def _bounded_compositions(n: int, bounds: tuple):
    """Tuples c with sum n and 0 <= c_i <= bounds[i], in descending lex order."""
    if len(bounds) == 1:
        if n <= bounds[0]:
            yield (n,)
        return
    rest = sum(bounds[1:])
    for first in range(min(n, bounds[0]), max(0, n - rest) - 1, -1):
        for tail in _bounded_compositions(n - first, bounds[1:]):
            yield (first,) + tail


def _fiber_classes(d: int, m: int):
    """One fiber w = (w_0, tail) of each symmetry class in degree 2m that
    holds a K pair, with the number of fibers in its class.

    The tail is a non-increasing partition of 2m - w_0 into d parts, and
    its class holds d! / prod(k!) fibers, k running over the multiplicities
    of its parts.
    """
    for w0 in range(2 * m - 1):
        for tail in _partitions(2 * m - w0, d):
            weight = factorial(d)
            for part in set(tail):
                weight //= factorial(tail.count(part))
            yield (w0,) + tail, weight


def _class_lefts(w: tuple, m: int) -> list:
    """The left factors mu of the K pairs (mu, w / mu): mu <= w of degree m
    with w_0 - m < mu_0 < m, so that neither side is x_0^m."""
    w0, tail = w[0], w[1:]
    return [
        (mu0,) + rest
        for mu0 in range(max(0, w0 - m + 1), min(w0, m - 1) + 1)
        for rest in _bounded_compositions(m - mu0, tail)
    ]


def _components(w: tuple, lefts: list) -> int:
    """Components of the K pairs (mu, w / mu), mu in lefts, by union-find.

    The pair carries the labels (i, j), i, j >= 1, with mu_i > 0 and
    (w / mu)_j > 0; two pairs are linked when they share a label.
    """
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]
        return x

    for mu in lefts:
        left = [i for i in range(1, len(w)) if mu[i]]
        right = [j for j in range(1, len(w)) if w[j] > mu[j]]
        root = find((left[0], right[0]))
        for i in left:
            for j in right:
                parent[find((i, j))] = root
    return sum(1 for x in parent if parent[x] == x)


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
