"""Twisted multiplication, graded ideals, and the opposite-ring identity."""

import pytest

from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.fields import QQ, PrimeField
from idealizer.linalg import span_polys
from idealizer.poly import format_poly, parse_poly
from idealizer.twist import (
    GradedIdeal,
    PointIdeal,
    TwistRing,
    associativity_sample,
    point_ideal_forms,
)


def _ring(multipliers=(2, 3), field=QQ):
    phi = AutoMap.diagonal_family([field.from_int(p) for p in multipliers], field)
    return TwistRing(len(multipliers), phi, field)


def _full_piece(S, n):
    """U_n, spanned by its monomials."""
    return span_polys(S.monomial_polys(n), S.ambient(n), S.field)


def test_normalization_pin():
    """x1 * x0 = 2 * (x0 * x1) for the diagonal family (2, 3).

    The product twists the left factor by the degree of the right one,
    and the family fixes x0 while scaling x1 by 2.
    """
    S = _ring()
    x0, x1 = S.variable(0), S.variable(1)
    assert S.mul(x1, x0) == S.mul(x0, x1).scale(QQ.from_int(2))
    assert S.mul(x2 := S.variable(2), x0) == S.mul(x0, x2).scale(QQ.from_int(3))


def test_noncommutative_unless_identity():
    S = _ring()
    x0, x1 = S.variable(0), S.variable(1)
    assert S.mul(x0, x1) != S.mul(x1, x0)
    T = _ring((1, 1))
    assert T.mul(T.variable(0), T.variable(1)) == T.mul(T.variable(1), T.variable(0))


def test_twisted_power_action():
    S = _ring()
    f = parse_poly("x1*x2", 3, QQ)
    assert S.twisted(1, f) == f.scale(QQ.from_int(6))
    assert S.twisted(-1, S.twisted(1, f)) == f
    assert S.twisted(0, f) == f


def test_associativity_sample():
    assert associativity_sample(_ring(), trials=200, seed=811)
    assert associativity_sample(_ring((2, 4)), trials=50, seed=17)


def test_associativity_exact_small_case():
    S = _ring()
    f = parse_poly("x0 + 2*x1", 3, QQ)
    g = parse_poly("x1 - x2", 3, QQ)
    h = parse_poly("x0*x2", 3, QQ)
    assert S.mul(S.mul(f, g), h) == S.mul(f, S.mul(g, h))


def test_graded_ideal_pieces():
    S = _ring()
    I = GradedIdeal(S, [parse_poly("x0 - x1", 3, QQ), parse_poly("x0 - x2", 3, QQ)])
    assert I.dim(0) == 0
    assert I.dim(1) == 2
    # a point ideal in P^2: codimension one in every positive degree
    assert [I.dim(n) for n in range(1, 6)] == [2, 5, 9, 14, 20]
    assert I.piece(2).contains_poly(S.mul(S.variable(0), parse_poly("x0 - x1", 3, QQ)))


def test_graded_ideal_zero_and_unit():
    S = _ring()
    Z = GradedIdeal(S, [])
    assert [Z.dim(n) for n in range(4)] == [0, 0, 0, 0]
    M = GradedIdeal(S, [S.variable(i) for i in range(3)])
    assert M.dim(0) == 0
    assert M.dim(2) == 6


POINTS = [
    (1, 0, 0),
    (0, 1, 1),
    (0, 0, 1),
    (10**12 + 39, -(2**61 - 1), 7**20),
    (1, 1, 1, 1),
    (0, 3, -5, 10**9 + 7),
]


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize("coords", POINTS, ids=[str(c) for c in POINTS])
def test_point_ideal_matches_recursion(field, coords):
    """Evaluation-kernel pieces equal the x_v * I_{n-1} recursion, n <= 6."""
    S = _ring(tuple(range(2, len(coords) + 1)), field)
    pt = ProjPoint.make([field.from_int(c) for c in coords], field)
    fast = PointIdeal(S, pt)
    slow = GradedIdeal(S, point_ideal_forms(S, pt))
    assert fast.gens == slow.gens
    for n in range(-1, 7):
        assert fast.piece(n) == slow.piece(n)
        assert fast.twisted_piece(1, n) == slow.twisted_piece(1, n)
    assert [fast.dim(n) for n in range(1, 4)] == [_full_piece(S, n).dim - 1 for n in range(1, 4)]


def test_point_ideal_forms_are_exact():
    """Each form is the kernel vector whose last nonzero coefficient is 1."""
    S = _ring()
    pt = ProjPoint.make([QQ.from_int(c) for c in (2, 3, 5)], QQ)
    got = [format_poly(f, QQ) for f in point_ideal_forms(S, pt)]
    assert got == ["-3/2*x0 + x1", "-5/2*x0 + x2"]


def test_point_ideal_rejects_arity_mismatch():
    S = _ring()
    with pytest.raises(ValueError):
        PointIdeal(S, ProjPoint.make([QQ.one, QQ.one], QQ))


def test_twisted_piece():
    S = _ring()
    I = GradedIdeal(S, [parse_poly("x0 - x1", 3, QQ)])
    moved = I.twisted_piece(1, 1)
    want = S.phi.apply(parse_poly("x0 - x1", 3, QQ))
    assert moved.contains_poly(want)
    assert moved.dim == I.piece(1).dim


def test_product_piece_twists_left_factor():
    S = _ring()
    V = _full_piece(S, 1)
    f = parse_poly("x0 - x1", 3, QQ)
    gens = GradedIdeal(S, [f])
    # product of the degree-1 piece with itself: phi(V) * V = V * V as spaces
    P = S.product_piece(V, V)
    assert P.dim == 6
    Q = S.product_piece(gens.piece(1), V)
    for g in (S.variable(0), S.variable(1), S.variable(2)):
        assert Q.contains_poly(S.mul(f, g))


def test_principal_right_piece():
    S = _ring()
    f = parse_poly("x0 - 2*x1 + x2", 3, QQ)
    piece = S.principal_right_piece(f, 2)
    assert piece.dim == 3
    assert piece.contains_poly(S.mul(f, S.variable(1)))


def test_opposite_iso_check():
    ok, checked, first_bad = _ring().opposite_iso_check(3)
    assert ok and first_bad is None
    assert checked == 84


def test_ambient_basis_shape():
    S = _ring()
    assert S.ambient(2).dim == 6
    assert len(S.basis(3)) == 10
    with pytest.raises(ValueError):
        S.mul(parse_poly("x0", 3, QQ), parse_poly("x0", 2, QQ))
