"""Twisted multiplication, graded ideals, and the opposite-ring identity."""

from fractions import Fraction

import pytest
from oracles import (
    associativity_sample_polys,
    basis_polys,
    ideal_piece_eliminated,
    monomial_polys,
    opposite_iso_check_per_pair,
    orbit_point,
    point_guard_on_piece,
    recursive_point_ideal,
    twisted_piece_apply,
    twisted_products,
)

from idealizer import linalg
from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.fields import QQ, PrimeField
from idealizer.linalg import span, span_polys
from idealizer.poly import basis_dim, format_poly, monomial_values, parse_poly, poly_to_vector
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
    return span_polys(monomial_polys(S, n), S.ambient(n), S.field)


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
        assert fast.twisted_piece(1, n) == twisted_piece_apply(slow, 1, n)
    assert [fast.dim(n) for n in range(1, 4)] == [_full_piece(S, n).dim - 1 for n in range(1, 4)]


# a negative last coordinate makes ev[L] negative in odd degrees
CANONICAL_POINTS = POINTS + [(2, 3, -5)]


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize("coords", CANONICAL_POINTS, ids=[str(c) for c in CANONICAL_POINTS])
def test_point_ideal_pieces_are_canonical(field, coords):
    """The written-down rows are the RREF that ``span`` computes from the same rows."""
    S = _ring(tuple(range(2, len(coords) + 1)), field)
    pt = ProjPoint.make([field.from_int(c) for c in coords], field)
    ideal = PointIdeal(S, pt)
    for n in range(7):
        piece = ideal.piece(n)
        assert piece == span(piece.rows, S.ambient(n), field)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize("coords", CANONICAL_POINTS, ids=[str(c) for c in CANONICAL_POINTS])
def test_point_ideal_quotient_is_its_piece_quotient_map(field, coords):
    """The projection read off the evaluation row, with no piece of the
    ideal built, is the quotient map of the piece, n <= 6."""
    S = _ring(tuple(range(2, len(coords) + 1)), field)
    ideal = PointIdeal(S, ProjPoint.make([field.from_int(c) for c in coords], field))
    got = [ideal.quotient(n) for n in range(7)]
    assert not ideal._pieces
    for n, (codim, images) in enumerate(got):
        piece = ideal.piece(n)
        assert codim == 1 == piece.ambient.dim - piece.dim
        assert dict(enumerate(images)) == piece.quotient_map[1], n
    assert ideal.quotient(-1) == (0, {})


def test_negative_degree_pieces_share_one_ambient():
    """J_n = 0 for n < 0 lives in U_n, whichever route builds it."""
    S = _ring()
    pt = ProjPoint.make([QQ.from_int(c) for c in (1, 2, 3)], QQ)
    for ideal in (PointIdeal(S, pt), GradedIdeal(S, [S.variable(0)]), GradedIdeal(S, [])):
        for n in (-1, -2):
            assert ideal.piece(n).ambient == S.ambient(n)
            assert ideal.piece(n).dim == 0
            assert ideal.piece(n) == ideal.twisted_piece(1, n) == ideal.twisted_piece(-2, n)


NON_DIAGONAL = ((1, 1, 0), (0, 2, 0), (0, 0, 3))

# generic; identity (phi = id); residual (a point fixed by phi); d = 3; a
# non-diagonal matrix, whose moved points are not coordinate rescalings
TWIST_REGIMES = [
    ((2, 3), (1, 1, 1)),
    ((1, 1), (1, 1, 1)),
    ((2, 3), (1, 0, 0)),
    ((2, 3, 5), (1, 1, 1, 1)),
    (NON_DIAGONAL, (1, 1, 1)),
]


def _regime_ring(phi_data, field):
    if phi_data == NON_DIAGONAL:
        phi = AutoMap.from_matrix([[field.from_int(v) for v in r] for r in phi_data], field)
        return TwistRing(2, phi, field)
    return _ring(phi_data, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize(
    "phi_data, coords",
    TWIST_REGIMES,
    ids=["generic", "identity", "residual", "d3", "non-diagonal"],
)
def test_moved_point_twist_matches_apply_route(field, phi_data, coords):
    """phi^k(I_c) is the ideal of the moved point: the same pieces as
    ``AutoMap.apply`` on the recursive ideal's basis, k = +-1, +-2, +-3, n <= 5."""
    S = _regime_ring(phi_data, field)
    pt = ProjPoint.make([field.from_int(c) for c in coords], field)
    fast = PointIdeal(S, pt)
    slow = recursive_point_ideal(S, pt)
    for power in (1, -1, 2, -2, 3, -3):
        for n in range(-1, 6):
            assert fast.twisted_piece(power, n) == twisted_piece_apply(slow, power, n)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize(
    "phi_data, coords",
    TWIST_REGIMES,
    ids=["generic", "identity", "residual", "d3", "non-diagonal"],
)
def test_point_ideal_codim_and_columns_match_pieces(field, phi_data, coords):
    """codim and nonpivot_columns, read off the evaluation row with no
    piece built, are those of the built pieces: for an orbit point, an
    off-orbit point and their ideals moved by phi^2 and phi^-3, n <= 6."""
    S = _regime_ring(phi_data, field)
    pt = ProjPoint.make([field.from_int(c) for c in coords], field)
    off = ProjPoint.make([field.from_int(c) for c in (1, 5, 7, 11)[: len(coords)]], field)
    for ideal in (PointIdeal(S, orbit_point(S.phi, pt, 3)), PointIdeal(S, off)):
        # a fixed point moves to its own ideal, so read all three before any piece
        moved = [ideal, ideal.moved(2), ideal.moved(-3)]
        got = [[(J.codim(n), J.nonpivot_columns(n)) for n in range(-1, 7)] for J in moved]
        assert not any(J._pieces for J in moved)
        for J, answers in zip(moved, got):
            for n, (codim, columns) in zip(range(-1, 7), answers):
                piece = J.piece(n)
                assert codim == piece.ambient.dim - piece.dim == (1 if n >= 0 else 0)
                assert columns == piece.nonpivot_columns, n


def _plus(row, k, v):
    """The sparse int row with v added at column k."""
    out = dict(row)
    out[k] = out.get(k, 0) + v
    return tuple(sorted((c, x) for c, x in out.items() if x))


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(7), PrimeField(10007)], ids=["Q", "GF7", "GF10007"]
)
def test_point_guard_matches_piece_route(field):
    """``PointIdeal.annihilated_by``, read off the evaluation row with no
    piece built, agrees with ``linalg.annihilates`` on the built piece:
    for an orbit, an off-orbit and two moved point ideals, n <= 5, on the
    hom constraint rows, on rows into another point's quotient, on the
    evaluation row and on that row perturbed at one column.  A
    perturbation by 1 off the row's last column fails the guard in degree
    n >= 1; one by p passes it mod p."""
    S = _ring((2, 3), field)
    base = ProjPoint.make([field.one] * 3, field)
    forms = [poly_to_vector(f, field) for f in point_ideal_forms(S, base)]
    orbit = PointIdeal(S, orbit_point(S.phi, base, 2))
    off = PointIdeal(S, ProjPoint.make([field.from_int(c) for c in (1, 5, 11)], field))
    ideals = [orbit, off, orbit.moved(3), off.moved(-2)]
    p = field.char
    cases = []
    for J in ideals:
        other = off if J is not off else orbit
        for n in range(-1, 6):
            hom = list(S.left_mult_rows(forms, 1, n, J))
            cases.append((J, n, hom, True))
            cases.append((J, n, list(S.left_mult_rows(forms, 1, n, other)), None))
            if n < 0:
                continue
            ev = monomial_values(J.point.coords, field, n)
            cases.append((J, n, [ev, tuple((k, 3 * v) for k, v in ev)], True))
            (last,) = J.nonpivot_columns(n)
            for k in range(basis_dim(S.nvars, n)):
                if k != last:
                    cases.append((J, n, hom + [_plus(ev, k, 1)], False))
                    if p:
                        cases.append((J, n, [_plus(ev, k, p)], True))
    got = [J.annihilated_by(rows, n) for J, n, rows, _ in cases]
    assert not any(J._pieces for J in ideals)
    for (J, n, rows, want), answer in zip(cases, got):
        assert answer == point_guard_on_piece(J, rows, n), (n, rows)
        if want is not None:
            assert answer == want, (n, rows)
    assert False in got and True in got


IDEAL_GENS = {
    "principal": ["x0"],
    "principal-moving": ["x0 - 2*x1 + x2"],
    "max": ["x0", "x1", "x2"],
    "two-generator": ["x0^2", "x1*x2"],
}


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize(
    "phi_data", [(2, 3), (1, 1), NON_DIAGONAL], ids=["generic", "identity", "non-diagonal"]
)
@pytest.mark.parametrize("label", sorted(IDEAL_GENS))
def test_moved_ideal_twist_matches_apply_route(field, phi_data, label):
    """phi^k(J) is the ideal on the images of J's generators: the same
    pieces as ``AutoMap.apply`` on each basis of J_n, k = +-1, +-2, +-3, n <= 5."""
    S = _regime_ring(phi_data, field)
    J = GradedIdeal(S, [parse_poly(g, 3, field) for g in IDEAL_GENS[label]])
    for power in (1, -1, 2, -2, 3, -3):
        for n in range(-1, 6):
            assert J.twisted_piece(power, n) == twisted_piece_apply(J, power, n)


# generators, and whether some piece of n <= 8 has a spanning row that is
# not one monomial, so that it must still be eliminated
MONOMIAL_CASES = {
    "max": (["x0", "x1", "x2"], False),
    "principal": (["x0"], False),
    "principal-scaled": (["2*x0"], False),
    "two-generator": (["x0^2", "x1*x2"], False),
    "mixed": (["x0", "x1 + x2"], True),
}


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(7), PrimeField(10007)], ids=["Q", "GF7", "GF10007"]
)
@pytest.mark.parametrize("label", sorted(MONOMIAL_CASES))
def test_monomial_pieces_match_elimination(monkeypatch, field, label):
    """A piece spanned by monomials is written down as the canonical form
    that eliminating its spanning rows gives, n <= 8, and with no
    ``Echelon`` row; an ideal with a non-monomial row still eliminates."""
    gens, eliminates = MONOMIAL_CASES[label]
    S = _ring((2, 3), field)
    J = GradedIdeal(S, [parse_poly(g, 3, field) for g in gens])
    oracle = [ideal_piece_eliminated(J, n) for n in range(9)]
    inserted = []
    real = linalg.Echelon.insert
    monkeypatch.setattr(
        linalg.Echelon, "insert", lambda ech, row: inserted.append(row) or real(ech, row)
    )
    assert [J.piece(n) for n in range(9)] == oracle
    assert bool(inserted) == eliminates


def test_fixed_ideal_is_its_own_twist():
    """phi(x0) = x0 for the diagonal family, so (x0) keeps no moved copy,
    and a fixed point's ideal neither; a moving ideal keeps one per power."""
    S = _ring()
    principal = GradedIdeal(S, [S.variable(0)])
    fixed = PointIdeal(S, ProjPoint.make([QQ.one, QQ.zero, QQ.zero], QQ))
    for ideal in (principal, fixed):
        for power in (-2, 1, 3):
            assert ideal.twisted_piece(power, 3) is ideal.piece(3)
        assert set(ideal._moved.values()) == {None}
    moving = GradedIdeal(S, [parse_poly("x0 - x1", 3, QQ)])
    assert moving.twisted_piece(1, 2) is moving.twisted_piece(1, 2)
    assert moving.twisted_piece(1, 2) != moving.piece(2)
    assert list(moving._moved) == [1]


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


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize(
    "phi_data", [(2, 3), (1, 1), NON_DIAGONAL], ids=["generic", "identity", "non-diagonal"]
)
def test_product_rows_match_polynomial_products(field, phi_data):
    """``product_piece`` and ``principal_right_piece`` span what the
    HomogPoly twisted products of their factors span, total degree <= 5."""
    S = _regime_ring(phi_data, field)
    pt = ProjPoint.make([field.from_int(c) for c in (1, 2, 3)], field)
    pieces = [PointIdeal(S, pt).piece, lambda n: _full_piece(S, n)]
    f = parse_poly("x0 - 2*x1 + x2", 3, field)
    for a in range(1, 4):
        for b in range(0, 6 - a):
            for left in pieces:
                for right in pieces:
                    v, w = left(a), right(b)
                    want = twisted_products(S, basis_polys(v), basis_polys(w))
                    assert S.product_piece(v, w) == span_polys(want, S.ambient(a + b), field)
        fS = twisted_products(S, [f], monomial_polys(S, a))
        assert S.principal_right_piece(f, a + 1) == span_polys(fS, S.ambient(a + 1), field)


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


class _FaultyPower(TwistRing):
    """A ring whose phi^fault is phi^(fault + 1): one wrong twist."""

    def __init__(self, fault, *args):
        super().__init__(*args)
        self.fault = fault

    def power(self, n):
        got = super().power(n)
        return got.compose(self.phi) if n == self.fault else got


def _matrix_ring(field):
    rows = [[1, 1, 0], [0, 2, 1], [1, 0, 3]]
    phi = AutoMap.from_matrix([[field.from_int(x) for x in r] for r in rows], field)
    return TwistRing(2, phi, field)


_OPPOSITE_RINGS = {
    "diag-q": lambda: _ring(),
    "diag-q-d3": lambda: _ring((2, 3, 5)),
    "identity-q": lambda: _ring((1, 1)),
    "diag-gf7": lambda: _ring((2, 3), PrimeField(7)),
    "matrix-q": lambda: _matrix_ring(QQ),
    "matrix-gf10007": lambda: _matrix_ring(PrimeField(10007)),
    # phi^2 = 1, so den is 2 for odd powers and 1 for even ones: no den^k
    "swap-q": lambda: TwistRing(
        2, AutoMap.from_matrix([[0, Fraction(1, 2), 0], [2, 0, 0], [0, 0, 1]], QQ), QQ
    ),
    "fault-at-minus-3": lambda: _FaultyPower(-3, 2, _ring().phi, QQ),
    "fault-at-2-gf7": lambda: _FaultyPower(2, 2, _ring((2, 3), PrimeField(7)).phi, PrimeField(7)),
    "fault-at-minus-1-matrix": lambda: _FaultyPower(-1, 2, _matrix_ring(QQ).phi, QQ),
    "fault-at-3": lambda: _FaultyPower(3, 2, _ring().phi, QQ),
    "fault-at-1-matrix": lambda: _FaultyPower(1, 2, _matrix_ring(QQ).phi, QQ),
}


@pytest.mark.parametrize("name", sorted(_OPPOSITE_RINGS))
def test_opposite_iso_check_matches_per_pair(name):
    ring = _OPPOSITE_RINGS[name]()
    got = ring.opposite_iso_check(4)
    assert got == opposite_iso_check_per_pair(ring, 4)
    assert got[0] == (got[2] is None) == (not name.startswith("fault"))


_ASSOCIATIVITY_RINGS = dict(
    _OPPOSITE_RINGS,
    **{"diag-q-half": lambda: TwistRing(2, AutoMap.diagonal_family([Fraction(1, 2), 3], QQ), QQ)},
)


@pytest.mark.parametrize("name", sorted(_ASSOCIATIVITY_RINGS))
def test_associativity_sample_matches_polys(name):
    """The int-row sample and the HomogPoly route give one verdict.  The
    sample twists only by phi^k with k >= 1, so a ring whose one wrong
    power is negative passes both, and every other fault fails both."""
    ring = _ASSOCIATIVITY_RINGS[name]()
    got = associativity_sample(ring, trials=60, seed=811)
    assert got == associativity_sample_polys(ring, trials=60, seed=811)
    fault = getattr(ring, "fault", None)
    assert got == (fault is None or fault < 1)


def test_opposite_iso_check_reports_the_first_failing_pair():
    """With phi^-3 off by one factor of phi, the pairs of degrees (0, 3)
    use it on both sides and pass, as does x0 . x0^2, which has weight 1.
    The first failure is x0 . x0 x1, the 49th pair."""
    ring = _FaultyPower(-3, 2, _ring().phi, QQ)
    assert ring.opposite_iso_check(4) == (False, 49, ((1, 0, 0), (1, 1, 0)))


def test_ambient_basis_shape():
    S = _ring()
    assert S.ambient(2).dim == 6
    assert len(S.basis(3)) == 10
    with pytest.raises(ValueError):
        S.mul(parse_poly("x0", 3, QQ), parse_poly("x0", 2, QQ))
