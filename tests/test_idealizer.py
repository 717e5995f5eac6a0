"""Idealizer pieces, Hilbert data, generator degrees, Veronese behaviour.

The reference instance is the diagonal family (2, 3) acting on three
variables with base point (1 : 1 : 1) over the rationals.  All dimension
tables below were frozen from an independent run of the definitions
(constraint kernels computed degree by degree) before being asserted here.
"""

import pytest
from oracles import (
    contains_subspace,
    decomposable_piece_polys,
    decomposable_piece_span,
    decomposable_piece_uncapped,
    evaluate_at,
    evaluation_constraint_row,
    idealizer_piece_full,
    idealizer_piece_uncapped,
    is_piece_span,
    is_piece_uncapped,
    veronese_idealizer_piece_residual,
    veronese_idealizer_piece_uncapped,
)

from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.fields import QQ, PrimeField
from idealizer.idealizer_ring import IdealizerRing
from idealizer.poly import basis_dim
from idealizer.twist import PointIdeal, TwistRing, point_ideal_forms

T_DIMS = [1, 2, 5, 9, 14, 20, 27, 35, 44, 54, 65]
S_MOD_IS = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
S_MOD_T = [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]


def _instance(multipliers=(2, 3), field=QQ, point=(1, 1, 1)):
    phi = AutoMap.diagonal_family([field.from_int(p) for p in multipliers], field)
    ring = TwistRing(len(multipliers), phi, field)
    c = ProjPoint.make([field.from_int(v) for v in point], field)
    return IdealizerRing(ring, c)


@pytest.fixture(scope="module")
def idl():
    return _instance()


def test_point_forms_vanish_at_point(idl):
    assert len(idl.forms) == 2
    for f in idl.forms:
        assert not evaluate_at(f, idl.point, idl.ring.field)


def test_t_dims_frozen_table(idl):
    assert [idl.t_dim(n) for n in range(11)] == T_DIMS


def test_t_equals_k_plus_ideal(idl):
    rec = idl.check_T_equals_k_plus_I(10)
    assert rec["orbit_distinct"]
    assert rec["agrees"]
    assert rec["first_failure"] is None
    assert rec["dims"] == T_DIMS
    # dim T_n = dim U_n - 1 for n >= 1
    for n in range(1, 11):
        assert rec["dims"][n] == basis_dim(3, n) - 1
        assert rec["ideal_dims"][n] == rec["dims"][n]


def test_full_constraint_cross_check(idl):
    fast = idl.idealizer_piece(4)
    slow = idealizer_piece_full(idl, 4, j_cap=4)
    assert fast.dim == slow.dim
    assert contains_subspace(fast, slow) and contains_subspace(slow, fast)


def test_s_mod_is_dims(idl):
    assert idl.s_mod_is_dims(10) == S_MOD_IS


def test_s_mod_t_dims(idl):
    assert idl.s_mod_t_dims(10) == S_MOD_T


def test_generator_degrees(idl):
    gens = idl.algebra_generator_degrees(10)
    assert gens[:3] == [(1, 2), (2, 1), (3, 0)]
    assert all(count == 0 for _, count in gens[2:])


def test_veronese_not_generated_in_degree_one(idl):
    recs = [idl.veronese_gen_in_degree_one(n) for n in (1, 2, 3)]
    assert [(r["product_dim"], r["target_dim"]) for r in recs] == [
        (4, 5),
        (13, 14),
        (26, 27),
    ]
    assert not any(r["generated"] for r in recs)


def test_identity_veronese_is_generated():
    idl = _instance((1, 1))
    rec = idl.veronese_gen_in_degree_one(2)
    assert rec["generated"]
    assert rec["product_dim"] == rec["target_dim"] == 15


def test_identity_idealizer_is_whole_ring():
    idl = _instance((1, 1))
    assert [idl.t_dim(n) for n in range(6)] == [1, 3, 6, 10, 15, 21]
    assert idl.s_mod_is_dims(5) == [1, 1, 1, 1, 1, 1]
    assert idl.s_mod_t_dims(5) == [0, 0, 0, 0, 0, 0]


def test_veronese_idealizer_agreement(idl):
    rec = idl.veronese_idealizer_compare(2, 6)
    assert rec["least_agreement_degree"] == 0
    assert all(rec["agree"])
    assert rec["dims"] == [(1, 1), (5, 5), (14, 14), (27, 27), (44, 44), (65, 65), (90, 90)]


def test_veronese_routes_agree(idl):
    for m in (1, 2):
        fast = idl.veronese_idealizer_piece(2, m, j_cap=3)
        slow = veronese_idealizer_piece_residual(idl, 2, m, j_cap=3)
        assert fast.dim == slow.dim
        assert contains_subspace(fast, slow)


def test_prime_field_instance_matches():
    idl = _instance(field=PrimeField(10007))
    assert [idl.t_dim(n) for n in range(8)] == T_DIMS[:8]
    assert idl.s_mod_is_dims(6) == S_MOD_IS[:7]


def test_point_forms_reject_degenerate_ring():
    phi = AutoMap.diagonal_family([QQ.from_int(2), QQ.from_int(3)], QQ)
    ring = TwistRing(2, phi, QQ)
    forms = point_ideal_forms(ring, ProjPoint.make([QQ.one, QQ.one, QQ.one], QQ))
    assert len(forms) == 2
    assert all(f.degree == 1 for f in forms)


def test_t_zero_is_scalars(idl):
    assert idl.t_dim(0) == 1


# Regimes for the rank ceilings: generic, identity (phi = id, so every
# Veronese constraint row vanishes), residual (a point fixed by phi) and
# four variables.
CEILING_CASES = [
    ((2, 3), (1, 1, 1)),
    ((1, 1), (1, 1, 1)),
    ((2, 3), (1, 0, 0)),
    ((2, 3, 5), (1, 1, 1, 1)),
]


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize(
    "multipliers, point", CEILING_CASES, ids=["generic", "identity", "residual", "d3"]
)
def test_veronese_piece_zero_reads_no_row(field, multipliers, point, monkeypatch):
    """R'_0 is U_0, returned with no constraint row read: the route that
    reads every row of I_nj, j <= 3, finds them all zero."""
    idl = _instance(multipliers, field, point)
    want = [veronese_idealizer_piece_uncapped(idl, n, 0, 3) for n in (1, 2, 3)]

    def no_rows(*args):
        raise AssertionError("R'_0 read a constraint row")

    monkeypatch.setattr(idl.ring, "left_mult_rows", no_rows)
    assert [idl.veronese_idealizer_piece(n, 0, 3) for n in (1, 2, 3)] == want
    assert all(r.dim == 1 == r.ambient.dim for r in want)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize(
    "multipliers, point", CEILING_CASES, ids=["generic", "identity", "residual", "d3"]
)
def test_capped_routes_match_uncapped(field, multipliers, point):
    """Stopping at a rank ceiling changes no piece and no dimension, n <= 6;
    the subspace routes of (IS)_m and (T_+^2)_n, whose ranks the package
    counts, span what the routes that read every product span."""
    idl = _instance(multipliers, field, point)
    for n in range(7):
        assert idl.idealizer_piece(n) == idealizer_piece_uncapped(idl, n)
        assert idl.is_piece(n) == is_piece_uncapped(idl, n).dim
        assert idl.decomposable_piece(n) == decomposable_piece_uncapped(idl, n).dim
        assert is_piece_span(idl, n) == is_piece_uncapped(idl, n)
        assert decomposable_piece_span(idl, n) == decomposable_piece_uncapped(idl, n)
    for m in range(4):
        assert idl.veronese_idealizer_piece(2, m, 3) == veronese_idealizer_piece_uncapped(
            idl, 2, m, 3
        )


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize(
    "multipliers, point", CEILING_CASES, ids=["generic", "identity", "residual", "d3"]
)
def test_decomposable_rows_match_polynomial_products(field, multipliers, point):
    """Row products of twisted T_a rows with T_(n-a) rows span what the
    HomogPoly products of basis polynomials span, n <= 6."""
    idl = _instance(multipliers, field, point)
    for n in range(1, 7):
        assert idl.decomposable_piece(n) == decomposable_piece_polys(idl, n).dim


NON_DIAGONAL = ((1, 1, 0), (0, 2, 1), (1, 0, 3))


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
def test_non_diagonal_routes_match_polynomial_products(field):
    """Under a full matrix, where a twist is no rescaling of monomials, the
    int-row products of IS and (T_+^2) span what the HomogPoly products
    span, n <= 6."""
    phi = AutoMap.from_matrix([[field.from_int(v) for v in r] for r in NON_DIAGONAL], field)
    c = ProjPoint.make([field.from_int(v) for v in (1, 2, 3)], field)
    idl = IdealizerRing(TwistRing(2, phi, field), c)
    for n in range(7):
        assert idl.is_piece(n) == is_piece_uncapped(idl, n).dim
        assert idl.decomposable_piece(n) == decomposable_piece_polys(idl, n).dim


def test_decomposable_ceiling_guard_fires(monkeypatch):
    """Products of T filling dim T_3 must span T_3 itself."""
    idl = _instance()
    real = idl.idealizer_piece
    other = ProjPoint.make([QQ.from_int(v) for v in (1, 2, 3)], QQ)
    wrong = PointIdeal(idl.ring, other).piece(3)
    assert wrong.dim == real(3).dim and wrong != real(3)
    monkeypatch.setattr(idl, "idealizer_piece", lambda n: wrong if n == 3 else real(n))
    with pytest.raises(ArithmeticError, match="leave T_3"):
        idl.decomposable_piece(3)


def test_decomposable_guard_fires_below_the_cap(monkeypatch):
    """One product row off T_3 is an error, although the rows read never
    reach rank dim T_3, where a span compared with T_3 would look."""
    idl = _instance()
    T3 = idl.idealizer_piece(3)
    off = ((0, 1),)  # x0^3 is 1 at (1:1:1), so it lies outside T_3 = I_3
    assert not T3.contains_vector(off) and T3.dim > 1
    monkeypatch.setattr(idl.ring, "product_rows", lambda *args: iter([off]))
    with pytest.raises(ArithmeticError, match="leave T_3"):
        idl.decomposable_piece(3)


def test_veronese_rank_one_guard_fires(monkeypatch):
    """A first constraint row off the evaluation row is an error, for R'_m and T_n."""
    real = TwistRing.left_mult_rows

    def broken(self, *args):
        for r in real(self, *args):
            row = dict(r)
            row[0] = row.get(0, 0) + 1
            yield list(row.items())

    monkeypatch.setattr(TwistRing, "left_mult_rows", broken)
    for piece in (
        lambda idl: idl.veronese_idealizer_piece(2, 1, 3),
        lambda idl: idl.idealizer_piece(2),
    ):
        with pytest.raises(ArithmeticError, match="not a multiple of evaluation"):
            piece(_instance())


# the maps of the golden configs matrix.json and frac.json, with their points
GOLDEN_MAPS = [
    ((("1", "1", "0"), ("0", "2", "0"), ("0", "0", "3")), (1, 1, 1)),
    ((("1/2", "1", "0"), ("0", "2/3", "1"), ("1", "0", "3")), (1, 2, 3)),
]


def _proportional(u, v, p):
    """Whether the int rows u and v are nonzero multiples of each other
    (mod p when p > 0), or both zero."""
    u, v = dict(u), dict(v)
    if u.keys() != v.keys():
        return False
    if not u:
        return True
    c = min(u)
    cross = (u[k] * v[c] - v[k] * u[c] for k in u)
    return not any(x % p if p else x for x in cross)


def _constraint_rows_match_evaluation(idl):
    """Each row of ``left_mult_rows`` against I is a nonzero multiple of the
    multiply-then-evaluate row, or both are zero: T_n (a = 1, n <= 6) and
    R'_m (a = nj <= 4, nm <= 6)."""
    ring, p = idl.ring, idl.field.char
    cases = [(1, n, idl.form_rows) for n in range(7)]
    cases += [(a, s, idl.I.piece(a).rows) for a in range(1, 5) for s in range(7)]
    for a, s, lefts in cases:
        got = list(ring.left_mult_rows(lefts, a, s, idl.I))
        want = [
            evaluation_constraint_row(idl, ring.power(s).apply_row(f, a), a, s) for f in lefts
        ]
        assert len(got) == len(want), (a, s)
        for f, g, w in zip(lefts, got, want):
            assert _proportional(g, w, p), (a, s, f)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize(
    "multipliers, point", CEILING_CASES, ids=["generic", "identity", "residual", "d3"]
)
def test_constraint_rows_match_evaluation(field, multipliers, point):
    _constraint_rows_match_evaluation(_instance(multipliers, field, point))


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize("rows, point", GOLDEN_MAPS, ids=["matrix", "frac"])
def test_constraint_rows_match_evaluation_under_matrix_maps(field, rows, point):
    """The same under a full matrix, whose twist of a row carries den != 1 for frac."""
    phi = AutoMap.from_matrix([[field.parse(x) for x in r] for r in rows], field)
    c = ProjPoint.make([field.from_int(v) for v in point], field)
    _constraint_rows_match_evaluation(IdealizerRing(TwistRing(2, phi, field), c))
