"""Sparse homogeneous polynomials over an exact field."""

from dataclasses import replace
from fractions import Fraction

import pytest
from properties import FIELDS, property_test

from idealizer.automorphism import AutoMap, ProjPoint, evaluate_at, point_image, pullback_point
from idealizer.fields import QQ, PrimeField, int_row
from idealizer.poly import (
    HomogPoly,
    basis_dim,
    basis_index,
    format_poly,
    mono_degree,
    mono_mul,
    monomials,
    parse_poly,
    poly_to_vector,
    row_product,
    times_monomial,
    vector_to_poly,
)
from idealizer.twist import TwistRing


def test_monomial_helpers():
    assert mono_degree((2, 0, 1)) == 3
    assert mono_mul((1, 0), (0, 2)) == (1, 2)


def test_monomials_order_and_count():
    ms = monomials(3, 2)
    # reverse-lex listing, x0^2 first
    assert ms[0] == (2, 0, 0)
    assert len(ms) == basis_dim(3, 2) == 6
    idx = basis_index(3, 2)
    assert sorted(idx.values()) == list(range(6))
    assert all(mono_degree(m) == 2 for m in ms)


def test_basis_dim_binomial():
    # dim k[x0..x2]_n = C(n+2, 2)
    assert [basis_dim(3, n) for n in range(6)] == [1, 3, 6, 10, 15, 21]


def test_poly_arithmetic():
    x0 = HomogPoly.variable(3, 0, QQ)
    x1 = HomogPoly.variable(3, 1, QQ)
    f = x0 + x1.scale(QQ.from_int(2))
    g = x0 - x1
    assert (f * g).coeff((1, 1, 0), QQ) == Fraction(1)
    assert (f + g).coeff((1, 0, 0), QQ) == Fraction(2)
    assert (f - f).is_zero()
    assert (-f).coeff((0, 1, 0), QQ) == Fraction(-2)


def test_poly_degree_mismatch_rejected():
    x0 = HomogPoly.variable(3, 0, QQ)
    sq = x0 * x0
    with pytest.raises(ValueError):
        x0 + sq


def test_mixed_characteristics_rejected():
    a = HomogPoly.variable(3, 0, PrimeField(7))
    b = HomogPoly.variable(3, 0, PrimeField(11))
    with pytest.raises(ValueError):
        a + b


def test_poly_vector_round_trip():
    f = parse_poly("x0^2 - 3*x1*x2", 3, QQ)
    vec = poly_to_vector(f, QQ)
    assert vector_to_poly(vec, 3, 2, QQ.char) == f
    assert len(vec) == basis_dim(3, 2)


def test_parse_format_round_trip():
    for text in ["x0", "x0 + x1", "2*x0^2 - x1*x2", "-x0 + 1/2*x2", "x0^3 - 2/3*x0*x1^2 + x2^3"]:
        f = parse_poly(text, 3, QQ)
        assert parse_poly(format_poly(f, QQ), 3, QQ) == f


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_poly("x0 + x1^2", 3, QQ)  # inhomogeneous
    with pytest.raises(ValueError):
        parse_poly("x5", 3, QQ)  # unknown variable
    with pytest.raises(ValueError):
        parse_poly("x0 + ", 3, QQ)


def test_evaluate():
    f = parse_poly("x0^2 - x1*x2", 3, QQ)
    assert f.evaluate([QQ.from_int(2), QQ.from_int(1), QQ.from_int(4)], QQ) == Fraction(0)
    assert f.evaluate([QQ.from_int(1), QQ.from_int(1), QQ.from_int(2)], QQ) == Fraction(-1)


def test_apply_auto_column_convention():
    """x_i maps to the ith column of the matrix read as coefficients."""
    phi = AutoMap.diagonal_family([QQ.from_int(2), QQ.from_int(3)], QQ)
    x1 = HomogPoly.variable(3, 1, QQ)
    assert phi.apply(x1) == x1.scale(QQ.from_int(2))
    f = parse_poly("x1*x2", 3, QQ)
    assert phi.apply(f) == f.scale(QQ.from_int(6))


def test_apply_respects_evaluation_transpose():
    """evaluate(apply(A, f), P) == f(A^T P) for a non-diagonal map."""
    rows = [
        [QQ.from_int(1), QQ.from_int(1), QQ.from_int(0)],
        [QQ.from_int(0), QQ.from_int(1), QQ.from_int(0)],
        [QQ.from_int(0), QQ.from_int(2), QQ.from_int(1)],
    ]
    A = AutoMap.from_matrix(rows, QQ)
    f = parse_poly("x0^2 - x1*x2 + x2^2", 3, QQ)
    P = ProjPoint.make([QQ.from_int(1), QQ.from_int(2), QQ.from_int(3)], QQ)
    lhs = evaluate_at(A.apply(f), P, QQ)
    rhs = evaluate_at(f, point_image(A, P), QQ)
    assert lhs == rhs


def test_apply_fixes_constants_for_a_non_diagonal_map():
    rows = [
        [QQ.from_int(1), QQ.from_int(1), QQ.from_int(0)],
        [QQ.from_int(0), QQ.from_int(2), QQ.from_int(0)],
        [QQ.from_int(0), QQ.from_int(0), QQ.from_int(3)],
    ]
    A = AutoMap.from_matrix(rows, QQ)
    assert A.diagonal is None
    c = HomogPoly.monomial((0, 0, 0), QQ.from_int(5), QQ.char)
    assert A.apply(c) == c
    assert A.apply(HomogPoly.zero(3, 0, QQ.char)) == HomogPoly.zero(3, 0, QQ.char)


def test_pullback_inverts_image():
    phi = AutoMap.diagonal_family([QQ.from_int(2), QQ.from_int(3)], QQ)
    P = ProjPoint.make([QQ.one, QQ.one, QQ.one], QQ)
    assert pullback_point(phi, point_image(phi, P)).coords == P.coords


def test_proj_point_canonical_coords():
    P = ProjPoint.make([Fraction(-1, 2), Fraction(-1), Fraction(-3, 2)], QQ)
    assert P.coords == (Fraction(1), Fraction(2), Fraction(3))
    assert P.render(QQ) == "(1 : 2 : 3)"
    F = PrimeField(7)
    Q = ProjPoint.make([F.from_int(3), F.from_int(5)], F)
    assert Q.coords[0] == F.one


def test_auto_inverse_and_compose():
    phi = AutoMap.diagonal_family([QQ.from_int(2), QQ.from_int(3)], QQ)
    assert phi.compose(phi.inv()).is_identity()
    assert not phi.is_identity()
    assert AutoMap.identity(3, QQ).is_identity()


# -- property tests over QQ, GF(7) and GF(10007), in three variables ---------------

NVARS = 3


def _scalar(st, field):
    return st.one_of(
        st.just(0),
        st.integers(-5, 5),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    ).map(lambda x: field.from_fraction(Fraction(x)))


def _poly(st, field, max_degree=3):
    def of_degree(deg):
        monos = monomials(NVARS, deg)
        return st.lists(_scalar(st, field), min_size=len(monos), max_size=len(monos)).map(
            lambda cs: HomogPoly.from_dict(NVARS, deg, dict(zip(monos, cs)), field.char)
        )

    return st.integers(0, max_degree).flatmap(of_degree)


def _automap(st, field):
    """An invertible map: a diagonal family half the time, a full matrix otherwise."""

    def build(rows):
        try:
            return AutoMap.from_matrix(rows, field)
        except ValueError:
            return None

    nonzero = _scalar(st, field).filter(bool)
    diagonal = st.lists(nonzero, min_size=NVARS - 1, max_size=NVARS - 1).map(
        lambda ms: AutoMap.diagonal_family(ms, field)
    )
    full = (
        st.lists(
            st.lists(_scalar(st, field), min_size=NVARS, max_size=NVARS),
            min_size=NVARS,
            max_size=NVARS,
        )
        .map(build)
        .filter(lambda a: a is not None)
    )
    return st.one_of(diagonal, full)


def _point(st, field):
    return (
        st.lists(_scalar(st, field), min_size=NVARS, max_size=NVARS)
        .filter(any)
        .map(lambda cs: ProjPoint.make(cs, field))
    )


def _field_and(st, *parts):
    return st.sampled_from(FIELDS).flatmap(
        lambda F: st.tuples(st.just(F), *(part(st, F) for part in parts))
    )


@property_test(lambda st: _field_and(st, _automap, _automap, _poly))
def test_apply_respects_compose(field, A, B, f):
    assert A.apply(B.apply(f)) == A.compose(B).apply(f)


@property_test(lambda st: _field_and(st, _automap, _poly, _point))
def test_apply_then_evaluate_is_evaluate_at_image(field, A, f, P):
    # point_image rescales A^T P to its canonical representative Q = lam * A^T P,
    # and f is homogeneous, so f(Q) = lam^deg f(A^T P)
    raw = [
        field.reduce(sum(A.matrix[j][i] * P.coords[j] for j in range(NVARS)))
        for i in range(NVARS)
    ]
    Q = point_image(A, P)
    k = next(i for i, x in enumerate(raw) if x)
    lam = field.reduce(Q.coords[k] * field.inv(raw[k]))
    assert list(Q.coords) == [field.reduce(lam * x) for x in raw]
    lhs = field.reduce(lam**f.degree * evaluate_at(A.apply(f), P, field))
    assert lhs == evaluate_at(f, Q, field)


@property_test(lambda st: _field_and(st, _automap, _poly))
def test_inverse_undoes_apply(field, A, f):
    assert A.inv().apply(A.apply(f)) == f
    assert A.apply(A.inv().apply(f)) == f
    assert A.compose(A.inv()).is_identity()


@property_test(lambda st: _field_and(st, _automap, _poly))
def test_diagonal_fast_path_matches_substitution(field, A, f):
    generic = replace(A, diagonal=None)
    assert generic.apply(f) == A.apply(f)
    assert generic.inv().apply(f) == A.inv().apply(f)


@property_test(lambda st: _field_and(st, _poly))
def test_format_parse_round_trip(field, f):
    assert parse_poly(format_poly(f, field), NVARS, field, degree=f.degree) == f


# -- the int-row product against the polynomial product, in 3-4 variables -----------


def _product_case(st):
    """A field, two polynomials of degrees <= 4 in 3 or 4 variables, a monomial index."""

    def of(field, nvars, deg):
        monos = monomials(nvars, deg)
        return st.lists(_scalar(st, field), min_size=len(monos), max_size=len(monos)).map(
            lambda cs: HomogPoly.from_dict(nvars, deg, dict(zip(monos, cs)), field.char)
        )

    def case(field, nvars, a, b):
        j = st.integers(0, basis_dim(nvars, b) - 1)
        return st.tuples(st.just(field), of(field, nvars, a), of(field, nvars, b), j)

    return st.tuples(
        st.sampled_from(FIELDS), st.integers(3, 4), st.integers(0, 4), st.integers(0, 4)
    ).flatmap(lambda t: case(*t))


@property_test(_product_case, max_examples=60)
def test_row_product_is_poly_product(field, f, g, j):
    """Exact mod p; over Q the same primitive row, so proportional by a positive scale."""
    nvars, a, b = f.nvars, f.degree, g.degree
    u, v = poly_to_vector(f, field), poly_to_vector(g, field)
    mono = HomogPoly.monomial(monomials(nvars, b)[j], 1, field.char)
    pairs = [
        (row_product(u, v, nvars, a, b, field.char), poly_to_vector(f * g, field)),
        (times_monomial(u, j, nvars, a, b), poly_to_vector(f * mono, field)),
    ]
    for got, want in pairs:
        assert len(got) == basis_dim(nvars, a + b)
        if field.char:
            assert got == want
        else:
            assert int_row(got, field) == want


# -- GF(p) arithmetic against Q arithmetic on integer data, then reduced --------------


def _int_data(st):
    """Integer coefficients for f and g, a scale c and a 3 x 3 integer matrix."""

    def coeffs(deg):
        monos = monomials(NVARS, deg)
        return st.lists(st.integers(-40, 40), min_size=len(monos), max_size=len(monos)).map(
            lambda cs: dict(zip(monos, cs))
        )

    poly = st.integers(0, 3).flatmap(lambda deg: st.tuples(st.just(deg), coeffs(deg)))
    entries = st.lists(st.integers(-40, 40), min_size=NVARS * NVARS, max_size=NVARS * NVARS)
    return st.tuples(
        st.sampled_from((PrimeField(7), PrimeField(10007))),
        poly,
        poly,
        st.integers(-40, 40),
        entries,
        st.booleans(),
    )


def _reduced_terms(f, p):
    """The Q polynomial's terms with every coefficient reduced mod p, zeros dropped."""
    return {m: c % p for m, c in f.terms if c % p}


def _maps(entries, diagonal, F):
    """The same integer automorphism over Q and over F, or None if singular mod p."""
    if diagonal:
        ms = entries[:NVARS - 1]
        if any(F.from_int(x) == 0 for x in ms):
            return None
        return AutoMap.diagonal_family(ms, QQ), AutoMap.diagonal_family(
            [F.from_int(x) for x in ms], F
        )
    rows = [entries[NVARS * i:NVARS * (i + 1)] for i in range(NVARS)]
    try:
        over_p = AutoMap.from_matrix([[F.from_int(x) for x in r] for r in rows], F)
    except ValueError:
        return None
    return AutoMap.from_matrix(rows, QQ), over_p


@property_test(_int_data, max_examples=60)
def test_prime_arithmetic_is_rational_arithmetic_reduced(F, fdata, gdata, c, entries, diagonal):
    p = F.char
    (df, cf), (dg, cg) = fdata, gdata
    fq, gq = HomogPoly.from_dict(NVARS, df, cf, 0), HomogPoly.from_dict(NVARS, dg, cg, 0)
    fp, gp = HomogPoly.from_dict(NVARS, df, cf, p), HomogPoly.from_dict(NVARS, dg, cg, p)
    pairs = [(fq * gq, fp * gp), (fq.scale(c), fp.scale(c)), (-fq, -fp), (fq, fp)]
    if df == dg:
        pairs.append((fq + gq, fp + gp))
        pairs.append((fq - gq, fp - gp))
    maps = _maps(entries, diagonal, F)
    if maps is not None:
        pairs.append((maps[0].apply(fq), maps[1].apply(fp)))
    for over_q, over_p in pairs:
        assert over_p.char == p
        assert all(type(x) is int and 1 <= x < p for _, x in over_p.terms)
        assert dict(over_p.terms) == _reduced_terms(over_q, p)


def test_twist_power_reduces_mod_p():
    """diag(2, 3) has order 6 mod 7: its sixth power must compose to the identity."""
    F = PrimeField(7)
    ring = TwistRing(2, AutoMap.diagonal_family([F.from_int(2), F.from_int(3)], F), F)
    assert not ring.power(3).is_identity()
    sixth = ring.power(6)
    assert sixth.is_identity()
    assert sixth.diagonal == (1, 1, 1)
    assert ring.power(-6).diagonal == (1, 1, 1)
