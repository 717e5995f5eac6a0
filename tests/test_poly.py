"""Sparse homogeneous polynomials over an exact field."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from oracles import (
    densify,
    diagonal_apply_per_term,
    diagonal_apply_row_pairs,
    diagonal_weights_closed_form,
    evaluate,
    evaluate_at,
    matrix_apply_per_call,
    mono_mul,
    monomial_values_fraction,
    poly_mul_terms,
    product_index_mono_mul,
    pullback_point,
    sparsify,
    terms_add,
    terms_from_dict,
    terms_mul,
    terms_neg,
    terms_scale,
)
from properties import FIELDS, property_test

from idealizer.automorphism import AutoMap, ProjPoint, point_image
from idealizer.fields import QQ, PrimeField, int_row
from idealizer.poly import (
    HomogPoly,
    basis_dim,
    basis_index,
    format_poly,
    mono_degree,
    monomial_values,
    monomials,
    parse_poly,
    poly_to_vector,
    product_index,
    row_product,
    times_monomial,
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


def test_poly_rejects_monomials_outside_the_basis():
    with pytest.raises(ValueError, match="negative exponent"):
        HomogPoly.from_dict(3, 2, {(3, -1, 0): 1}, 0)
    with pytest.raises(ValueError, match="wrong arity"):
        HomogPoly.from_dict(3, 2, {(2, 0): 1}, 0)
    with pytest.raises(ValueError, match="has degree 3, expected 2"):
        HomogPoly.from_dict(3, 2, {(2, 1, 0): 1}, 0)
    with pytest.raises(ValueError, match="has degree 0, expected -1"):
        HomogPoly.from_dict(3, -1, {(0, 0, 0): 1}, 0)


def test_mixed_characteristics_rejected():
    a = HomogPoly.variable(3, 0, PrimeField(7))
    b = HomogPoly.variable(3, 0, PrimeField(11))
    with pytest.raises(ValueError):
        a + b


def test_poly_vector_round_trip():
    f = parse_poly("x0^2 - 3*x1*x2", 3, QQ)
    vec = poly_to_vector(f, QQ)
    assert HomogPoly.from_row(3, 2, vec, 1, QQ.char) == f
    assert all(0 <= c < basis_dim(3, 2) for c, _ in vec)


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
    assert evaluate(f, [QQ.from_int(2), QQ.from_int(1), QQ.from_int(4)], QQ) == Fraction(0)
    assert evaluate(f, [QQ.from_int(1), QQ.from_int(1), QQ.from_int(2)], QQ) == Fraction(-1)


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
    assert A._weights is None
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
    p = field.char

    def red(x):
        return x % p if p else x

    raw = [red(sum(A.entry(j, i) * P.coords[j] for j in range(NVARS))) for i in range(NVARS)]
    Q = point_image(A, P)
    k = next(i for i, x in enumerate(raw) if x)
    lam = Q.coords[k] * pow(raw[k], -1, p) % p if p else Q.coords[k] / Fraction(raw[k])
    assert list(Q.coords) == [red(lam * x) for x in raw]
    lhs = red(lam**f.degree * evaluate_at(A.apply(f), P, field))
    assert lhs == evaluate_at(f, Q, field)


@property_test(lambda st: _field_and(st, _automap, _poly))
def test_inverse_undoes_apply(field, A, f):
    assert A.inv().apply(A.apply(f)) == f
    assert A.apply(A.inv().apply(f)) == f
    assert A.compose(A.inv()).is_identity()


def _multipliers(st, field):
    return st.lists(_scalar(st, field).filter(bool), min_size=NVARS - 1, max_size=NVARS - 1)


@property_test(
    lambda st: _field_and(st, _multipliers, _automap, lambda st, F: st.integers(0, 4))
)
def test_automap_canonical_form(field, ms, A, n):
    """Routes to one substitution give == and equal hash, and a map's rows
    are canonical: sorted, den the lcm of the entries' denominators and
    gcd 1 with the values over Q, den 1 and least residues mod p."""
    p = field.char
    diag = [field.one] + ms
    by_matrix = AutoMap.from_matrix(
        [[x if i == j else 0 for j in range(NVARS)] for i, x in enumerate(diag)], field
    )
    ident = AutoMap.identity(NVARS, field)
    pairs = [
        (AutoMap.diagonal_family(ms, field), by_matrix),
        (A.compose(A.inv()), ident),
        (A.inv().compose(A), ident),
        (A.power(-n), A.inv().power(n)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert by_matrix.den == (1 if p else lcm(*(Fraction(x).denominator for x in diag)))
    for B in (A, A.inv(), A.power(n), by_matrix):
        entries = [Fraction(B.entry(i, j)) for i in range(NVARS) for j in range(NVARS)]
        assert B.den == (1 if p else lcm(*(x.denominator for x in entries)))
        assert all(list(r) == sorted(r) for r in B.images)
        values = [v for r in B.images for _, v in r]
        assert all(0 < v < p for v in values) if p else gcd(B.den, *values) == 1


@property_test(lambda st: _field_and(st, _automap, _poly))
def test_diagonal_fast_path_matches_substitution(field, A, f):
    """apply, by weights for a diagonal map, is the per-call substitution
    and, for a diagonal map, the per-term one, for A and its inverse."""
    for auto in (A, A.inv()):
        assert auto.apply(f) == matrix_apply_per_call(auto, f)
        if auto._weights is not None:
            assert auto.apply(f) == diagonal_apply_per_term(auto, f)


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
    width = basis_dim(nvars, a + b)
    for got, want in pairs:
        assert all(0 <= c < width for c, _ in got)
        got = densify(got, width)
        if field.char:
            assert sparsify(got) == want
        else:
            assert int_row(got, field) == want


@pytest.mark.parametrize("nvars", range(1, 6))
def test_product_index_matches_mono_mul_tables(nvars):
    """The tables from integer codes are the tables from exponent tuples,
    negative degrees (empty tables) included."""
    for a in range(-1, 7):
        for b in range(-1, 7):
            assert product_index(nvars, a, b) == product_index_mono_mul(nvars, a, b), (a, b)


# -- the product and the diagonal map against their term-by-term routes ------------


def _sparse_poly(st, field, nvars, degree):
    """Up to eight terms of one degree; zero when the degree is negative."""
    monos = monomials(nvars, degree)
    if not monos:
        return st.just(HomogPoly.zero(nvars, degree, field.char))
    coeffs = st.dictionaries(st.sampled_from(monos), _scalar(st, field), max_size=8)
    return coeffs.map(lambda cs: HomogPoly.from_dict(nvars, degree, cs, field.char))


def _term_case(st):
    """A field, nvars in 1-5, two polynomials of degrees -1 to 5 and a diagonal map."""

    def case(field, nvars, a, b):
        nonzero = _scalar(st, field).filter(bool)
        diag = st.lists(nonzero, min_size=nvars, max_size=nvars).map(
            lambda xs: AutoMap.from_matrix(
                [[x if i == j else field.zero for j in range(nvars)] for i, x in enumerate(xs)],
                field,
            )
        )
        return st.tuples(
            st.just(field),
            _sparse_poly(st, field, nvars, a),
            _sparse_poly(st, field, nvars, b),
            diag,
        )

    return st.tuples(
        st.sampled_from(FIELDS), st.integers(1, 5), st.integers(-1, 5), st.integers(-1, 5)
    ).flatmap(lambda t: case(*t))


@property_test(_term_case, max_examples=80)
def test_product_matches_term_by_term(field, f, g, A):
    want = poly_mul_terms(f, g)
    assert f * g == want
    assert g * f == want
    assert (f * g).degree == f.degree + g.degree


@property_test(_term_case, max_examples=80)
def test_diagonal_apply_matches_per_term(field, f, g, A):
    assert A._weights is not None
    for auto in (A, A.inv()):
        for h in (f, g, f * g):
            want = diagonal_apply_per_term(auto, h)
            assert auto.apply(h) == want
            # a second pass reads the weights cached by the first
            assert auto.apply(h) == want


def _powers(st, field):
    return st.sampled_from((-3, -2, -1, 1, 2, 3))


@property_test(lambda st: _field_and(st, _automap, _powers, _poly), max_examples=80)
def test_apply_row_is_den_power_times_apply(field, A, k, f):
    """apply_row on the exact int row of f over its denominator D is
    D * den^n times apply(f), n = deg f; apply agrees with the per-call
    and (for diagonal maps) the per-term routes."""
    auto = A.power(k)
    n = f.degree
    index = basis_index(NVARS, n)
    denom = lcm(*(c.denominator for _, c in f.terms))
    row = [(index[m], c.numerator * (denom // c.denominator)) for m, c in f.terms]
    image = auto.apply(f)
    scale = denom * auto.den**n
    assert dict(auto.apply_row(row, n)) == {index[m]: c * scale for m, c in image.terms}
    assert image == matrix_apply_per_call(auto, f)
    if auto._weights is not None:
        assert image == diagonal_apply_per_term(auto, f)


def _matrix_case(st):
    """A field, nvars in 1-4, two polynomials of degrees -1 to 4 and an
    invertible matrix map, mostly not diagonal."""

    def invertible(field, rows):
        try:
            return AutoMap.from_matrix(rows, field)
        except ValueError:
            return None

    def case(field, nvars, a, b):
        row = st.lists(_scalar(st, field), min_size=nvars, max_size=nvars)
        matrix = st.lists(row, min_size=nvars, max_size=nvars).map(
            lambda rows: invertible(field, rows)
        )
        return st.tuples(
            st.just(field),
            _sparse_poly(st, field, nvars, a),
            _sparse_poly(st, field, nvars, b),
            matrix.filter(lambda A: A is not None),
        )

    return st.tuples(
        st.sampled_from(FIELDS), st.integers(1, 4), st.integers(-1, 4), st.integers(-1, 4)
    ).flatmap(lambda t: case(*t))


@property_test(_matrix_case, max_examples=60)
def test_matrix_apply_matches_per_call(field, f, g, A):
    for auto in (A, A.inv()):
        for h in (f, g, f * g):
            want = matrix_apply_per_call(auto, h)
            assert auto.apply(h) == want
            # a second pass reads the image tables cached by the first
            assert auto.apply(h) == want


# -- rows over a denominator against the term-dict route ----------------------------

# the maps of the golden configs matrix.json and frac.json
GOLDEN_MATRICES = (
    (("1", "1", "0"), ("0", "2", "0"), ("0", "0", "3")),
    (("1/2", "1", "0"), ("0", "2/3", "1"), ("1", "0", "3")),
)


def _diagonal_or_golden_map(st, field):
    """A diagonal family, or the matrix of ``matrix.json`` or ``frac.json``."""
    nonzero = _scalar(st, field).filter(bool)
    diagonal = st.lists(nonzero, min_size=NVARS - 1, max_size=NVARS - 1).map(
        lambda ms: AutoMap.diagonal_family(ms, field)
    )
    golden = st.sampled_from(GOLDEN_MATRICES).map(
        lambda rows: AutoMap.from_matrix([[field.parse(x) for x in r] for r in rows], field)
    )
    return st.one_of(diagonal, golden)


def _coeff_pair(st, field):
    """Two coefficient dicts of one degree in 0-3, up to eight terms each."""

    def of_degree(deg):
        monos = st.sampled_from(monomials(NVARS, deg))
        coeffs = st.dictionaries(monos, _scalar(st, field), max_size=8)
        return st.tuples(st.just(deg), coeffs, coeffs)

    return st.integers(0, 3).flatmap(of_degree)


@property_test(
    lambda st: _field_and(st, _diagonal_or_golden_map, _coeff_pair, _scalar), max_examples=80
)
def test_row_arithmetic_matches_term_oracles(field, A, pair, c):
    """from_dict, +, -, negation, scale, * and apply read as terms are the
    term-dict route's terms; apply is the per-call and per-term routes."""
    p = field.char
    deg, cf, cg = pair
    f, g = (HomogPoly.from_dict(NVARS, deg, cs, p) for cs in (cf, cg))
    assert f.terms == terms_from_dict(cf, p)
    assert g.terms == terms_from_dict(cg, p)
    assert (f + g).terms == terms_add(f.terms, g.terms, p)
    assert (f - g).terms == terms_add(f.terms, terms_neg(g.terms, p), p)
    assert (-f).terms == terms_neg(f.terms, p)
    assert f.scale(c).terms == terms_scale(f.terms, c, p)
    assert (f * g).terms == (g * f).terms == terms_mul(f.terms, g.terms, p)
    for auto in (A, A.inv(), A.power(2)):
        for h in (f, f * g):
            assert auto.apply(h) == matrix_apply_per_call(auto, h)
            if auto._weights is not None:
                assert auto.apply(h) == diagonal_apply_per_term(auto, h)


def _nonzero_int(st, field):
    return st.integers(-6, 6).filter(bool)


@property_test(
    lambda st: _field_and(st, _poly, lambda st, F: _scalar(st, F).filter(bool), _nonzero_int)
)
def test_canonical_form_makes_routes_equal(field, f, c, k):
    """Different routes to one polynomial give == and equal hash: a
    scale undone, a row and denominator both times k (negative or not
    reduced), and the same coefficient written two ways."""
    p = field.char
    routes = [
        f.scale(c).scale(pow(c, -1, p) if p else 1 / Fraction(c)),
        HomogPoly.from_row(f.nvars, f.degree, [(j, v * k) for j, v in f.row], f.den * k, p),
        -(-f),
        f + HomogPoly.zero(f.nvars, f.degree, p),
    ]
    for g in routes:
        assert g == f and hash(g) == hash(f)
    if p:
        assert f.den == 1 and all(0 < v < p for _, v in f.row)
    else:
        assert f.den > 0 and gcd(f.den, *(v for _, v in f.row)) == 1
    mono = monomials(NVARS, 2)[1]
    halves = [
        HomogPoly.from_dict(NVARS, 2, {mono: field.from_fraction(Fraction(2, 4))}, p),
        HomogPoly.from_dict(NVARS, 2, {mono: field.from_fraction(Fraction(1, 2))}, p),
        HomogPoly.from_row(NVARS, 2, [(1, -3)], -6, p),
        HomogPoly.monomial(mono, 1, p).scale(field.from_fraction(Fraction(1, 2))),
        parse_poly("1/2*x0*x1", NVARS, field),
    ]
    assert len(set(halves)) == 1 and len({hash(h) for h in halves}) == 1


def test_weight_cache_stays_out_of_equality():
    A = AutoMap.diagonal_family([QQ.from_int(2), Fraction(1, 3)], QQ)
    B = AutoMap.diagonal_family([QQ.from_int(2), Fraction(1, 3)], QQ)
    f = parse_poly("x0*x1 + 2*x2^2", 3, QQ)
    assert A.apply(f) == parse_poly("2*x0*x1 + 2/9*x2^2", 3, QQ)
    assert A._tables and not B._tables
    assert A == B and hash(A) == hash(B)
    assert "_tables" not in repr(A)


def test_image_cache_stays_out_of_equality():
    f = parse_poly("x0*x1 + 2*x2^2", 3, QQ)
    M = AutoMap.from_matrix([[1, 1, 0], [0, 2, 1], [1, 0, 3]], QQ)
    N = AutoMap.from_matrix([[1, 1, 0], [0, 2, 1], [1, 0, 3]], QQ)
    want = "x0^2 + 2*x0*x1 + x0*x2 + 2*x1^2 + 14*x1*x2 + 18*x2^2"
    assert M.apply(f) == parse_poly(want, 3, QQ)
    assert M._tables and not N._tables
    assert M == N and hash(M) == hash(N)
    assert "_tables" not in repr(M)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF7", "GF10007"])
@pytest.mark.parametrize(
    "multipliers", [(2, 3), (Fraction(1, 2), Fraction(2, 3))], ids=["ints", "halves-thirds"]
)
def test_diagonal_apply_row_by_weight_matches_table_routes(field, multipliers):
    """One weight per column equals the one-pair table, in the row's column
    order, and the per-term and per-call substitutions, in degrees 0-6,
    for phi, its inverse and its cube."""
    rng = random.Random(11)
    p = field.char
    A = AutoMap.diagonal_family([field.from_fraction(Fraction(m)) for m in multipliers], field)
    assert A.den == (6 if isinstance(multipliers[0], Fraction) and not p else 1)
    for B in (A, A.inv(), A.power(3)):
        for n in range(7):
            cols = list(range(basis_dim(NVARS, n)))
            rng.shuffle(cols)
            values = (rng.choice([-9, -4, -1, 1, 2, 5, 8]) for _ in cols)
            row = [(j, v % p if p else v) for j, v in zip(cols, values)]
            got = B.apply_row(row, n)
            assert got == diagonal_apply_row_pairs(B, row, n)
            assert [j for j, _ in got] == cols
            f = HomogPoly.from_row(NVARS, n, row, 1, p)
            image = HomogPoly.from_row(NVARS, n, got, B.den**n, p)
            assert image == diagonal_apply_per_term(B, f) == matrix_apply_per_call(B, f)
            assert all(isinstance(w, int) for w in B._image_table(n))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF7", "GF10007"])
def test_diagonal_weights_recursion_matches_closed_form(field):
    """Weights built degree by degree equal one product of powers per
    monomial, degrees 0-8, for phi^k, -3 <= k <= 3, of the multipliers
    1/2, 2/3 and of the matrix diag(2, 4, 6), whose weights keep their
    common factor."""
    halves = AutoMap.diagonal_family(
        [field.from_fraction(Fraction(1, 2)), field.from_fraction(Fraction(2, 3))], field
    )
    evens = AutoMap.from_matrix(
        [[field.from_int(x if i == j else 0) for j in range(3)] for i, x in enumerate((2, 4, 6))],
        field,
    )
    assert evens._weights is not None
    assert evens._image_table(1) == (2, 4, 6)
    for A in (halves, evens):
        for k in range(-3, 4):
            B = A.power(k)
            for n in range(9):
                assert B._image_table(n) == diagonal_weights_closed_form(B, n)


POINTS = [(1, 0, 3), (2, 4, -6), (Fraction(1, 2), Fraction(-2, 3), 5), (3, 0, Fraction(5, 4), -2)]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF7", "GF10007"])
@pytest.mark.parametrize("point", POINTS, ids=["zero", "non-primitive", "fractional", "d3"])
def test_monomial_values_recursion_matches_fraction_route(field, point):
    """The integer recursion of the evaluation row equals the values taken
    in field arithmetic and made an int row, degrees 0-8: a primitive
    positive multiple over Q, least residues mod p."""
    coords = tuple(field.from_fraction(Fraction(x)) for x in point)
    for n in range(9):
        got = monomial_values(coords, field, n)
        assert got == monomial_values_fraction(coords, field, n)
        if not field.char:
            assert gcd(*(v for _, v in got)) == 1


# -- closed-form powers against repeated composition -------------------------------


def _repeated(A, n):
    """A^n by |n| compositions with A or its inverse, from the identity."""
    step = A if n > 0 else A.inv()
    out = AutoMap.identity(A.nvars, A.field)
    for _ in range(abs(n)):
        out = out.compose(step)
    return out


@property_test(lambda st: _field_and(st, _automap, lambda st, F: st.integers(-40, 40)))
def test_power_matches_repeated_compose(field, A, n):
    assert A.power(n) == _repeated(A, n)


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
    assert sixth == ring.power(-6) == AutoMap.identity(3, F)


def test_twist_power_is_closed_form():
    """Deep powers need no chain of lower ones."""
    ring = TwistRing(2, AutoMap.diagonal_family([QQ.from_int(2), QQ.from_int(3)], QQ), QQ)
    forward, back = ring.power(2000), ring.power(-2000)
    assert [forward.entry(i, i) for i in range(3)] == [1, 2**2000, 3**2000]
    assert [back.entry(i, i) for i in range(3)] == [1, Fraction(1, 2**2000), Fraction(1, 3**2000)]
    assert (forward.den, back.den) == (1, 6**2000)
    assert ring.power(2000) is ring.power(2000)
