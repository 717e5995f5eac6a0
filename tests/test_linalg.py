"""Exact echelon forms, kernels, and graded subspaces."""

from fractions import Fraction
from math import gcd

import pytest
from oracles import quotient_coords_by_reduction, reduce_against, subspace_sum
from properties import FIELDS, property_test

from idealizer.fields import QQ, PrimeField, int_row, scalar_row
from idealizer.linalg import (
    Ambient,
    Echelon,
    intersect,
    invert_matrix,
    kernel,
    mat_mul,
    mat_vec,
    poly_ambient,
    rank_rows,
    span,
    span_polys,
)
from idealizer.poly import parse_poly, poly_to_vector


def free_ambient(dim, label=""):
    """An ambient with no polynomial shape, for plain vectors."""
    return Ambient("free", 0, 0, dim, label)


def _q(*vals):
    return list(vals)


def test_span_dim_and_membership():
    amb = poly_ambient(3, 1)
    V = span([_q(1, 0, 0), _q(0, 1, 0), _q(1, 1, 0)], amb, QQ)
    assert V.dim == 2
    assert V.contains_vector(_q(2, -3, 0))
    assert not V.contains_vector(_q(0, 0, 1))


def test_span_polys_and_contains_poly():
    amb = poly_ambient(3, 2)
    f = parse_poly("x0^2 - x1*x2", 3, QQ)
    g = parse_poly("x0*x1", 3, QQ)
    V = span_polys([f, g], amb, QQ)
    assert V.dim == 2
    assert V.contains_poly(f + g.scale(Fraction(5)))
    assert not V.contains_poly(parse_poly("x2^2", 3, QQ))


def test_quotient_coords_vanish_on_members():
    amb = poly_ambient(2, 1)
    V = span([_q(1, 1)], amb, QQ)
    row, den = V.quotient_coords(_q(2, 2))
    assert scalar_row(row, QQ, den) == (Fraction(0),)
    row, den = V.quotient_coords(_q(1, 0))
    assert scalar_row(row, QQ, den) != (Fraction(0),)
    assert len(V.nonpivot_columns) == 1


@pytest.mark.parametrize(
    "field, want", [(QQ, (Fraction(-3, 2), 0)), (PrimeField(7), (2, 0))], ids=["Q", "GF7"]
)
def test_quotient_coords_are_exact(field, want):
    """span((2, 3, 0)) leaves (1, 0, 0) with residual (0, -3/2, 0)."""
    V = span_polys([parse_poly("2*x0 + 3*x1", 3, field)], poly_ambient(3, 1), field)
    row, den = V.quotient_coords(poly_to_vector(parse_poly("x0", 3, field), field))
    assert scalar_row(row, field, den) == want


def test_kernel_matches_rank():
    rows = [_q(1, 2, 3), _q(2, 4, 6), _q(0, 1, 1)]
    ker = kernel(rows, 3, QQ)
    assert rank_rows(rows, 3, QQ) == 2
    assert len(ker) == 1
    v = ker[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_full_rank_is_empty():
    rows = [_q(1, 0), _q(0, 1)]
    assert kernel(rows, 2, QQ) == []


def test_intersect():
    amb = poly_ambient(3, 1)
    V = span([_q(1, 0, 0), _q(0, 1, 0)], amb, QQ)
    W = span([_q(0, 1, 0), _q(0, 0, 1)], amb, QQ)
    U = intersect(V, W)
    assert U.dim == 1
    assert U.contains_vector(_q(0, 1, 0))


def test_subspace_sum_and_quotient_dim():
    amb = poly_ambient(3, 1)
    V = span([_q(1, 0, 0)], amb, QQ)
    W = span([_q(0, 1, 0)], amb, QQ)
    assert subspace_sum(V, W).dim == 2
    assert subspace_sum(V, W).contains_subspace(V) and subspace_sum(V, W).dim - V.dim == 1
    assert V.contains_subspace(span([_q(3, 0, 0)], amb, QQ))


def test_ambient_mismatch_rejected():
    V = span([_q(1, 0)], poly_ambient(2, 1), QQ)
    W = span([_q(1, 0)], free_ambient(2, "other"), QQ)
    with pytest.raises(ValueError):
        intersect(V, W)


def test_prime_field_linear_algebra():
    F = PrimeField(7)
    rows = [[F.from_int(v) for v in r] for r in [[1, 2, 3], [2, 4, 6], [0, 1, 1]]]
    assert rank_rows(_ints(rows, F), 3, F) == 2
    ker = kernel(_ints(rows, F), 3, F)
    assert len(ker) == 1
    for row in rows:
        total = F.zero
        for a, b in zip(row, ker[0]):
            total = total + a * b
        assert not total


def test_matrix_inverse():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    B = invert_matrix(A, QQ)
    assert mat_mul(A, B, QQ) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    # singular input reports None instead of raising
    assert invert_matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], QQ) is None


def test_mat_vec():
    A = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    assert mat_vec(A, [Fraction(1), Fraction(1)], QQ) == [Fraction(3), Fraction(3)]


def test_kernel_vectors_are_canonical():
    """Kernel basis comes back in echelonized form, deterministically."""
    rows = [_q(1, 1, 1, 1)]
    ker1 = kernel(rows, 4, QQ)
    ker2 = kernel([_q(2, 2, 2, 2)], 4, QQ)
    assert ker1 == ker2
    assert len(ker1) == 3


# -- differential tests against sympy's DomainMatrix -----------------------------------


def _property(build):
    return property_test(build, needs=("sympy",))


def _matrix(st, field, max_rows=5, width=None, min_rows=0):
    entry = st.one_of(
        st.just(0),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.integers(-(10**6), 10**6),
    ).map(lambda x: field.from_fraction(Fraction(x)))
    widths = st.just(width) if width is not None else st.integers(1, 5)
    return widths.flatmap(
        lambda w: st.lists(
            st.lists(entry, min_size=w, max_size=w),
            min_size=min_rows,
            max_size=max_rows,
        ).map(lambda rows: (rows, w))
    )


def _field_and(st, then):
    return st.sampled_from(FIELDS).flatmap(lambda F: then(F).map(lambda rest: (F,) + rest))


def _sympy_matrix(rows, width, field):
    from sympy import GF
    from sympy import QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    if field.char == 0:
        dom = SQQ
        elems = [[SQQ(x.numerator, x.denominator) for x in r] for r in rows]
    else:
        dom = GF(field.char)
        elems = [[dom(x) for x in r] for r in rows]
    return DomainMatrix(elems, (len(rows), width), dom)


def _from_sympy(x, field):
    if field.char == 0:
        return Fraction(int(x.numerator), int(x.denominator))
    return field.from_int(int(x))


def _ints(rows, field):
    return [int_row(r, field) for r in rows]


def _rref(rows, width, field):
    """Pivots and exact RREF rows, read off the echelon's canonical int rows."""
    ech = Echelon(width, field)
    for r in _ints(rows, field):
        ech.insert(r)
    pivots, rref = ech.canonical_rows()
    return pivots, tuple(scalar_row(r, field, r[j]) for j, r in zip(pivots, rref))


@_property(lambda st: _field_and(st, lambda F: _matrix(st, F)))
def test_rank_pivots_and_rref_match_sympy(field, rows, width):
    pivots, rref = _rref(rows, width, field)
    assert rank_rows(_ints(rows, field), width, field) == len(pivots)
    if not rows:
        assert pivots == () and rref == ()
        return
    want, want_pivots = _sympy_matrix(rows, width, field).rref()
    assert pivots == tuple(want_pivots)
    want_rows = want.to_list()[: len(want_pivots)]
    assert rref == tuple(tuple(_from_sympy(x, field) for x in r) for r in want_rows)


@_property(lambda st: _field_and(st, lambda F: _matrix(st, F)))
def test_canonical_int_rows_are_normalized(field, rows, width):
    """Primitive with a positive pivot over Q, least residues with pivot 1 mod p.

    With the sympy comparison above, this makes the int form unique.
    """
    ech = Echelon(width, field)
    for r in _ints(rows, field):
        ech.insert(r)
    for j, r in zip(*ech.canonical_rows()):
        if field.char:
            assert r[j] == 1 and all(0 <= x < field.char for x in r)
        else:
            assert r[j] > 0 and gcd(*r) == 1


@_property(lambda st: _field_and(st, lambda F: _matrix(st, F)))
def test_kernel_dimension_and_annihilation(field, rows, width):
    ker = kernel(_ints(rows, field), width, field)
    rank = _sympy_matrix(rows, width, field).rank() if rows else 0
    assert len(ker) == width - rank
    for v in ker:
        assert not all(x == 0 for x in v)
        assert all(x == 0 for x in mat_vec(rows, v, field))


@_property(
    lambda st: _field_and(
        st,
        lambda F: st.integers(1, 5).flatmap(
            lambda w: st.tuples(_matrix(st, F, 4, w), _matrix(st, F, 4, w))
        ),
    )
)
def test_intersection_dimension_formula(field, left, right):
    (a, width), (b, _) = left, right
    amb = free_ambient(width)
    V, W = span(_ints(a, field), amb, field), span(_ints(b, field), amb, field)
    meet = intersect(V, W)
    assert meet.dim == V.dim + W.dim - subspace_sum(V, W).dim
    assert V.contains_subspace(meet) and W.contains_subspace(meet)
    both = a + b
    assert subspace_sum(V, W).dim == (_sympy_matrix(both, width, field).rank() if both else 0)


@property_test(
    lambda st: _field_and(
        st,
        lambda F: st.integers(1, 5).flatmap(
            lambda w: st.tuples(_matrix(st, F, 4, w), _matrix(st, F, 3, w, 1))
        ),
    )
)
def test_quotient_map_matches_reduction(field, subspace, vectors):
    """The cached quotient map gives the exact quotient coordinates, residuals
    and membership that reduction against the RREF rows gives."""
    (a, width), (vecs, _) = subspace, vectors
    V = span(_ints(a, field), free_ambient(width), field)
    members = [[sum(x) for x in zip(*pair)] for pair in zip(V.rows, V.rows[1:])]
    for v in _ints(vecs, field) + members + [list(r) for r in V.rows]:
        row, den = V.quotient_coords(v)
        want_row, want_den = quotient_coords_by_reduction(V, v)
        assert scalar_row(row, field, den) == scalar_row(want_row, field, want_den)
        res, scale = reduce_against(V, v)
        assert scalar_row(V.residual(v), field, den) == scalar_row(res, field, scale)
        assert V.contains_vector(v) == (not any(res))


@_property(
    lambda st: _field_and(
        st, lambda F: st.integers(1, 4).flatmap(lambda n: _matrix(st, F, n, n, n))
    )
)
def test_invert_matrix_matches_sympy(field, rows, n):
    inv = invert_matrix(rows, field)
    M = _sympy_matrix(rows, n, field)
    if M.rank() < n:
        assert inv is None
        return
    want = [[_from_sympy(x, field) for x in r] for r in M.inv().to_list()]
    assert inv == want
    ident = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    assert mat_mul(rows, inv, field) == ident


@_property(
    lambda st: _field_and(
        st,
        lambda F: _matrix(st, F).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.permutations(range(len(m[0]))),
                st.lists(
                    st.integers(1, 10**4).map(F.from_int).filter(bool),
                    min_size=len(m[0]),
                    max_size=len(m[0]),
                ),
            )
        ),
    )
)
def test_rref_invariant_under_row_shuffles_and_scaling(field, matrix, order, scales):
    rows, width = matrix
    moved = [[scales[i] * x for x in rows[i]] for i in order]
    assert _rref(moved, width, field) == _rref(rows, width, field)
