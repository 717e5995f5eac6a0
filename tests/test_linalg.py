"""Exact echelon forms, kernels, and graded subspaces."""

import random
from fractions import Fraction
from math import gcd

import pytest
from oracles import (
    DenseEchelon,
    contains_subspace,
    densify,
    quotient_coords_by_reduction,
    reduce_against,
    sparsify,
    subspace_sum,
)
from properties import FIELDS, property_test

from idealizer.automorphism import AutoMap, ProjPoint, point_image
from idealizer.fields import QQ, PrimeField, int_row
from idealizer.linalg import (
    Ambient,
    Echelon,
    annihilates,
    intersect,
    kernel,
    poly_ambient,
    rank_rows,
    span,
    span_polys,
)
from idealizer.poly import parse_poly, poly_to_vector


def free_ambient(dim):
    """An ambient with no polynomial shape, for plain vectors."""
    return Ambient("free", 0, 0, dim)


def _q(*vals):
    """The sparse int row with the given dense entries."""
    return sparsify(vals)


def _scalars(row, field, den, width):
    """The exact scalars row / den of a sparse int row, as a dense tuple."""
    p = field.char
    values = [(k, v * pow(den, -1, p) % p if p else Fraction(v, den)) for k, v in row]
    return tuple(densify(values, width))


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
    assert _scalars(row, QQ, den, 1) == (Fraction(0),)
    row, den = V.quotient_coords(_q(1, 0))
    assert _scalars(row, QQ, den, 1) != (Fraction(0),)
    assert len(V.nonpivot_columns) == 1


@pytest.mark.parametrize(
    "field, want", [(QQ, (Fraction(-3, 2), 0)), (PrimeField(7), (2, 0))], ids=["Q", "GF7"]
)
def test_quotient_coords_are_exact(field, want):
    """span((2, 3, 0)) leaves (1, 0, 0) with residual (0, -3/2, 0)."""
    V = span_polys([parse_poly("2*x0 + 3*x1", 3, field)], poly_ambient(3, 1), field)
    row, den = V.quotient_coords(poly_to_vector(parse_poly("x0", 3, field), field))
    assert _scalars(row, field, den, 2) == want


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_rank_rows_stops_reading_at_full_rank(field):
    def rows():
        yield ((0, 1), (1, 2))
        yield ((1, 3),)
        raise AssertionError("read past full rank")

    assert rank_rows(rows(), 2, field) == 2
    assert rank_rows(rows(), 0, field) == 0


def test_kernel_matches_rank():
    rows = [_q(1, 2, 3), _q(2, 4, 6), _q(0, 1, 1)]
    ker = kernel(rows, 3, QQ)
    assert rank_rows(rows, 3, QQ) == 2
    assert len(ker) == 1
    v = densify(ker[0], 3)
    for row in rows:
        assert sum(a * b for a, b in zip(densify(row, 3), v)) == 0


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
    assert contains_subspace(subspace_sum(V, W), V) and subspace_sum(V, W).dim - V.dim == 1
    assert contains_subspace(V, span([_q(3, 0, 0)], amb, QQ))


def test_ambient_mismatch_rejected():
    V = span([_q(1, 0)], poly_ambient(2, 1), QQ)
    W = span([_q(1, 0)], free_ambient(2), QQ)
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
        for a, b in zip(row, densify(ker[0], 3)):
            total = total + a * b
        assert not total


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
    return pivots, tuple(_scalars(r, field, r[0][1], width) for r in rref)


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


def _shuffled_rescaled_repeated(st, F):
    """A matrix with a row order, one nonzero scale per row and the rows to repeat."""
    return _matrix(st, F).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.permutations(range(len(m[0]))),
            st.lists(
                st.integers(1, 10**4).map(F.from_int).filter(bool),
                min_size=len(m[0]),
                max_size=len(m[0]),
            ),
            st.lists(st.booleans(), min_size=len(m[0]), max_size=len(m[0])),
        )
    )


@_property(lambda st: _field_and(st, lambda F: _shuffled_rescaled_repeated(st, F)))
def test_canonical_int_rows_are_normalized(field, matrix, order, scales, repeat):
    """Primitive with a positive pivot over Q, least residues with pivot 1 mod p,
    columns increasing from the pivot and no zero entry.

    With the sympy comparison above, this makes the int form unique: a
    span of shuffled, rescaled and repeated generators stores the same
    rows, equal and with the same hash.
    """
    rows, width = matrix
    ech = Echelon(width, field)
    for r in _ints(rows, field):
        ech.insert(r)
    for j, r in zip(*ech.canonical_rows()):
        columns = [c for c, _ in r]
        assert columns == sorted(set(columns)) and columns[0] == j and columns[-1] < width
        assert all(x for _, x in r)
        if field.char:
            assert r[0][1] == 1 and all(0 <= x < field.char for _, x in r)
        else:
            assert r[0][1] > 0 and gcd(*(x for _, x in r)) == 1
    moved = [[scales[i] * x for x in rows[i]] for i in order]
    moved += [row for row, again in zip(moved, repeat) if again]
    amb = free_ambient(width)
    V, W = span(_ints(rows, field), amb, field), span(_ints(moved, field), amb, field)
    assert V.rows == W.rows == ech.canonical_rows()[1]
    assert V == W and hash(V) == hash(W)


@_property(lambda st: _field_and(st, lambda F: _matrix(st, F)))
def test_kernel_dimension_and_annihilation(field, rows, width):
    ker = kernel(_ints(rows, field), width, field)
    rank = _sympy_matrix(rows, width, field).rank() if rows else 0
    assert len(ker) == width - rank
    p = field.char
    for v in ker:
        v = densify(v, width)
        assert not all(x == 0 for x in v)
        for r in rows:
            s = sum(x * y for x, y in zip(r, v))
            assert not (s % p if p else s)


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
    assert contains_subspace(V, meet) and contains_subspace(W, meet)
    both = a + b
    assert subspace_sum(V, W).dim == (_sympy_matrix(both, width, field).rank() if both else 0)


@property_test(
    lambda st: _field_and(
        st,
        lambda F: st.integers(1, 5).flatmap(
            lambda w: st.tuples(_matrix(st, F, 3, w), _matrix(st, F, 4, w))
        ),
    )
)
def test_annihilates_matches_kernel_containment(field, matrix, subspace):
    """Every row of V lies in ker M exactly when the span of ker M contains V."""
    (rows, width), (a, _) = matrix, subspace
    amb = free_ambient(width)
    M = _ints(rows, field)
    V = span(_ints(a, field), amb, field)
    K = span(kernel(M, width, field), amb, field)
    assert annihilates(M, V) == contains_subspace(K, V)
    assert annihilates(M, K)


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
    dense = [densify(r, width) for r in V.rows]
    members = [sparsify([sum(x) for x in zip(*pair)]) for pair in zip(dense, dense[1:])]
    codim = width - V.dim
    for v in _ints(vecs, field) + members + [list(r) for r in V.rows]:
        row, den = V.quotient_coords(v)
        want_row, want_den = quotient_coords_by_reduction(V, v)
        assert _scalars(row, field, den, codim) == _scalars(want_row, field, want_den, codim)
        res, scale = reduce_against(V, v)
        assert _scalars(V.residual(v), field, den, width) == _scalars(
            sparsify(res), field, scale, width
        )
        assert V.contains_vector(v) == (not any(res))


def _square_pair_and_point(st, F):
    """Two n x n matrices, an exponent and a nonzero point, n <= 4."""
    coords = st.lists(st.integers(-9, 9).map(F.from_int), min_size=1).filter(any)
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            _matrix(st, F, n, n, n),
            _matrix(st, F, n, n, n),
            st.integers(-3, 3),
            coords.map(lambda c: (c + [F.one] * n)[:n]).filter(any),
        )
    )


@_property(lambda st: _field_and(st, lambda F: _square_pair_and_point(st, F)))
def test_automap_matches_sympy(field, first, second, k, coords):
    """inv, compose, power and point_image of maps built from matrices
    agree with sympy's matrix inverse, product, power and transpose."""
    (a, n), (b, _) = first, second
    A, B = _sympy_matrix(a, n, field), _sympy_matrix(b, n, field)
    for rows, M in ((a, A), (b, B)):
        if M.rank() < n:
            with pytest.raises(ValueError):
                AutoMap.from_matrix(rows, field)
            return
    phi, psi = AutoMap.from_matrix(a, field), AutoMap.from_matrix(b, field)

    def entries(auto):
        return [[auto.entry(i, j) for j in range(n)] for i in range(n)]

    def want(M):
        return [[_from_sympy(x, field) for x in r] for r in M.to_list()]

    assert entries(phi.inv()) == want(A.inv())
    assert entries(phi.power(k)) == want(A**k if k >= 0 else A.inv() ** -k)
    assert entries(phi.compose(psi)) == want(A * B)
    image = A.transpose() * _sympy_matrix([[x] for x in coords], 1, field)
    point = ProjPoint.make(coords, field)
    assert point_image(phi, point) == ProjPoint.make([r[0] for r in want(image)], field)


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


def test_echelon_rejects_columns_outside_the_ambient():
    """A row that does not fit the ambient is a hard error, whatever its values."""
    for field in FIELDS:
        ech = Echelon(3, field)
        for row in ([(3, 1)], [(-1, 1)], [(0, 1), (5, 2)], [(4, 0)]):
            with pytest.raises(ValueError):
                ech.insert(row)
        assert ech.dim == 0
        assert ech.insert([(2, 1)]) and ech.canonical_rows() == ((2,), (((2, 1),),))


def _sparse_rows(field, width, density, seed):
    """Up to 40 rows of the given width with a share ``density`` of their
    columns set, zero values, zero rows and repeated rows among them."""
    rng = random.Random(seed)
    k = max(1, round(density * width))
    rows = []
    for _ in range(rng.randint(1, 40)):
        roll = rng.random()
        if roll < 0.1:
            rows.append([])
        elif roll < 0.2 and rows:
            rows.append(rng.choice(rows))
        else:
            values = [0 if rng.random() < 0.05 else rng.randint(-(10**6), 10**6) for _ in range(k)]
            cols = sorted(rng.sample(range(width), k))
            rows.append([(c, field.from_int(v)) for c, v in zip(cols, values)])
    return rows


@property_test(
    lambda st: st.tuples(
        st.sampled_from(FIELDS),
        st.integers(1, 60),
        st.sampled_from((0.02, 0.05, 0.2, 0.5)),
        st.integers(0, 2**32),
    )
)
def test_sparse_engine_matches_dense_engine(field, width, density, seed):
    """Echelon keeps the rows the dense engine keeps and ends in the same RREF."""
    sparse, dense = Echelon(width, field), DenseEchelon(width, field)
    for r in _sparse_rows(field, width, density, seed):
        assert sparse.insert(r) == dense.insert(densify(r, width))
    pivots, canonical = sparse.canonical_rows()
    want_pivots, want = dense.canonical_rows()
    assert pivots == want_pivots
    assert canonical == tuple(tuple(sparsify(r)) for r in want)
