"""Segre-product witness spaces: (J meet K) strictly exceeds J * K."""

from collections import Counter
from itertools import product

import pytest
from oracles import (
    K_piece,
    ideal_piece,
    phi_tensor_invariance,
    witness_dims_blockwise,
    witness_dims_naive,
    witness_dims_per_fiber,
)

from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.fields import QQ, PrimeField
from idealizer.poly import monomials
from idealizer.segre import (
    SegreContext,
    _bounded_compositions,
    _class_lefts,
    _fiber_classes,
    _partitions,
    local_witness_check,
)

MEET_DIMS = {1: 1, 2: 13, 3: 56, 4: 154, 5: 337, 6: 641, 7: 1108, 8: 1786}


def _ctx(d=2, field=QQ):
    return SegreContext(d, field)


def _point(d=2, field=QQ, coords=None):
    coords = coords or [1] * (d + 1)
    return ProjPoint.make([field.from_int(v) for v in coords], field)


@pytest.fixture(scope="module")
def ctx():
    return _ctx()


def test_degree_one_dims(ctx):
    # plain point ideal: codimension one; diagonal ideal J: dim 3; K = I (x) I
    assert ideal_piece(ctx, _point(), 1).dim == 2
    assert ctx.diagonal_ideal_piece(1).dim == 3
    assert K_piece(ctx, _point(), 1).dim == 4


def test_degree_two_dims(ctx):
    assert ideal_piece(ctx, _point(), 2).dim == 5
    assert ctx.diagonal_ideal_piece(2).dim == 21
    assert K_piece(ctx, _point(), 2).dim == 25


def test_witness_dims_blockwise(ctx):
    rec = ctx.witness_dims(8)
    for m in range(1, 9):
        assert rec["witness_dims"][m] == 1
        assert rec["meet_dims"][m] == MEET_DIMS[m]
        assert rec["product_dims"][m] == MEET_DIMS[m] - 1


def test_naive_route_agrees(ctx):
    naive = witness_dims_naive(ctx, _point(), 3)
    block = ctx.witness_dims(3)
    for m in range(1, 4):
        assert naive[m] == block["witness_dims"][m]


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(10007)], ids=["Q", "GF7", "GF10007"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_component_count_matches_blockwise_echelon(d, field):
    ctx_d = _ctx(d=d, field=field)
    assert ctx_d.witness_dims(4) == witness_dims_blockwise(ctx_d, 4)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("d,cap,low", [(2, 6, 4), (3, 5, 4), (4, 4, 3), (5, 3, 2)])
def test_class_count_matches_per_fiber_and_blockwise(d, cap, low, field):
    ctx_d = _ctx(d=d, field=field)
    assert ctx_d.witness_dims(cap) == witness_dims_per_fiber(ctx_d, cap)
    assert ctx_d.witness_dims(low) == witness_dims_blockwise(ctx_d, low)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_class_weights_count_every_fiber(d):
    for m in range(1, 7):
        kbasis = [mu for mu in monomials(d + 1, m) if mu[0] < m]
        fibers = {}
        for mu in kbasis:
            for nu in kbasis:
                fibers.setdefault(tuple(a + b for a, b in zip(mu, nu)), []).append(mu)
        classes = dict(_fiber_classes(d, m))
        assert sum(classes.values()) == len(fibers)
        assert classes == Counter((w[0],) + tuple(sorted(w[1:], reverse=True)) for w in fibers)
        for w in classes:
            assert sorted(_class_lefts(w, m)) == sorted(fibers[w])


def test_empty_fiber_class_raises(monkeypatch):
    monkeypatch.setattr("idealizer.segre._class_lefts", lambda w, m: [])
    with pytest.raises(ArithmeticError):
        _ctx().witness_dims(1)


def test_partitions_brute_force():
    for n in range(9):
        for parts in range(5):
            compositions = [c for c in product(range(n + 1), repeat=parts) if sum(c) == n]
            want = sorted({tuple(sorted(c, reverse=True)) for c in compositions})
            assert sorted(_partitions(n, parts)) == want


def test_bounded_compositions_brute_force():
    for bounds in [(0,), (3,), (2, 0), (1, 2), (3, 1, 2), (2, 2, 2, 1)]:
        for n in range(sum(bounds) + 2):
            want = [c for c in product(*(range(b + 1) for b in bounds)) if sum(c) == n]
            assert list(_bounded_compositions(n, bounds)) == sorted(want, reverse=True)


def test_point_choice_does_not_matter(ctx):
    """The naive count, K built at (1 : 5 : 7), gives the context's dims."""
    naive = witness_dims_naive(ctx, _point(coords=[1, 5, 7]), 3)
    rec = ctx.witness_dims(3)
    for m in range(1, 4):
        assert naive[m] == rec["witness_dims"][m] == 1


def test_three_variables_witness():
    ctx3 = _ctx(d=3)
    rec = ctx3.witness_dims(3)
    assert [rec["witness_dims"][m] for m in (1, 2, 3)] == [3, 3, 3]
    naive = witness_dims_naive(ctx3, _point(d=3), 2)
    assert naive[2] == rec["witness_dims"][2]


def test_prime_field_witness():
    rec = _ctx(field=PrimeField(10007)).witness_dims(3)
    assert [rec["witness_dims"][m] for m in (1, 2, 3)] == [1, 1, 1]


def test_phi_tensor_invariance(ctx):
    phi = AutoMap.diagonal_family([QQ.from_int(2), QQ.from_int(3)], QQ)
    for m in (1, 2, 3):
        assert phi_tensor_invariance(ctx, phi, m)


def test_local_witness_check_small_dims():
    for d in (2, 3):
        rec = local_witness_check(d, QQ)
        assert rec["ok"]
        assert rec["w_nonzero"]
        assert rec["w_in_J2"] and rec["w_in_K2"]
        assert rec["w_matches_explicit_combination"]
        assert rec["product_piece_trivial"]
        assert rec["control_not_in_J2"]


def test_local_witness_check_prime_field():
    assert local_witness_check(2, PrimeField(7))["ok"]


def test_rejects_dimension_one():
    with pytest.raises(ValueError):
        _ctx(d=1)
