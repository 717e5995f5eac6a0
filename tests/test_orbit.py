"""Orbit geometry and multiplicative-independence certificates."""

from fractions import Fraction

import pytest
from oracles import brute_force_relation, orbit_point, orbit_point_walk

from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.fields import QQ, PrimeField
from idealizer.orbit import (
    FactorBoundError,
    distinct_window,
    general_position_rank,
    multiplicative_independence,
    orbit_points,
)
from idealizer.twist import PointIdeal, TwistRing


def _phi(multipliers=(2, 3)):
    return AutoMap.diagonal_family([QQ.from_int(p) for p in multipliers], QQ)


def _c():
    return ProjPoint.make([QQ.one, QQ.one, QQ.one], QQ)


def test_orbit_points_forward_and_backward():
    orbit = orbit_points(_phi(), _c(), 2)
    # c_k = (1 : 2^-k : 3^-k) in canonical integer coordinates
    assert orbit.points[1].coords == (Fraction(6), Fraction(3), Fraction(2))
    assert orbit.points[-1].coords == (Fraction(1), Fraction(2), Fraction(3))
    assert orbit.points[2].coords == (Fraction(36), Fraction(9), Fraction(4))
    assert orbit.points[0].coords == (Fraction(1), Fraction(1), Fraction(1))


def _orbit_map(kind, field):
    if kind == "diagonal":
        multipliers = [field.from_int(2), field.from_fraction(Fraction(3, 5))]
        return AutoMap.diagonal_family(multipliers, field)
    rows = [[1, 1, 0], [0, 2, 1], [1, 0, 3]]
    return AutoMap.from_matrix([[field.from_int(x) for x in r] for r in rows], field)


@pytest.mark.parametrize("kind", ["diagonal", "matrix"])
@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF10007"])
def test_orbit_point_matches_walk(kind, field):
    """The point ideal of c_0 moved by phi^k, and one pullback along phi^k,
    land where |k| steps of the walk do, |k| <= 50."""
    auto = _orbit_map(kind, field)
    start = ProjPoint.make([field.from_int(x) for x in (1, 5, 7)], field)
    ideal = PointIdeal(TwistRing(2, auto, field), start)
    for k in range(-50, 51):
        walked = orbit_point_walk(auto, start, k)
        assert ideal.moved(k).point == orbit_point(auto, start, k) == walked, k


def test_distinct_window_generic():
    ok, collision = distinct_window(orbit_points(_phi(), _c(), 10))
    assert ok and collision is None


def test_distinct_window_identity_collides():
    orbit = orbit_points(_phi((1, 1)), _c(), 5)
    ok, collision = distinct_window(orbit)
    assert not ok
    assert collision == (-5, -4)


def test_independence_certificate_2_3():
    cert = multiplicative_independence((2, 3))
    assert cert.verdict == "independent"
    assert cert.relation is None
    assert cert.primes == (2, 3)
    assert brute_force_relation((2, 3)) is None


def test_dependence_certificate_2_4():
    cert = multiplicative_independence((2, 4))
    assert cert.verdict == "dependent"
    assert cert.relation == (2, -1)
    assert cert.relation_verified
    assert brute_force_relation((2, 4)) == (2, -1)


def test_dependence_certificate_2_3_6():
    cert = multiplicative_independence((2, 3, 6))
    assert cert.verdict == "dependent"
    assert cert.relation == (1, 1, -1)
    assert cert.relation_verified
    assert brute_force_relation((2, 3, 6)) == (1, 1, -1)


def test_dependence_with_negative_multiplier():
    cert = multiplicative_independence((-1, 2))
    assert cert.verdict == "dependent"
    assert cert.relation_verified
    a, b = cert.relation
    assert Fraction(-1) ** a * Fraction(2) ** b == 1


def test_fractional_multipliers_independent():
    cert = multiplicative_independence((Fraction(1, 2), 3))
    assert cert.verdict == "independent"


def test_relation_verified_exactly():
    """The certified relation must multiply out to 1, signs included."""
    for ms in [(2, 4), (2, 3, 6), (4, 8), (Fraction(1, 2), 4)]:
        cert = multiplicative_independence(ms)
        assert cert.verdict == "dependent"
        value = Fraction(1)
        for p, a in zip(ms, cert.relation):
            value *= Fraction(p) ** a
        assert value == 1
        assert cert.relation_verified


def test_brute_force_agrees_with_certificate():
    for ms in [(2, 3), (2, 4), (2, 3, 6), (5, 25), (2, 3, 5)]:
        cert = multiplicative_independence(ms)
        brute = brute_force_relation(ms)
        if cert.verdict == "independent":
            assert brute is None
        else:
            # the two relations generate the same rank-one lattice
            rel = cert.relation
            assert brute is not None
            assert all(
                rel[i] * brute[j] == rel[j] * brute[i]
                for i in range(len(rel))
                for j in range(len(rel))
            )


def test_factor_bound_rejects_huge_prime():
    big = (10**9 + 7) * (10**9 + 9)
    with pytest.raises(FactorBoundError):
        multiplicative_independence((2, big), bound=10**4)


def test_zero_multiplier_rejected():
    with pytest.raises(ValueError):
        multiplicative_independence((0, 3))


def test_general_position_rank_full():
    rec = general_position_rank(orbit_points(_phi(), _c(), 3), 2, range(-2, 4), QQ)
    assert rec["rank"] == 6
    assert rec["space_dim"] == 6
    assert rec["full"]


def test_general_position_rank_degree_one():
    rec = general_position_rank(orbit_points(_phi(), _c(), 1), 1, range(-1, 2), QQ)
    assert rec["rank"] == 3
    assert rec["full"]


def test_identity_orbit_rank_collapses():
    rec = general_position_rank(orbit_points(_phi((1, 1)), _c(), 3), 2, range(-2, 4), QQ)
    assert rec["rank"] == 1
    assert not rec["full"]


def test_general_position_rank_reads_only_its_window():
    window = orbit_points(_phi(), _c(), 5)
    wide = general_position_rank(window, 2, range(-2, 4), QQ)
    assert wide == general_position_rank(orbit_points(_phi(), _c(), 3), 2, range(-2, 4), QQ)
    with pytest.raises(ValueError, match=r"\[3\] lie outside the window -2..2"):
        general_position_rank(orbit_points(_phi(), _c(), 2), 2, range(-2, 4), QQ)
