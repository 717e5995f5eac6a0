"""Exact field arithmetic: rationals and prime fields."""

from fractions import Fraction

import pytest

from idealizer.fields import QQ, PrimeField, field_from_name, is_prime


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


# 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37, and
# the least one to the bases 2..41 (Sorenson and Webster, Math. Comp. 2017)
PSEUDOPRIMES = (318665857834031151167461, 3317044064679887385961981)


def test_is_prime_rejects_strong_pseudoprimes():
    """The first is composite, and the second is where the test stops
    being exact: neither is accepted, by is_prime or by PrimeField."""
    small, bound = PSEUDOPRIMES
    assert small == 399165290221 * 798330580441
    assert not is_prime(small)
    with pytest.raises(ValueError, match="not decided"):
        is_prime(bound)
    for n in PSEUDOPRIMES:
        with pytest.raises(ValueError):
            PrimeField(n)


def test_is_prime_accepts_large_primes_below_the_bound():
    """2^61 - 1, 10^18 + 9 and the largest prime below the bound are
    accepted; a product of two primes below the bound is not."""
    for p in (2**61 - 1, 10**18 + 9, 3317044064679887385961813):
        assert is_prime(p)
        assert PrimeField(p).char == p
    assert not is_prime(1000003 * (10**18 + 9))


def test_rational_field_basics():
    assert QQ.char == 0
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)
    assert QQ.from_int(-3) == Fraction(-3)
    assert QQ.parse("2/3") == Fraction(2, 3)
    assert QQ.render(Fraction(-5, 2)) == "-5/2"
    assert QQ.render(Fraction(4)) == "4"


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.from_int(10) == F.from_int(3) == 3
    assert F.from_int(-3) == 4
    assert F.parse("5/3") == 4  # 5 * 3^-1 = 5 * 5 = 25 = 4
    assert F.from_fraction(Fraction(-1, 3)) == 2
    assert bool(F.zero) is False
    assert bool(F.from_int(3)) is True
    with pytest.raises(ZeroDivisionError):
        F.parse("1/14")


def test_rational_field_from_fraction():
    """A rational scalar is an int when it is integral, else a Fraction."""
    assert QQ.from_fraction(Fraction(6, 4)) == Fraction(3, 2)
    assert type(QQ.from_fraction(Fraction(8, 4))) is int
    assert QQ.from_fraction(Fraction(-2, 3)) == Fraction(-2, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.parse("1/0")


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_prime_field_from_fraction():
    F = PrimeField(11)
    assert F.from_fraction(Fraction(1, 2)) == F.from_int(6)
    with pytest.raises(ZeroDivisionError):
        F.from_fraction(Fraction(1, 11))


def test_field_from_name():
    assert field_from_name("rational") is QQ
    F = field_from_name("prime:10007")
    assert F.char == 10007
    with pytest.raises(ValueError):
        field_from_name("prime:10")
    with pytest.raises(ValueError):
        field_from_name("complex")
