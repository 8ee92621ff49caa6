"""Exactness and field behavior of GaussianRational."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from szegopoly.rational import GaussianRational, I, ONE, ZERO


def rand_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def test_construction_reduces_fractions():
    c = GaussianRational(Fraction(2, 4), Fraction(-6, 8))
    assert c.re == Fraction(1, 2)
    assert c.im == Fraction(-3, 4)
    assert c.re.denominator > 0 and c.im.denominator > 0


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 3), -1)
    assert a + b == GaussianRational(Fraction(4, 3), 1)
    assert a - b == GaussianRational(Fraction(2, 3), 3)
    # (1+2i)(1/3 - i) = 1/3 - i + 2i/3 + 2 = 7/3 - i/3
    assert a * b == GaussianRational(Fraction(7, 3), Fraction(-1, 3))


def test_conjugate_and_norm():
    c = GaussianRational(3, -4)
    assert c.conjugate() == GaussianRational(3, 4)
    assert c.norm() == 25
    assert (c * c.conjugate()) == GaussianRational(25)


def test_division_exact():
    a = GaussianRational(Fraction(5, 7), Fraction(-2, 3))
    b = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    assert (a / b) * b == a
    assert a / a == ONE


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_i_squared():
    assert I * I == GaussianRational(-1)


def test_power():
    c = GaussianRational(1, 1)
    assert c**0 == ONE
    assert c**2 == GaussianRational(0, 2)
    assert c**-2 == ONE / GaussianRational(0, 2)


def test_immutable_and_hashable():
    c = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        c.re = Fraction(5)
    assert hash(GaussianRational(1, 2)) == hash(c)
    assert {c: "x"}[GaussianRational(1, 2)] == "x"


def test_real_values_hash_like_their_rational():
    assert {1: "v"}.get(GaussianRational(1)) == "v"
    assert {Fraction(1, 2): "v"}.get(GaussianRational(Fraction(1, 2))) == "v"
    assert {GaussianRational(-3): "v"}.get(-3) == "v"


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
numbers = st.one_of(
    st.integers(-4, 4),
    small,
    st.builds(GaussianRational, small),
    st.builds(GaussianRational, small, small),
)


@settings(max_examples=300)
@given(numbers, numbers)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_complex_conversion():
    assert complex(GaussianRational(Fraction(1, 2), Fraction(-1, 4))) == 0.5 - 0.25j


def test_field_axioms_random():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = rand_gr(rng), rand_gr(rng), rand_gr(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if c:
            assert (a / c) * c == a


def test_mixed_int_fraction_operands():
    c = GaussianRational(1, 1)
    assert 2 * c == GaussianRational(2, 2)
    assert c + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert 1 - c == GaussianRational(0, -1)
    assert 2 / GaussianRational(0, 2) == GaussianRational(0, -1)
