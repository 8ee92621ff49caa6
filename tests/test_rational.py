"""Exactness and field behavior of GaussianRational."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from szegopoly.polynomials import PolyRealN, PolyZZbar
from szegopoly.rational import GaussianRational, I, ONE, ZERO, _cleared, _int_dot, _minus_dot


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


def test_complex_conversion_too_large_for_a_double_names_the_value():
    huge = GaussianRational(2**1100, 1)
    with pytest.raises(OverflowError, match=f"of {huge.bit_size()} bits is too large for a double"):
        complex(huge)
    with pytest.raises(OverflowError, match="too large for a double"):
        complex(GaussianRational(0, Fraction(-(2**2000), 3)))


def test_mixed_int_fraction_operands():
    c = GaussianRational(1, 1)
    assert 2 * c == GaussianRational(2, 2)
    assert c + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert 1 - c == GaussianRational(0, -1)
    assert 2 / GaussianRational(0, 2) == GaussianRational(0, -1)


def test_scalar_times_polynomial_both_ways():
    i = GaussianRational(0, 1)
    z = PolyZZbar.var_z()
    x = PolyRealN.variable(3, 0)
    assert i * z == z * i == PolyZZbar.monomial(1, 0, i)
    assert i * x == x * i == PolyRealN.monomial((1, 0, 0), i)


@pytest.mark.parametrize("op", [
    lambda g, p: g + p, lambda g, p: p + g, lambda g, p: g - p,
    lambda g, p: p - g, lambda g, p: g / p,
])
def test_scalar_plus_polynomial_still_raises(op):
    with pytest.raises(TypeError):
        op(GaussianRational(1, 1), PolyZZbar.var_z())


@pytest.mark.parametrize("bad", [0.5, 1j, "1", None])
def test_unknown_operands_raise_type_error(bad):
    g = GaussianRational(1, 1)
    for op in (
        lambda: g + bad, lambda: bad + g, lambda: g - bad, lambda: bad - g,
        lambda: g * bad, lambda: bad * g, lambda: g / bad, lambda: bad / g,
    ):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("bad", [0.1, 1.0, 1j, "1", "1/2", None])
def test_constructor_accepts_what_coerce_accepts(bad):
    with pytest.raises(TypeError):
        GaussianRational.coerce(bad)
    with pytest.raises(TypeError):
        GaussianRational(bad)
    with pytest.raises(TypeError):
        GaussianRational(1, bad)


# -- the (a + b*i)/d representation against a two-Fraction reference --------

parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-12, max_value=12, max_denominator=16),
    st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**90)),
)
pairs = st.one_of(
    st.tuples(parts, parts),
    st.tuples(parts, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), parts),
)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_pow(x, n):
    result = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        result = ref_mul(result, x)
    return ref_div((Fraction(1), Fraction(0)), result) if n < 0 else result


def assert_matches(g, ref):
    a, b, d = g._a, g._b, g._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0
    assert math.gcd(a, b, d) == 1
    if not a and not b:
        assert d == 1
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert (g.re, g.im) == ref
    assert g.bit_size() == sum(
        f.numerator.bit_length() + f.denominator.bit_length() for f in ref
    )
    assert g.text_parts() == (str(ref[0]), str(ref[1]))
    sign = "+" if ref[1] >= 0 else "-"
    assert str(g) == f"{ref[0]}{sign}{abs(ref[1])}i"
    assert complex(g) == complex(float(ref[0]), float(ref[1]))


@settings(max_examples=300)
@given(pairs, pairs)
def test_field_operations_match_fraction_pairs(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    assert_matches(gx, x)
    assert_matches(gx + gy, (x[0] + y[0], x[1] + y[1]))
    assert_matches(gx - gy, (x[0] - y[0], x[1] - y[1]))
    assert_matches(gx * gy, ref_mul(x, y))
    assert_matches(-gx, (-x[0], -x[1]))
    assert_matches(gx.conjugate(), (x[0], -x[1]))
    assert gx.norm() == x[0] * x[0] + x[1] * x[1]
    assert type(gx.norm()) is Fraction
    if any(y):
        assert_matches(gx / gy, ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            gx / gy
    assert (gx == gy) == (x == y)


@settings(max_examples=100)
@given(pairs, st.integers(-4, 4))
def test_powers_match_fraction_pairs(x, n):
    g = GaussianRational(*x)
    if n < 0 and not any(x):
        with pytest.raises(ZeroDivisionError):
            g**n
    else:
        assert_matches(g**n, ref_pow(x, n))


@settings(max_examples=200)
@given(parts, st.one_of(st.integers(-(2**70), 2**70), parts))
def test_mixed_operands_match_fraction_pairs(x, r):
    g = GaussianRational(x, x)
    zero = Fraction(0)
    assert_matches(g + r, (x + r, x))
    assert_matches(r - g, (r - x, -x))
    assert_matches(r * g, (r * x, r * x))
    if r:
        assert_matches(g / r, (x / r, x / r))
    if x:
        assert_matches(r / g, ref_div((Fraction(r), zero), (x, x)))


@settings(max_examples=200)
@given(parts)
def test_real_values_agree_with_int_and_fraction(x):
    g = GaussianRational(x)
    assert g == x and x == g
    assert hash(g) == hash(x)
    assert g.is_real()
    assert g != x + 1
    if x.denominator == 1:
        assert g == int(x) and int(x) == g
        assert hash(g) == hash(int(x))
    assert GaussianRational(x, 1) != x


@settings(max_examples=200)
@given(st.lists(pairs.map(lambda x: GaussianRational(*x)), min_size=1, max_size=8))
# unrelated denominators: the lcm has far more bits than any one of them
@example([GaussianRational(Fraction(1, 2**61 - 1)), GaussianRational(0, Fraction(-3, 2**89 - 1)),
          GaussianRational(Fraction(5, 10**20 + 39), Fraction(1, 7))])
def test_cleared_values_share_one_denominator(values):
    d, numerators = _cleared(values)
    assert d == math.lcm(*(g._d for g in values))
    assert [GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in numerators] == values


@settings(max_examples=200)
@given(pairs, pairs, pairs)
def test_field_axioms_random(x, y, z):
    a, b, c = (GaussianRational(*p) for p in (x, y, z))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if c:
        assert (a / c) * c == a


gaussians = pairs.map(lambda x: GaussianRational(*x))


@settings(max_examples=300)
@given(gaussians, st.lists(st.tuples(gaussians, gaussians), max_size=6))
@example(GaussianRational(Fraction(1, 6)), [])
@example(GaussianRational(Fraction(1, 6)), [(GaussianRational(Fraction(1, 2)), ONE)])
# the products share the denominator 6 with the base, and cancel to zero
@example(
    GaussianRational(Fraction(1, 6)),
    [(GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 3))), (ZERO, I)],
)
def test_minus_dot_is_the_per_term_fold(base, products):
    expected = base
    for u, v in products:
        expected = expected - u * v
    got = _minus_dot(base, products)
    assert got == expected
    assert_matches(got, (expected.re, expected.im))


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(-60, 60), gaussians), max_size=6))
@example([(2, GaussianRational(Fraction(1, 6)))])
# the weighted values share the denominator 6 and cancel to zero
@example([(2, GaussianRational(Fraction(1, 6))), (-1, GaussianRational(Fraction(1, 3)))])
def test_int_dot_is_the_per_term_sum(weighted):
    expected = ZERO
    for n, g in weighted:
        expected = expected + g * n
    got = _int_dot(weighted)
    assert got == expected
    assert_matches(got, (expected.re, expected.im))


def test_repr_past_the_int_str_digit_limit():
    # 10^5000 has 5,001 digits, past the interpreter's default limit of 4,300.
    g = GaussianRational(Fraction(10**5000, 3), -1)
    assert repr(g) == "GaussianRational(Fraction(1" + "0" * 5000 + ", 3), Fraction(-1, 1))"
    assert repr(GaussianRational(Fraction(2, 4), 3)) == (
        "GaussianRational(Fraction(1, 2), Fraction(3, 1))"
    )


def test_parts_are_read_only():
    c = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        c.im = Fraction(5)
    with pytest.raises(AttributeError):
        c.extra = 1
    assert c == GaussianRational(1, 2)
