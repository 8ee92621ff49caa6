"""Polynomial core: arithmetic, Wirtinger calculus, conversions, division."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from szegopoly.polynomials import (
    MAX_EXPONENT,
    PolyRealN,
    PolyZZbar,
    divide_exact,
    monomials_real,
    monomials_zzbar,
    xy_to_zzbar,
    zzbar_to_xy,
)
from szegopoly.rational import GaussianRational, I

Z = PolyZZbar.var_z()
ZB = PolyZZbar.var_zbar()
X = PolyRealN.variable(2, 0)
Y = PolyRealN.variable(2, 1)
HALF = Fraction(1, 2)

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
coefficients = st.builds(GaussianRational, small_rationals, small_rationals)
zzbar_polys = st.dictionaries(
    st.sampled_from(monomials_zzbar(6)), coefficients, max_size=14
).map(PolyZZbar)


def real_polys(dim, max_degree, max_size=14):
    return st.dictionaries(
        st.sampled_from(monomials_real(dim, max_degree)), coefficients, max_size=max_size
    ).map(lambda terms: PolyRealN(dim, terms))


# -- change of variables -------------------------------------------------------

def test_x_maps_to_half_z_plus_zbar():
    assert xy_to_zzbar(X) == (Z + ZB) * HALF


def test_modulus_squared_identity():
    # x^2 + y^2 = z zbar
    assert xy_to_zzbar(X * X + Y * Y) == Z * ZB


def test_x_squared_expansion():
    expected = (Z * Z + Z * ZB * 2 + ZB * ZB) * Fraction(1, 4)
    assert xy_to_zzbar(X * X) == expected


def test_z_maps_to_x_plus_iy():
    assert zzbar_to_xy(Z) == X + Y * I


def test_zzbar_maps_to_modulus():
    assert zzbar_to_xy(Z * ZB) == X * X + Y * Y


def test_z_squared_to_xy():
    assert zzbar_to_xy(Z * Z) == X * X - Y * Y + X * Y * GaussianRational(0, 2)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "complex"])
def test_evaluate_computes_each_power_once(monkeypatch, exact):
    calls = []
    real_pow = GaussianRational.__pow__

    def counting_pow(self, n):
        calls.append((self, n))
        return real_pow(self, n)

    class CountingComplex(complex):
        def __pow__(self, n):
            calls.append((self, n))
            return complex(self) ** n

    # Terms share powers: z^2 multiplies zbar^0, zbar^1, zbar^2 and zbar^3.
    p = (Z + ZB * Fraction(2, 3) + PolyZZbar.constant(1)) ** 4 + Z**2 * ZB**3 * I
    z = GaussianRational(Fraction(1, 3), -2) if exact else 0.3 - 2j
    zbar = z.conjugate()
    reference = sum(
        ((c if exact else complex(c)) * z**a * zbar**b for (a, b), c in p.terms()),
        GaussianRational(0) if exact else 0j,
    )
    if exact:
        coords = (z, zbar)
        monkeypatch.setattr(GaussianRational, "__pow__", counting_pow)
    else:
        coords = (CountingComplex(z), CountingComplex(zbar))
    value = p._evaluate(coords)
    distinct = {(coords[axis], key[axis]) for key in p._terms for axis in (0, 1) if key[axis]}
    assert len(distinct) == 4 + 4  # z^1..z^4 and zbar^1..zbar^4
    assert sorted(calls, key=repr) == sorted(distinct, key=repr)
    assert value == reference
    # powers kept by the caller: a second evaluation computes none
    kept = [{}, {}]
    assert p._evaluate(coords, kept) == value
    calls.clear()
    assert p._evaluate(coords, kept) == value
    assert not calls


@settings(max_examples=100, deadline=None)
@given(zzbar_polys, real_polys(2, max_degree=6))
def test_round_trip_random(p, q):
    assert xy_to_zzbar(zzbar_to_xy(p)) == p
    assert zzbar_to_xy(xy_to_zzbar(q)) == q


@settings(max_examples=50, deadline=None)
@given(real_polys(2, max_degree=6))
def test_degree_preserved_by_conversion(p):
    assert xy_to_zzbar(p).degree() == p.degree()


def test_xy_to_zzbar_rejects_other_dimensions():
    with pytest.raises(ValueError):
        xy_to_zzbar(PolyRealN.variable(3, 0))


# -- Wirtinger derivatives and Laplacian -----------------------------------------

def test_dzbar_kills_holomorphic():
    assert (Z**3).d_dzbar().is_zero()


def test_dz_of_z_zbar():
    assert (Z * ZB).d_dz() == ZB


def test_dzbar_power_rule():
    assert (Z**2 * ZB**2).d_dzbar() == Z**2 * ZB * 2


def test_laplacian_z_zbar():
    assert (Z * ZB).laplacian() == PolyZZbar.constant(4)


def test_laplacian_real_modulus():
    assert (X * X + Y * Y).laplacian() == PolyRealN.constant(2, 4)


def test_laplacian_harmonic_real():
    assert (X * X - Y * Y).laplacian().is_zero()


@settings(max_examples=100, deadline=None)
@given(real_polys(2, max_degree=6))
def test_laplacian_commutes_with_conversion(p):
    assert xy_to_zzbar(p.laplacian()) == xy_to_zzbar(p).laplacian()


@settings(max_examples=100, deadline=None)
@given(zzbar_polys)
def test_dz_conjugate_identity(p):
    assert p.conjugate().d_dz() == p.d_dzbar().conjugate()


@settings(max_examples=50, deadline=None)
@given(zzbar_polys)
def test_degree_drop_of_derivatives(p):
    if not p.d_dz().is_zero():
        assert p.d_dz().degree() <= p.degree() - 1


# -- arithmetic suite ------------------------------------------------------------

def test_conjugate_of_iz():
    assert (Z * I).conjugate() == ZB * GaussianRational(0, -1)


def test_difference_of_squares():
    assert (Z + ZB) * (Z - ZB) == Z * Z - ZB * ZB


def test_evaluate_modulus():
    value = (Z * ZB).evaluate(GaussianRational(3, 4))
    assert value == GaussianRational(25)
    assert (Z * ZB).evaluate(3 + 4j) == pytest.approx(25.0)


def test_evaluate_real_poly():
    p = X * X - Y * Y
    assert p.evaluate((Fraction(3), Fraction(2))) == GaussianRational(5)
    assert p.evaluate((3.0, 2.0)) == pytest.approx(5.0)


@settings(max_examples=100, deadline=None)
@given(zzbar_polys, zzbar_polys, zzbar_polys)
def test_ring_axioms_random_triples(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@settings(max_examples=100, deadline=None)
@given(zzbar_polys.filter(bool), zzbar_polys.filter(bool))
def test_no_zero_divisors_degree_additive(p, q):
    assert (p * q).degree() == p.degree() + q.degree()


def test_zero_polynomial_degree_is_minus_one():
    assert PolyZZbar.zero().degree() == -1
    assert PolyRealN.zero(3).degree() == -1
    assert (Z - Z).degree() == -1


def test_is_holomorphic():
    assert (Z**4 + PolyZZbar.constant(2)).is_holomorphic()
    assert not (Z + ZB).is_holomorphic()
    assert PolyZZbar.zero().is_holomorphic()


def test_no_zero_coefficients_stored():
    p = PolyZZbar({(1, 0): 1, (0, 1): 0})
    assert len(p) == 1
    assert p.coefficient(0, 1) == GaussianRational(0)


def test_exponent_overflow_guard():
    with pytest.raises(OverflowError):
        PolyZZbar({(MAX_EXPONENT + 1, 0): 1})
    big = PolyZZbar.monomial(MAX_EXPONENT, 0)
    with pytest.raises(OverflowError):
        big * Z


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        X + PolyRealN.variable(3, 0)
    with pytest.raises(ValueError):
        PolyRealN(2, {(1, 0, 0): 1})


# -- exact division -------------------------------------------------------------

def unit_circle_r():
    return Z * ZB - PolyZZbar.constant(1)


def test_divide_square_by_factor():
    r = unit_circle_r()
    assert divide_exact(r * r, r) == r


def test_divide_not_divisible_by_degree():
    assert divide_exact(Z, unit_circle_r()) is None


def test_divide_factored_by_hand():
    # z^2 zbar - z = z (z zbar - 1)
    assert divide_exact(Z**2 * ZB - Z, unit_circle_r()) == Z


def assert_division_sound(p, q, c):
    """A quotient returned is exact, and p*q + c is no multiple of q."""
    for x in (p, p * q, p * q + c):
        quotient = divide_exact(x, q)
        if quotient is not None:
            assert q * quotient == x
    if q.degree() >= 1:
        # p*q + c = q*s would make the constant c a multiple q*(s - p)
        assert divide_exact(p * q + c, q) is None


@settings(max_examples=100, deadline=None)
@given(zzbar_polys, zzbar_polys.filter(bool), coefficients.filter(bool))
def test_divide_product_recovers_factor(p, q, c):
    assert divide_exact(p * q, q) == p
    assert_division_sound(p, q, PolyZZbar.constant(c))


@settings(max_examples=50, deadline=None)
@given(
    real_polys(3, max_degree=4), real_polys(3, max_degree=3).filter(bool), coefficients.filter(bool)
)
def test_divide_real_polys(p, q, c):
    assert divide_exact(p * q, q) == p
    assert_division_sound(p, q, PolyRealN.constant(3, c))


def test_divide_zero_by_anything():
    assert divide_exact(PolyZZbar.zero(), Z) == PolyZZbar.zero()


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divide_exact(Z, PolyZZbar.zero())


def test_divide_detects_near_miss():
    r = unit_circle_r()
    almost = r * Z + PolyZZbar.constant(Fraction(1, 7))
    assert divide_exact(almost, r) is None


# -- monomial bases ---------------------------------------------------------------

def test_monomials_zzbar_counts_and_order():
    basis = monomials_zzbar(3)
    assert len(basis) == 10
    degrees = [a + b for a, b in basis]
    assert degrees == sorted(degrees)
    assert basis[0] == (0, 0)


def test_monomials_real_counts():
    assert len(monomials_real(3, 6)) == 84  # C(9,3)
    assert len(monomials_real(2, 10)) == 66  # C(12,2)
    degrees = [sum(alpha) for alpha in monomials_real(3, 4)]
    assert degrees == sorted(degrees)


# -- one ring per type ------------------------------------------------------------

@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
    ],
    ids=["add", "sub", "mul"],
)
def test_mixed_polynomial_types_raise_type_error(op):
    # Z and X both hold the single key (1, 0); they are still different variables.
    with pytest.raises(TypeError):
        op(Z, X)
    with pytest.raises(TypeError):
        op(X, Z)


@pytest.mark.parametrize("scalar", [1, Fraction(1, 2), GaussianRational(0, 1)])
def test_adding_a_scalar_raises_type_error(scalar):
    for p in (Z, X):
        with pytest.raises(TypeError):
            p + scalar
        with pytest.raises(TypeError):
            scalar + p
        with pytest.raises(TypeError):
            p - scalar
        with pytest.raises(TypeError):
            scalar - p


def test_scalars_still_multiply():
    assert Z * 2 == 2 * Z == Z + Z
    assert X * Fraction(1, 2) == Fraction(1, 2) * X
    assert Z * GaussianRational(0, 1) == PolyZZbar.monomial(1, 0, I)
    assert (Z * 0).is_zero() and (0 * X).is_zero()
    assert (X * 0).dim == 2


def test_dimension_mismatch_rejected_by_every_ring_operation():
    X3 = PolyRealN.variable(3, 0)
    for op in (lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError):
            op(X, X3)
    with pytest.raises(ValueError):
        divide_exact(X * X, X3)


def test_divide_exact_rejects_mixed_types():
    with pytest.raises(TypeError):
        divide_exact(Z * Z, X)
    with pytest.raises(TypeError):
        divide_exact(X * X, Z)


def test_bool_exponents_rejected():
    with pytest.raises(ValueError):
        PolyZZbar({(True, 0): 1})
    with pytest.raises(ValueError):
        PolyZZbar({(0, False): 1})
    with pytest.raises(ValueError):
        PolyRealN(2, {(True, 0): 1})
    with pytest.raises(ValueError):
        PolyZZbar.monomial(True, 0)
    with pytest.raises(ValueError):
        PolyRealN.monomial((0, 0, True))
