"""Randomised properties of the sparse polynomial ring, for both types."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from szegopoly.dirichlet import is_harmonic
from szegopoly.polynomials import (
    MAX_EXPONENT,
    PolyRealN,
    PolyZZbar,
    _mul_terms,
    _sum_of_products,
    divide_exact,
    monomials_real,
    xy_to_zzbar,
    zzbar_to_xy,
)
from szegopoly.rational import GaussianRational, _cleared, _reduce

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussian_rationals = st.builds(GaussianRational, small_rationals, small_rationals)
coefficients = st.one_of(st.integers(-3, 3), small_rationals, gaussian_rationals)

# (type, number of variables): z/zbar, and real polynomials in 2 and 3 variables
RINGS = [(PolyZZbar, 2), (PolyRealN, 2), (PolyRealN, 3)]


def build(kind, dim, terms):
    """The polynomial with these terms, through the public constructor."""
    return kind(terms) if kind is PolyZZbar else kind(dim, terms)


@st.composite
def ring_elements(draw, count, max_degree=3, max_terms=6):
    kind, dim = draw(st.sampled_from(RINGS))
    keys = st.sampled_from(monomials_real(dim, max_degree))
    return kind, dim, [
        build(kind, dim, draw(st.dictionaries(keys, coefficients, max_size=max_terms)))
        for _ in range(count)
    ]


def one(kind, dim):
    return build(kind, dim, {(0,) * dim: 1})


@settings(max_examples=150, deadline=None)
@given(ring_elements(3))
def test_ring_axioms(ring):
    kind, dim, (p, q, r) = ring
    zero = build(kind, dim, {})
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p + zero == p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p * one(kind, dim) == p
    assert (p * zero).is_zero()


@settings(max_examples=150, deadline=None)
@given(ring_elements(2))
def test_negation_and_subtraction(ring):
    kind, dim, (p, q) = ring
    assert (p - p).is_zero()
    assert (p - p).degree() == -1
    assert -(-p) == p
    assert p - q == p + (-q)
    assert (p - q) + q == p


@settings(max_examples=150, deadline=None)
@given(ring_elements(2))
def test_degree_is_additive(ring):
    _, _, (p, q) = ring
    if p and q:
        assert (p * q).degree() == p.degree() + q.degree()
    else:
        assert (p * q).degree() == -1


@settings(max_examples=60, deadline=None)
@given(ring_elements(1, max_degree=2, max_terms=4), st.integers(0, 5))
def test_power_is_repeated_product(ring, n):
    kind, dim, (p,) = ring
    expected = one(kind, dim)
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


def _derived(kind, p, q, c):
    results = [p + q, p - q, -p, p * q, p * c, p**2, p.conjugate(), p.laplacian()]
    if kind is PolyZZbar:
        results += [p.d_dz(), p.d_dzbar()]
    else:
        results += [p.partial(axis) for axis in range(p.dim)]
    return results


@settings(max_examples=150, deadline=None)
@given(ring_elements(2), coefficients)
def test_results_equal_their_terms_through_the_public_constructor(ring, c):
    kind, dim, (p, q) = ring
    for result in _derived(kind, p, q, c):
        assert type(result) is kind
        terms = dict(result.terms())
        assert all(terms.values()), "a zero coefficient was stored"
        assert all(len(key) == dim for key in terms)
        rebuilt = build(kind, dim, terms)
        assert rebuilt == result
        assert hash(rebuilt) == hash(result)
        assert len(rebuilt) == len(result)
        assert rebuilt.degree() == result.degree()


@settings(max_examples=60, deadline=None)
@given(ring_elements(2), coefficients)
def test_polynomials_are_immutable(ring, c):
    kind, dim, (p, q) = ring
    before = (dict(p.terms()), dict(q.terms()))
    for result in [p, *_derived(kind, p, q, c)]:
        with pytest.raises(AttributeError):
            result._terms = {}
        with pytest.raises(AttributeError):
            result._dim = dim + 1
        with pytest.raises(AttributeError):
            result.extra = 1
    assert (dict(p.terms()), dict(q.terms())) == before


def _sum_of_second_partials(p):
    total = PolyRealN.zero(p.dim)
    for axis in range(p.dim):
        total = total + p.partial(axis).partial(axis)
    return total


def laplacian_by_terms(p):
    """Reference: the terms of the Laplacian of a PolyRealN, one
    GaussianRational product and sum per term and axis, in the order they
    are visited; sums that cancel are dropped at the end."""
    out = {}
    for key, c in p._terms.items():
        for axis, e in enumerate(key):
            if e > 1:
                k = key[:axis] + (e - 2,) + key[axis + 1 :]
                out[k] = out.get(k, 0) + c * (e * (e - 1))
    return {k: c for k, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(PolyZZbar, 2), *((PolyRealN, n) for n in range(1, 5))]), st.data())
def test_laplacian_equals_its_definitions(ring, data):
    kind, dim = ring
    keys = st.sampled_from(monomials_real(dim, 4))
    p = build(kind, dim, data.draw(st.dictionaries(keys, coefficients, max_size=8)))
    if kind is PolyZZbar:
        assert p.laplacian() == p.d_dz().d_dzbar() * 4
        assert p.laplacian() == xy_to_zzbar(_sum_of_second_partials(zzbar_to_xy(p)))
    else:
        assert p.laplacian() == _sum_of_second_partials(p)
        assert list(p.laplacian()._terms.items()) == list(laplacian_by_terms(p).items())
        if dim == 2:
            assert p.laplacian() == zzbar_to_xy(xy_to_zzbar(p).d_dz().d_dzbar() * 4)


@pytest.mark.parametrize("dim, top", [(2, False), (3, False), (3, True), (4, True)])
@pytest.mark.parametrize("c", [1, Fraction(2, 3), GaussianRational(Fraction(1, 6), -5)])
def test_laplacian_drops_keys_whose_contributions_cancel(dim, top, c):
    """Lap(x1^2 - x2^2) = 0 and Lap((x1^2 - x2^2) * x3^2) = 2(x1^2 - x2^2):
    the contributions on the constant, or on x3^2, cancel, and no zero
    coefficient may be stored for them."""
    x1, x2 = (PolyRealN.variable(dim, axis) for axis in (0, 1))
    p = (x1 * x1 - x2 * x2) * c
    expected = PolyRealN.zero(dim)
    if top:
        x3 = PolyRealN.variable(dim, 2)
        expected = p * 2
        p = p * x3 * x3
    lap = p.laplacian()
    assert all(lap._terms.values())
    assert list(lap._terms.items()) == list(laplacian_by_terms(p).items())
    assert lap == expected
    assert is_harmonic(p) is not top


@settings(max_examples=150, deadline=None)
@given(ring_elements(2), st.lists(gaussian_rationals, min_size=3, max_size=3))
def test_evaluation_is_exact_and_agrees_across_forms(ring, coords):
    kind, dim, (p, q) = ring
    if kind is PolyZZbar:
        point = coords[0]
        float_point = complex(point)
        moduli = (abs(float_point),) * 2
    else:
        point = tuple(coords[:dim])
        float_point = tuple(map(complex, point))
        moduli = tuple(map(abs, float_point))
    value = p.evaluate(point)
    assert type(value) is GaussianRational
    assert (p + q).evaluate(point) == value + q.evaluate(point)
    assert (p * q).evaluate(point) == value * q.evaluate(point)
    if kind is PolyZZbar:
        assert zzbar_to_xy(p).evaluate((point.re, point.im)) == value
    # Each term is a few correctly rounded products, so the float value is
    # off by a small multiple of eps times the sum of the term magnitudes.
    size = sum(
        abs(complex(c)) * math.prod(m**e for m, e in zip(moduli, key))
        for key, c in p.terms()
    )
    assert abs(p.evaluate(float_point) - complex(value)) <= 1e-13 * size


# -- exponent overflow: checked once per product -------------------------------------


def test_overflow_check_per_product_zzbar():
    top = PolyZZbar.monomial(MAX_EXPONENT, 0)
    product = top * PolyZZbar.var_zbar()
    assert product == PolyZZbar.monomial(MAX_EXPONENT, 1)
    with pytest.raises(OverflowError):
        top * PolyZZbar.var_z()
    with pytest.raises(OverflowError):
        top * top
    assert (top * PolyZZbar.zero()).is_zero()


@pytest.mark.parametrize("dim", [2, 3])
def test_overflow_check_per_product_real(dim):
    for axis in range(dim):
        alpha = [0] * dim
        alpha[axis] = MAX_EXPONENT
        top = PolyRealN.monomial(alpha)
        for other in range(dim):
            x = PolyRealN.variable(dim, other)
            if other == axis:
                with pytest.raises(OverflowError):
                    top * x
            else:
                beta = list(alpha)
                beta[other] = 1
                assert top * x == PolyRealN.monomial(beta)


near_limit = st.sampled_from([0, 1, 2, MAX_EXPONENT - 2, MAX_EXPONENT - 1, MAX_EXPONENT])


@st.composite
def sparse_high_degree(draw):
    kind, dim = draw(st.sampled_from(RINGS))
    keys = st.tuples(*[near_limit] * dim)
    return kind, dim, [
        build(kind, dim, draw(st.dictionaries(keys, coefficients, max_size=4)))
        for _ in range(2)
    ]


@settings(max_examples=300, deadline=None)
@given(sparse_high_degree())
def test_product_overflows_exactly_when_some_pair_of_terms_does(ring):
    kind, dim, (p, q) = ring
    overflows = any(
        x + y > MAX_EXPONENT
        for ka, _ in p.terms()
        for kb, _ in q.terms()
        for x, y in zip(ka, kb)
    )
    if overflows:
        with pytest.raises(OverflowError):
            p * q
    else:
        assert p * q == build(kind, dim, product_by_pairs(p, q))


# -- the product kernel against term-by-term products ------------------------------------


def product_by_pairs(p, q):
    """The terms of p * q, one GaussianRational product and sum per pair of
    terms, in the order the pairs are visited; a sum that cancels is dropped
    and comes back at the end if a later pair hits its monomial again."""
    out = {}
    for ka, ca in p._terms.items():
        for kb, cb in q._terms.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


@st.composite
def kernel_operands(draw):
    kind, dim = draw(st.sampled_from([(PolyZZbar, 2), *((PolyRealN, n) for n in range(1, 5))]))
    base = draw(st.integers(1, 10**12))
    # Small, sharing one large factor, or unrelated 40-bit ones, whose lcm
    # grows with every coefficient: all three are cleared over their lcm.
    denominators = draw(st.sampled_from([
        st.integers(1, 12),
        st.integers(1, 12).map(lambda k: base * k),
        st.integers(1, 10**12),
    ]))
    parts = st.builds(Fraction, st.integers(-(10**12), 10**12), denominators)
    coefs = st.builds(GaussianRational, parts, st.one_of(st.just(0), parts))
    keys = st.sampled_from(monomials_real(dim, 3))
    u, v = (
        build(kind, dim, draw(st.dictionaries(keys, coefs, min_size=1, max_size=6)))
        for _ in range(2)
    )
    # (u + v)(u - v): the cross terms cancel
    return (u + v, u - v) if draw(st.booleans()) else (u, v)


@st.composite
def one_term_operands(draw):
    """A one-term polynomial, its coefficient often 1, and another polynomial
    of the same ring, on small keys or keys near the exponent bound."""
    kind, dim = draw(st.sampled_from(RINGS))
    if draw(st.booleans()):
        keys = st.tuples(*[near_limit] * dim)
    else:
        keys = st.sampled_from(monomials_real(dim, 3))
    c = draw(st.one_of(st.just(1), coefficients.filter(bool)))
    term = build(kind, dim, {draw(keys): c})
    return term, build(kind, dim, draw(st.dictionaries(keys, coefficients, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(one_term_operands())
def test_one_term_product_is_the_term_by_term_product(operands):
    term, other = operands
    for p, q in ((term, other), (other, term)):
        if any(x + y > MAX_EXPONENT for ka in p._terms for kb in q._terms for x, y in zip(ka, kb)):
            with pytest.raises(OverflowError):
                p * q
        else:
            assert list((p * q)._terms.items()) == list(product_by_pairs(p, q).items())


@settings(max_examples=300, deadline=None)
@given(kernel_operands())
@example((PolyZZbar({(1, 0): 1, (0, 1): 1}), PolyZZbar({(1, 0): 1, (0, 1): -1})))
# z*zbar cancels after two pairs and comes back with the last one
@example((
    PolyZZbar({(1, 0): 1, (0, 1): 1, (0, 0): 1}),
    PolyZZbar({(0, 1): -1, (1, 0): 1, (1, 1): 1}),
))
def test_product_is_the_sum_of_term_products(operands):
    p, q = operands
    product = (p * q)._terms
    # Same keys, values and dict order: float evaluation sums in that order.
    assert list(product.items()) == list(product_by_pairs(p, q).items())
    for c in product.values():
        a, b, d = c._a, c._b, c._d
        assert (a or b) and d > 0 and math.gcd(a, b, d) == 1


def cleared_product_loop(a, b):
    """The multi-term product loop _mul_terms had before _sum_of_products:
    both operands over their own lcm, numerator products summed per key, a
    key that cancels deleted, each coefficient reduced once over da*db."""
    da, na = _cleared(a.values())
    db, nb = (da, na) if b is a else _cleared(b.values())
    acc = {}
    for ka, (a1, b1) in zip(a, na):
        for kb, (a2, b2) in zip(b, nb):
            k = tuple(x + y for x, y in zip(ka, kb))
            s = acc.get(k)
            if s is None:
                acc[k] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
            else:
                s[0] += a1 * a2 - b1 * b2
                s[1] += a1 * b2 + b1 * a2
                if not (s[0] or s[1]):
                    del acc[k]
    return {k: _reduce(re, im, da * db) for k, (re, im) in acc.items()}


@settings(max_examples=200, deadline=None)
@given(kernel_operands())
def test_one_product_item_is_the_former_product_loop(operands):
    p, q = operands
    for a, b in ((p._terms, q._terms), (p._terms, p._terms)):
        if len(a) > 1 and len(b) > 1:
            expected = list(cleared_product_loop(a, b).items())
            assert list(_mul_terms(a, b).items()) == expected
            assert list(_sum_of_products([(a, b, 1)]).items()) == expected


@st.composite
def sum_of_products_items(draw):
    """(kind, dim, items) for _sum_of_products: lone polynomials and pairs,
    some empty or of one term, each with a small nonzero int weight, on
    small, shared large or unrelated large denominators; sometimes a pair
    and its negated product, which cancel."""
    kind, dim = draw(st.sampled_from(DIVISION_RINGS))
    base = draw(st.integers(1, 10**12))
    denominators = draw(st.sampled_from([
        st.integers(1, 12),
        st.integers(1, 12).map(lambda k: base * k),
        st.integers(1, 10**12),
    ]))
    parts = st.builds(Fraction, st.integers(-(10**12), 10**12), denominators)
    coefs = st.builds(GaussianRational, parts, st.one_of(st.just(0), parts))
    keys = st.sampled_from(monomials_real(dim, 3))
    size = st.sampled_from([0, 1, 1, 2, 4, 6])
    # At most four keys: dimension 1 has only four monomials of degree <= 3.
    polys = size.flatmap(lambda n: st.dictionaries(keys, coefs, min_size=min(n, 4), max_size=n)).map(
        lambda terms: build(kind, dim, terms)
    )
    weights = st.integers(-3, 3).filter(bool)
    items = draw(st.lists(
        st.one_of(st.tuples(polys, weights), st.tuples(polys, polys, weights)), max_size=5
    ))
    if draw(st.booleans()):
        a, b, s = draw(polys), draw(polys), draw(weights)
        items += [(a, b, s), (a * b, -s)]
    return kind, dim, items


@settings(max_examples=300, deadline=None)
@given(sum_of_products_items())
@example((PolyZZbar, 2, []))
@example((PolyZZbar, 2, [(PolyZZbar(), 1), (PolyZZbar(), PolyZZbar({(1, 0): 1}), -1)]))
# f - h - r*q = 0 with f = r*q + h: everything cancels
@example((PolyZZbar, 2, [
    (PolyZZbar({(1, 1): 1, (0, 0): -1}) * PolyZZbar({(0, 1): Fraction(1, 3), (1, 0): 2})
     + PolyZZbar({(2, 0): Fraction(5, 7)}), 1),
    (PolyZZbar({(2, 0): Fraction(5, 7)}), -1),
    (PolyZZbar({(1, 1): 1, (0, 0): -1}), PolyZZbar({(0, 1): Fraction(1, 3), (1, 0): 2}), -1),
]))
def test_sum_of_products_is_the_ring_arithmetic(case):
    kind, dim, items = case
    expected = build(kind, dim, {})
    for *factors, s in items:
        value = factors[0] * factors[1] if len(factors) == 2 else factors[0]
        expected = expected + value * s
    terms = _sum_of_products([(*(f._terms for f in factors), s) for *factors, s in items])
    assert build(kind, dim, {})._new(terms) == expected
    for c in terms.values():
        a, b, d = c._a, c._b, c._d
        assert (a or b) and d > 0 and math.gcd(a, b, d) == 1


# -- exact division against the term-by-term remainder update ------------------------


def division_by_terms(p, r):
    """Reference: graded-lex division of p by r that scans the remainder
    for its leading key and updates it with one GaussianRational product
    and difference per term of r, deleting each key that cancels.

    Returns (quotient terms or None, revived), where revived says whether
    some key cancelled and then entered the remainder again before it led.
    """
    def order(key):
        return sum(key), key

    lead_r = max(r._terms, key=order)
    rem, quot, cancelled, revived = dict(p._terms), {}, set(), False
    while rem:
        lead = max(rem, key=order)
        exps = tuple(x - y for x, y in zip(lead, lead_r))
        if min(exps) < 0:
            return None, revived
        c = rem[lead] / r._terms[lead_r]
        quot[exps] = c
        for k, ck in r._terms.items():
            key = tuple(x + y for x, y in zip(exps, k))
            revived = revived or (key in cancelled and key not in rem)
            s = rem.get(key, 0) - c * ck
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
                cancelled.add(key)
    return quot, revived


def assert_division_matches_reference(x, r):
    quotient = divide_exact(x, r)
    expected, revived = division_by_terms(x, r)
    if expected is None:
        assert quotient is None
    else:
        # Same keys, values and dict order.
        assert list(quotient._terms.items()) == list(expected.items())
    return revived


DIVISION_RINGS = [(PolyZZbar, 2), *((PolyRealN, n) for n in range(1, 5))]


@st.composite
def division_operands(draw):
    """A divisor r, an r*q and an r*q + c*m of one ring."""
    kind, dim = draw(st.sampled_from(DIVISION_RINGS))
    r = build(kind, dim, draw(st.dictionaries(
        st.sampled_from(monomials_real(dim, 2)), coefficients.filter(bool), min_size=1, max_size=4
    )))
    q = build(kind, dim, draw(st.dictionaries(
        st.sampled_from(monomials_real(dim, 3)), coefficients, max_size=6
    )))
    m = build(kind, dim, {draw(st.sampled_from(monomials_real(dim, 4))): draw(
        coefficients.filter(bool)
    )})
    return r, r * q, r * q + m


@settings(max_examples=300, deadline=None)
@given(division_operands())
def test_division_matches_the_term_by_term_reference(operands):
    r, product, perturbed = operands
    for x in (product, perturbed):
        assert_division_matches_reference(x, r)
    assert divide_exact(product, r) is not None


@pytest.mark.parametrize("kind, dim", DIVISION_RINGS)
def test_division_with_a_remainder_key_that_cancels_and_returns(kind, dim):
    """r = x^2 + x + 1 divides (x^2 + x + 1)(x^2 + x - 1) = x^4 + 2x^3 + x^2 - 1.
    The quotient term x^2 cancels the x^2 of the remainder through the
    constant of r, and the next quotient term x brings it back as -x^2."""
    x = build(kind, dim, {(1,) + (0,) * (dim - 1): 1})
    one_ = one(kind, dim)
    r = x * x + x + one_
    q = x * x + x - one_
    assert assert_division_matches_reference(r * q, r)
    assert divide_exact(r * q, r) == q
    for extra in (one_, x * x * Fraction(1, 3), x**3 * GaussianRational(0, 2)):
        assert_division_matches_reference(r * q + extra, r)
        assert divide_exact(r * q + extra, r) is None
