"""Exact weighted Szego projection: operator, kernel, decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import szegopoly
from szegopoly import dirichlet, szego
from szegopoly.domains import Ellipse
from szegopoly.linalg import graded_system, solve_exact
from szegopoly.polynomials import PolyZZbar, monomials_zzbar
from szegopoly.rational import GaussianRational
from szegopoly.sampling import (
    random_coefficient,
    random_holomorphic,
    random_poly_zzbar,
)
from szegopoly.szego import (
    SzegoDecomposition,
    kernel_membership,
    operator_A,
    szego_project,
    verify_decomposition,
)

Z = PolyZZbar.var_z()
ZB = PolyZZbar.var_zbar()
E21 = Ellipse(2, 1)
DISC = Ellipse(1, 1)


small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
semi_axes = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3)


@st.composite
def ellipses(draw, kinds=("disc", "centred", "shifted")):
    """A disc, a centred ellipse or a shifted one, with rational parameters;
    `kinds` narrows the draw to some of the three."""
    a = draw(semi_axes)
    kind = draw(st.sampled_from(kinds))
    b = a if kind == "disc" else draw(semi_axes)
    if kind == "centred":
        return Ellipse(a, b)
    return Ellipse(a, b, draw(small_rationals), draw(small_rationals))


# -- operator A -------------------------------------------------------------------

def test_operator_kills_holomorphic():
    assert operator_A(E21, Z**3).is_zero()
    assert operator_A(E21, PolyZZbar.constant(5)).is_zero()


def test_operator_on_zbar_eccentric():
    # dbar E(zbar) = 1, so A(zbar) = d r = -(3/8) z + (5/8) zbar on the 2x1 ellipse
    expected = Z * Fraction(-3, 8) + ZB * Fraction(5, 8)
    assert operator_A(E21, ZB) == expected


def test_operator_on_zbar_disc():
    # r = z zbar - 1 on the unit disc, so d r = zbar
    assert operator_A(DISC, ZB) == ZB


@settings(max_examples=25, deadline=None)
@given(ellipses(), st.randoms(use_true_random=False))
def test_operator_degree_non_increasing(e, rng):
    p = random_poly_zzbar(rng, rng.randint(0, 6))
    assert operator_A(e, p).degree() <= p.degree()


@settings(max_examples=25, deadline=None)
@given(ellipses(), st.randoms(use_true_random=False))
def test_operator_output_structure(e, rng):
    # A(p) = (d r) * (antiholomorphic polynomial)
    from szegopoly.polynomials import divide_exact

    p = random_poly_zzbar(rng, 5)
    factor = divide_exact(operator_A(e, p), e.d_r())
    assert factor is not None
    assert factor.conjugate().is_holomorphic()


def _wide_decomposition(e, f, N):
    """Tests-only reference: (h, p, q) from the wide system of degree N, whose
    columns are z^k, operator_A on every monomial, and r times every monomial
    of degree <= N - 2, solved densely with the free unknowns set to zero."""
    r = e.defining_poly_zzbar()
    rows = monomials_zzbar(N)
    q_monos = monomials_zzbar(N - 2)
    columns = [PolyZZbar.monomial(k, 0) for k in range(N + 1)]
    columns += [operator_A(e, PolyZZbar.monomial(a, b)) for a, b in rows]
    columns += [r * PolyZZbar.monomial(a, b) for a, b in q_monos]
    matrix = [[column.coefficient(a, b) for column in columns] for a, b in rows]
    x = solve_exact(matrix, [f.coefficient(a, b) for a, b in rows])
    n_h, n_p = N + 1, len(rows)
    return (
        PolyZZbar({(k, 0): x[k] for k in range(n_h)}),
        PolyZZbar(dict(zip(rows, x[n_h : n_h + n_p]))),
        PolyZZbar(dict(zip(q_monos, x[n_h + n_p :]))),
    )


@settings(max_examples=30, deadline=None)
@given(ellipses(), st.integers(0, 5), st.integers(0, 2), st.randoms(use_true_random=False))
def test_square_system_solution_is_the_wide_system_solution(e, degree, padding, rng):
    f = random_poly_zzbar(rng, degree)
    N = max(f.degree(), 0) + padding
    d = szego_project(e, f, ambient_degree=N)
    assert (d.projection, d.preimage, d.cofactor) == _wide_decomposition(e, f, N)


# -- kernel -----------------------------------------------------------------------

def test_kernel_contains_holomorphic():
    assert kernel_membership(E21, Z**5)


def test_kernel_contains_boundary_vanishing():
    r = E21.defining_poly_zzbar()
    assert kernel_membership(E21, r * (ZB + PolyZZbar.constant(1)))


def test_zbar_not_in_kernel():
    assert not kernel_membership(E21, ZB)


@settings(max_examples=25, deadline=None)
@given(ellipses(), st.randoms(use_true_random=False))
def test_kernel_matches_operator_vanishing(e, rng):
    r = e.defining_poly_zzbar()
    g = random_holomorphic(rng, 6)
    q = random_poly_zzbar(rng, 4)
    member = g + r * q
    assert kernel_membership(e, member)
    assert operator_A(e, member).is_zero()
    f = random_poly_zzbar(rng, rng.randint(1, 6))
    assert kernel_membership(e, f) == operator_A(e, f).is_zero()


def _direct_membership(e, p):
    """Tests-only reference: solve p = g + r*q on the coefficients of p."""
    N = max(p.degree(), 0)
    r = e.defining_poly_zzbar()
    columns = [PolyZZbar.monomial(k, 0) for k in range(N + 1)]
    columns += [r * PolyZZbar.monomial(a, b) for a, b in monomials_zzbar(N - 2)]
    rows = monomials_zzbar(N)
    matrix = [[col.coefficient(a, b) for col in columns] for a, b in rows]
    return solve_exact(matrix, [p.coefficient(a, b) for a, b in rows]) is not None


KERNEL_ELLIPSES = [
    E21,
    Ellipse(2, 1, Fraction(1, 3), Fraction(-1, 2)),
    Ellipse(1, 1, Fraction(1, 2), -1),
    Ellipse(Fraction(7, 3), Fraction(1, 5), -2, 3),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_ELLIPSES), st.integers(0, 2**32), st.booleans())
def test_kernel_membership_matches_direct_solve(e, seed, member):
    rng = random.Random(seed)
    if member:
        p = random_holomorphic(rng, 5) + e.defining_poly_zzbar() * random_poly_zzbar(rng, 3)
    else:
        p = random_poly_zzbar(rng, rng.randint(0, 5))
    expected = _direct_membership(e, p)
    assert kernel_membership(e, p) == expected
    assert expected or not member


# -- projection -------------------------------------------------------------------

def test_holomorphic_fixed_points():
    for k in range(6):
        d = szego_project(E21, Z**k)
        assert d.projection == Z**k


def test_zbar_closed_form():
    for a, b in ((2, 1), (3, 2), (5, 4), (1, 1)):
        e = Ellipse(a, b)
        coef = Fraction(a * a - b * b, a * a + b * b)
        d = szego_project(e, ZB)
        assert d.projection == PolyZZbar({(1, 0): coef})


@settings(max_examples=20, deadline=None)
@given(ellipses(), st.integers(0, 6), st.randoms(use_true_random=False))
def test_decomposition_identity_exact(e, degree, rng):
    r = e.defining_poly_zzbar()
    f = random_poly_zzbar(rng, degree)
    d = szego_project(e, f)
    recomposed = d.projection + operator_A(e, d.preimage) + r * d.cofactor
    assert recomposed == f
    assert d.projection.is_holomorphic()
    assert d.projection.degree() <= f.degree()
    assert d.preimage.degree() <= d.N
    if d.N >= 2:
        assert d.cofactor.degree() <= d.N - 2
    else:
        assert d.cofactor.is_zero()


@settings(max_examples=25, deadline=None)
@given(ellipses(), st.randoms(use_true_random=False))
def test_projection_linear(e, rng):
    f1 = random_poly_zzbar(rng, 6)
    f2 = random_poly_zzbar(rng, 6)
    alpha = random_coefficient(rng)
    beta = random_coefficient(rng)
    lhs = szego_project(e, f1 * alpha + f2 * beta).projection
    rhs = (
        szego_project(e, f1).projection * alpha
        + szego_project(e, f2).projection * beta
    )
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(ellipses(), st.randoms(use_true_random=False))
def test_projection_independent_of_ambient_degree(e, rng):
    f = random_poly_zzbar(rng, 4)
    base = szego_project(e, f).projection
    padded = szego_project(e, f, ambient_degree=8).projection
    assert base == padded


def test_ambient_degree_below_input_rejected():
    with pytest.raises(ValueError):
        szego_project(E21, Z**4, ambient_degree=2)


@settings(max_examples=10, deadline=None)
@given(ellipses(), st.randoms(use_true_random=False))
def test_projection_idempotent(e, rng):
    g = random_holomorphic(rng, 6)
    assert szego_project(e, g).projection == g


def test_constant_input():
    c = PolyZZbar.constant(GaussianRational(2, -3))
    d = szego_project(E21, c)
    assert d.projection == c
    assert d.N == 0


def test_zero_input():
    d = szego_project(E21, PolyZZbar.zero())
    assert d.projection.is_zero()
    assert verify_decomposition(d, E21).passed


def test_disc_uses_same_code_path():
    d = szego_project(DISC, ZB)
    assert d.projection.is_zero()
    d2 = szego_project(DISC, Z * ZB)
    # On the unit disc z zbar = 1 + r, so the projection is the constant 1.
    assert d2.projection == PolyZZbar.constant(1)


@settings(max_examples=10, deadline=None)
@given(ellipses(kinds=("shifted",)), st.randoms(use_true_random=False))
def test_shifted_ellipse_projection_verifies(e, rng):
    f = random_poly_zzbar(rng, 5)
    d = szego_project(e, f)
    assert verify_decomposition(d, e).passed


# -- certificate -------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(ellipses(), st.randoms(use_true_random=False))
def test_verify_passes_on_solver_output(e, rng):
    f = random_poly_zzbar(rng, 6)
    d = szego_project(e, f)
    cert = verify_decomposition(d, e)
    assert cert.passed
    assert cert.residual.is_zero()


def test_verify_detects_tampered_projection():
    d = szego_project(E21, ZB)
    tampered = SzegoDecomposition(
        input=d.input,
        projection=d.projection + ZB,
        preimage=d.preimage,
        cofactor=d.cofactor,
        N=d.N,
    )
    cert = verify_decomposition(tampered, E21)
    assert not cert.passed
    assert not cert.checks["residual_zero"]
    assert not cert.checks["projection_holomorphic"]


def _residual_by_ring_arithmetic(d, e):
    return d.input - d.projection - operator_A(e, d.preimage) - e.defining_poly_zzbar() * d.cofactor


@settings(max_examples=25, deadline=None)
@given(
    ellipses(kinds=("disc", "shifted")),
    st.integers(0, 6),
    st.sampled_from(["projection", "preimage", "cofactor", None]),
    st.randoms(use_true_random=False),
)
def test_residual_is_the_chained_ring_arithmetic(e, degree, part, rng):
    """verify_decomposition's one-pass residual against f - h - A(p) - r*q,
    on the solver's decomposition and on ones with h, p or q tampered."""
    d = szego_project(e, random_poly_zzbar(rng, degree))
    if part is not None:
        nudge = random_poly_zzbar(rng, max(degree, 1)) or ZB
        fields = dict(input=d.input, projection=d.projection, preimage=d.preimage,
                      cofactor=d.cofactor, N=d.N)
        fields[part] = fields[part] + nudge
        d = SzegoDecomposition(**fields)
    cert = verify_decomposition(d, e)
    expected = _residual_by_ring_arithmetic(d, e)
    assert cert.residual == expected
    assert cert.checks["residual_zero"] is expected.is_zero()
    reference = szego.DecompositionCertificate(checks=cert.checks, residual=expected)
    assert cert.to_json_dict() == reference.to_json_dict()


def test_residual_product_past_the_exponent_bound_raises():
    # As r * q does: no key past the 32-bit bound enters the residual.
    d = SzegoDecomposition(
        input=PolyZZbar.zero(), projection=PolyZZbar.zero(), preimage=PolyZZbar.zero(),
        cofactor=PolyZZbar.monomial(2**31 - 1, 0), N=2,
    )
    with pytest.raises(OverflowError, match="exponent 2147483649 exceeds the 32-bit bound"):
        verify_decomposition(d, E21)


def test_verify_detects_degree_violation():
    d = szego_project(E21, ZB)
    tampered = SzegoDecomposition(
        input=d.input,
        projection=d.projection + Z**5,
        preimage=d.preimage,
        cofactor=d.cofactor,
        N=d.N,
    )
    cert = verify_decomposition(tampered, E21)
    assert not cert.checks["projection_degree"]
    assert not cert.checks["residual_zero"]


# -- the square system -----------------------------------------------------------------

def _square_system_by_ring_products(e, N):
    """The Szego system with each column a ring product of monomials."""
    d_r, r = e.d_r(), e.defining_poly_zzbar()

    def column(part, key):
        if part == 0:
            return PolyZZbar.monomial(*key)
        if part == 1:  # A(zbar^k) = k * (d r) * zbar^(k-1)
            return d_r * PolyZZbar.monomial(0, key[1] - 1, key[1])
        return r * PolyZZbar.monomial(*key)

    images = (column(part, key)._terms for part, key in szego._unknowns(N))
    return graded_system(monomials_zzbar(N), images)


@settings(max_examples=25, deadline=None)
@given(ellipses(kinds=("disc", "shifted")), st.integers(0, 8))
def test_square_system_columns_are_the_ring_products(e, N):
    assert szego._square_system.__wrapped__(e, N) == _square_system_by_ring_products(e, N)


# -- caches ---------------------------------------------------------------------------

def _no_fischer_system(domain, m):
    raise AssertionError(f"a Fischer system was built (m = {m})")


def test_clear_caches_empties_every_cache_and_projection_refills_them(monkeypatch):
    e = Ellipse(3, 2, Fraction(1, 3), Fraction(-2, 3))
    f = ZB**3 + Z * ZB
    first = szego_project(e, f)
    assert szego._square_system.cache_info().currsize

    szegopoly.clear_caches()
    assert szego._square_system.cache_info().currsize == 0

    # the square system and its certificate need no Fischer system
    monkeypatch.setattr(dirichlet, "fischer_system", _no_fischer_system)
    again = szego_project(e, f)
    assert again == first
    szego._square_system(e, 3)
    info = szego._square_system.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert verify_decomposition(again, e).passed


@pytest.mark.parametrize(
    "kwargs", [{}, {"ambient_degree": 5}, {"ambient_degree": 6}]
)
def test_cached_projection_equals_cold_projection(kwargs):
    e = Ellipse(5, 4, Fraction(1, 3), Fraction(2, 3))
    f = ZB**4 + Fraction(1, 2) * Z**2 * ZB - 3 * Z
    szegopoly.clear_caches()
    cold = szego_project(e, f, **kwargs)
    system = szego._square_system(e, cold.N)

    cached = szego_project(e, f, **kwargs)
    assert cached == cold
    assert szego._square_system(e, cold.N) is system
    info = szego._square_system.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)
    assert verify_decomposition(cached, e).passed


def test_caches_are_bounded_and_evict_least_recently_used():
    szegopoly.clear_caches()
    bound = szego._square_system.cache_info().maxsize
    e1, e2, *rest = (Ellipse(2, 1, Fraction(k, 3), 0) for k in range(bound + 1))
    f = ZB**2

    szego_project(e1, f)
    system = szego._square_system(e1, 2)
    szego_project(e2, f)
    szego_project(e1, f)  # e1 is now the most recently used
    for e in rest:  # one system past the bound evicts e2, the least recently used
        szego_project(e, f)
    info = szego._square_system.cache_info()
    assert (info.currsize, info.misses, info.hits) == (bound, bound + 1, 2)
    assert szego._square_system(e1, 2) is system
    szego_project(e2, f)
    assert szego._square_system.cache_info().misses == bound + 2
