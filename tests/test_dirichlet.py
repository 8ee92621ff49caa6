"""Ellipsoid domains, Fischer systems, exact Dirichlet solutions."""

import itertools
import random
from fractions import Fraction
from functools import partial
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from szegopoly import dirichlet, szego
from szegopoly.dirichlet import (
    fischer_system,
    harmonic_extension,
    harmonic_extension_zzbar,
    is_harmonic,
)
from szegopoly.domains import Ellipse, Ellipsoid
from szegopoly.linalg import det_exact, solve_exact
from szegopoly.parsing import MAX_VARIABLES
from szegopoly.polynomials import (
    PolyRealN,
    PolyZZbar,
    divide_exact,
    monomials_real,
    monomials_zzbar,
    xy_to_zzbar,
    zzbar_to_xy,
)
from szegopoly.rational import GaussianRational, ZERO
from szegopoly.sampling import (
    random_ellipsoid,
    random_harmonic_xy,
    random_holomorphic,
)

X = PolyRealN.variable(2, 0)
Y = PolyRealN.variable(2, 1)


def unit_disc():
    return Ellipse(1, 1).to_ellipsoid()


def unit_ball(n):
    eye = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    return Ellipsoid(dim=n, Q=eye, center=(Fraction(0),) * n)


# -- domain validation ----------------------------------------------------------

def test_defining_poly_of_disc():
    disc = unit_disc()
    r = disc.defining_poly()
    assert r == X * X + Y * Y - PolyRealN.constant(2, 1)
    assert r.degree() == 2
    assert disc.defining_poly() is r  # built once per instance
    assert disc == unit_disc() and hash(disc) == hash(unit_disc())


def test_center_value_is_minus_one():
    e = Ellipsoid(
        dim=2,
        Q=((Fraction(1, 4), Fraction(0)), (Fraction(0), Fraction(1))),
        center=(Fraction(3), Fraction(-2)),
    )
    assert e.defining_poly().evaluate((Fraction(3), Fraction(-2))) == GaussianRational(-1)


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        Ellipsoid(dim=2, Q=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))),
                  center=(Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        Ellipsoid(dim=2, Q=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))),
                  center=(Fraction(0), Fraction(0)))


def test_rejects_dimension_past_the_variable_bound():
    n = MAX_VARIABLES + 1
    # Q is the identity, so only the bound can reject it
    Q = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    with pytest.raises(ValueError, match=f"dimension {n} is past the bound of {MAX_VARIABLES}"):
        Ellipsoid(dim=n, Q=Q, center=(Fraction(0),) * n)


def test_rejects_asymmetric():
    with pytest.raises(ValueError):
        Ellipsoid(dim=2, Q=((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))),
                  center=(Fraction(0), Fraction(0)))


def test_rejects_float_parameters():
    with pytest.raises(TypeError):
        Ellipse(2.0, 1)


def test_ellipse_from_string():
    e = Ellipse.from_string("3/2,1,0,-1/2")
    assert e.a == Fraction(3, 2) and e.k == Fraction(-1, 2)
    assert Ellipse.from_string("2,1") == Ellipse(2, 1)
    with pytest.raises(ValueError):
        Ellipse.from_string("2,1,0")
    with pytest.raises(ValueError):
        Ellipse.from_string("2,oops")


def test_ellipsoid_json_round_trip():
    e = random_ellipsoid(random.Random(3), 3)
    again = Ellipsoid.from_json_dict(e.to_json_dict())
    assert again == e


@pytest.mark.parametrize("field", ["dim", "Q", "center"])
def test_ellipsoid_json_names_a_missing_field(field):
    obj = {"dim": 2, "Q": [1, 0, 0, 1], "center": [0, 0]}
    del obj[field]
    with pytest.raises(ValueError, match=f"no '{field}' field"):
        Ellipsoid.from_json_dict(obj)


def test_planar_convenience_json():
    e = Ellipsoid.from_json_dict({"a": "2", "b": "1", "h": "0", "k": "0"})
    assert e == Ellipse(2, 1).to_ellipsoid()


def test_ellipse_defining_poly_zzbar_matches_real_form():
    e = Ellipse(2, 1, Fraction(1, 2), Fraction(-1, 3))
    assert e.defining_poly_zzbar() == xy_to_zzbar(e.defining_poly_xy())
    # dbar r and d r are conjugate, both degree 1
    assert e.d_r() == e.dbar_r().conjugate()
    assert e.d_r().degree() == 1


def test_centered_ellipse_zzbar_coefficients():
    # r = beta z^2 + gamma z zbar + beta zbar^2 - 1 with
    # beta = (b^2-a^2)/(4a^2b^2), gamma = (a^2+b^2)/(2a^2b^2)
    e = Ellipse(2, 1)
    r = e.defining_poly_zzbar()
    assert r.coefficient(2, 0) == GaussianRational(Fraction(-3, 16))
    assert r.coefficient(1, 1) == GaussianRational(Fraction(5, 8))
    assert r.coefficient(0, 2) == GaussianRational(Fraction(-3, 16))
    assert r.coefficient(0, 0) == GaussianRational(-1)


# -- Fischer systems --------------------------------------------------------------

def dense_matrix(fs):
    """Tests-only: the whole matrix of a graded system, rebuilt from its
    stored blocks and rows."""
    matrix = [[ZERO] * fs.size for _ in range(fs.size)]
    for (start, stop), block in zip(fs.blocks, fs.diagonal):
        for i, row in enumerate(block, start):
            matrix[i][start:stop] = row
    for i, row in enumerate(fs.rows):
        for j, c in row.items():
            matrix[i][j] = c
    return matrix


def block_determinant(fs):
    """Tests-only: the determinant of a graded system, the product of its
    diagonal blocks' determinants."""
    return prod(map(det_exact, fs.diagonal))


def test_fischer_unit_disc_degree_zero():
    fs = fischer_system(unit_disc(), 0)
    assert fs.size == 1
    assert dense_matrix(fs)[0][0] == GaussianRational(4)
    assert block_determinant(fs) == GaussianRational(4)


def test_fischer_unit_disc_degree_one():
    fs = fischer_system(unit_disc(), 1)
    assert fs.size == 3
    assert fs.basis_order == ((0, 0), (0, 1), (1, 0))
    matrix = dense_matrix(fs)
    # Lap(r*x) = 8x and Lap(r*y) = 8y on the unit disc
    for j, alpha in enumerate(fs.basis_order):
        col = [matrix[i][j] for i in range(3)]
        image = (unit_disc().defining_poly() * PolyRealN.monomial(alpha)).laplacian()
        assert col == [image.coefficient(beta) for beta in fs.basis_order]
    assert matrix[1][1] == GaussianRational(8)
    assert matrix[2][2] == GaussianRational(8)


def test_fischer_unit_ball_3d():
    fs = fischer_system(unit_ball(3), 0)
    assert dense_matrix(fs)[0][0] == GaussianRational(6)  # Lap(|x|^2 - 1) = 2n


@settings(max_examples=5, deadline=None)
@given(st.randoms(use_true_random=False))
def test_fischer_determinant_nonzero_up_to_degree_ten(rng):
    for dim in (2, 3):
        e = random_ellipsoid(rng, dim)
        fs = fischer_system(e, 10)
        assert block_determinant(fs)
        assert fs.size == len(fs.basis_order)


# -- harmonic extension -------------------------------------------------------------

def test_harmonic_input_is_fixed():
    for e in (unit_disc(), random_ellipsoid(random.Random(1), 2)):
        assert harmonic_extension(e, X) == X


def test_unit_disc_modulus_squared():
    u = harmonic_extension(unit_disc(), X * X + Y * Y)
    assert u == PolyRealN.constant(2, 1)


def test_ellipse_x_squared():
    # On x^2/4 + y^2 = 1 the data x^2 extends to (4x^2 - 4y^2 + 4)/5.
    e = Ellipse(2, 1).to_ellipsoid()
    u = harmonic_extension(e, X * X)
    expected = (X * X - Y * Y + PolyRealN.constant(2, 1)) * Fraction(4, 5)
    assert u == expected


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        harmonic_extension(unit_ball(3), X)


def test_complex_data_by_linearity():
    e = unit_disc()
    p = (X * X) * GaussianRational(0, 1) + Y  # i x^2 + y
    u = harmonic_extension(e, p)
    assert u.laplacian().is_zero()
    re_part = harmonic_extension(e, Y)
    im_part = harmonic_extension(e, X * X)
    assert u == re_part + im_part * GaussianRational(0, 1)


def test_zzbar_extension_on_ellipse():
    e = Ellipse(2, 1)
    zb = PolyZZbar.var_zbar()
    assert harmonic_extension_zzbar(e, zb) == zb  # already harmonic
    u = harmonic_extension_zzbar(e, PolyZZbar.monomial(1, 1))
    assert u.laplacian().is_zero()
    assert u.degree() <= 2


# -- harmonicity test ------------------------------------------------------------

def test_is_harmonic_examples():
    assert is_harmonic(X * X - Y * Y)
    assert not is_harmonic(PolyZZbar.monomial(1, 1))
    assert is_harmonic(X**3 - X * Y * Y * 3)  # Re z^3
    assert is_harmonic(PolyZZbar.var_z() ** 5)
    assert is_harmonic(PolyRealN.zero(3))


# -- native z/zbar path against the x/y oracle ---------------------------------------

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
positive_rationals = st.fractions(
    min_value=Fraction(1, 4), max_value=5, max_denominator=4
)
ellipses = st.builds(
    Ellipse, positive_rationals, positive_rationals, small_rationals, small_rationals
)
coefficients = st.builds(GaussianRational, small_rationals, small_rationals)


@st.composite
def zzbar_polys(draw, max_degree=8):
    degree = draw(st.integers(0, max_degree))
    keys = draw(st.lists(st.sampled_from(monomials_zzbar(degree)), unique=True))
    return PolyZZbar({key: draw(coefficients) for key in keys})


@settings(max_examples=60, deadline=None)
@given(ellipses)
def test_native_defining_poly_zzbar_matches_xy_oracle(e):
    assert e.defining_poly_zzbar() == xy_to_zzbar(e.defining_poly_xy())
    assert e.d_r() == e.defining_poly_zzbar().d_dz()
    assert e.dbar_r() == e.d_r().conjugate()


@settings(max_examples=25, deadline=None)
@given(ellipses, zzbar_polys())
def test_native_harmonic_extension_zzbar_matches_xy_oracle(e, p):
    oracle = xy_to_zzbar(harmonic_extension(e.to_ellipsoid(), zzbar_to_xy(p)))
    assert harmonic_extension_zzbar(e, p) == oracle


def test_fischer_system_on_ellipse_uses_zzbar_basis():
    e = Ellipse(2, 1, Fraction(1, 3), Fraction(-1, 2))
    fs = fischer_system(e, 3)
    assert list(fs.basis_order) == monomials_zzbar(3)
    assert block_determinant(fs)
    # column j is the image Lap(r * z^a zbar^b) of the j-th basis monomial
    r = e.defining_poly_zzbar()
    matrix = dense_matrix(fs)
    for j, (a, b) in enumerate(fs.basis_order):
        image = (r * PolyZZbar.monomial(a, b)).laplacian()
        assert [matrix[i][j] for i in range(fs.size)] == [
            image.coefficient(*key) for key in fs.basis_order
        ]



# -- graded back-substitution against dense oracles -----------------------------------

ellipsoids = st.builds(
    random_ellipsoid, st.randoms(use_true_random=False), st.sampled_from([2, 3])
)


@st.composite
def real_polys(draw, dim, max_degree):
    degree = draw(st.integers(0, max_degree))
    keys = draw(
        st.lists(st.sampled_from(monomials_real(dim, degree)), unique=True, max_size=12)
    )
    return PolyRealN(dim, {key: draw(coefficients) for key in keys})


@st.composite
def ellipsoids_and_polys(draw, max_degree, count=1):
    e = draw(ellipsoids)
    return e, *(draw(real_polys(e.dim, max_degree)) for _ in range(count))


def dense_extension(domain, r, p):
    """Tests-only oracle: q from one dense solve of the whole Fischer matrix."""
    if p.degree() < 2:
        return p
    fs = fischer_system(domain, p.degree() - 2)
    g = dict(p.laplacian().terms())
    x = solve_exact(dense_matrix(fs), [g.get(alpha, ZERO) for alpha in fs.basis_order])
    terms = dict(zip(fs.basis_order, x))
    q = PolyZZbar(terms) if isinstance(p, PolyZZbar) else PolyRealN(p.dim, terms)
    return p - r * q


@settings(max_examples=25, deadline=None)
@given(ellipses, zzbar_polys(max_degree=7))
def test_zzbar_extension_matches_dense_solve(e, p):
    expected = dense_extension(e, e.defining_poly_zzbar(), p)
    assert harmonic_extension_zzbar(e, p) == expected


@settings(max_examples=25, deadline=None)
@given(ellipsoids_and_polys(max_degree=7))
def test_real_extension_matches_dense_solve(case):
    e, p = case
    assert harmonic_extension(e, p) == dense_extension(e, e.defining_poly(), p)


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize(
    "build",
    [
        partial(fischer_system, Ellipse(2, 1, Fraction(1, 3), Fraction(-1, 2))),
        partial(fischer_system, random_ellipsoid(random.Random(35), 2)),
        partial(fischer_system, random_ellipsoid(random.Random(36), 3)),
        partial(szego._square_system, Ellipse(2, 1, Fraction(1, 3), Fraction(-1, 2))),
    ],
    ids=["ellipse", "ellipsoid2", "ellipsoid3", "szego"],
)
def test_block_determinant_is_the_dense_determinant(build, m):
    system = build(m)
    assert block_determinant(system) == det_exact(dense_matrix(system))
    assert len(system.blocks) == m + 1
    assert system.blocks[0][0] == 0 and system.blocks[-1][1] == system.size
    for d, (start, stop) in enumerate(system.blocks):
        assert [sum(alpha) for alpha in system.basis_order[start:stop]] == [d] * (stop - start)
        # the sparse rows of degree d hold only columns of higher degree, and
        # only nonzero entries
        for row in system.rows[start:stop]:
            assert all(j >= stop and c for j, c in row.items())


def _no_fischer_system(domain, m):
    raise AssertionError(f"a Fischer system was built (m = {m})")


@settings(max_examples=30, deadline=None)
@given(ellipses, st.randoms(use_true_random=False))
def test_harmonic_input_is_returned_without_a_system(e, rng):
    f = random_holomorphic(rng, 8) + random_holomorphic(rng, 8).conjugate()
    u = random_harmonic_xy(rng, 8)
    x1, x2, x3 = (PolyRealN.variable(3, axis) for axis in range(3))
    w = x1 * x2 * x3 + x1 * x1 - x3 * x3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirichlet, "fischer_system", _no_fischer_system)
        assert harmonic_extension_zzbar(e, f) == f
        assert harmonic_extension(e.to_ellipsoid(), u) == u
        assert harmonic_extension(unit_ball(3), w) == w


def _sympy_extension(e: Ellipsoid, p: PolyRealN) -> PolyRealN:
    """Tests-only oracle: solve Lap(r*q) = Lap(p) for the coefficients of q
    in sympy Rationals, with r written out from Q and the center."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{e.dim}")

    def rational(value):
        return sympy.Rational(value.numerator, value.denominator)

    def monomial(alpha):
        return sympy.Mul(*(x**k for x, k in zip(xs, alpha)))

    def laplacian(expr):
        return sum(sympy.diff(expr, x, 2) for x in xs)

    data = sum(
        (rational(c.re) + sympy.I * rational(c.im)) * monomial(alpha)
        for alpha, c in p.terms()
    )
    shifted = [x - rational(c) for x, c in zip(xs, e.center)]
    r = sum(
        rational(e.Q[i][j]) * shifted[i] * shifted[j]
        for i in range(e.dim)
        for j in range(e.dim)
    ) - 1
    alphas = [
        alpha
        for alpha in itertools.product(range(p.degree() - 1), repeat=e.dim)
        if sum(alpha) <= p.degree() - 2
    ]
    unknowns = sympy.symbols(f"c0:{len(alphas)}")
    q = sum((c * monomial(alpha) for c, alpha in zip(unknowns, alphas)), sympy.Integer(0))
    residual = sympy.expand(laplacian(r * q) - laplacian(data))
    if alphas:
        (solution,) = sympy.solve(sympy.Poly(residual, *xs).coeffs(), unknowns, dict=True)
        q = q.subs(solution)
    u = sympy.Poly(sympy.expand(data - r * q), *xs)
    terms = {}
    for alpha, c in u.terms():
        re, im = c.as_real_imag()
        terms[alpha] = GaussianRational(
            Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))
        )
    return PolyRealN(e.dim, terms)


@settings(max_examples=20, deadline=None)
@given(ellipsoids_and_polys(max_degree=4))
def test_extension_matches_sympy(case):
    e, p = case
    assert harmonic_extension(e, p) == _sympy_extension(e, p)


@settings(max_examples=30, deadline=None)
@given(ellipsoids_and_polys(max_degree=8))
def test_extension_exactness_random(case):
    e, p = case
    u = harmonic_extension(e, p)
    assert u.laplacian().is_zero()
    assert u.degree() <= p.degree()
    assert divide_exact(p - u, e.defining_poly()) is not None


@settings(max_examples=25, deadline=None)
@given(ellipsoids_and_polys(max_degree=6, count=2), coefficients, coefficients)
def test_extension_is_linear(case, alpha, beta):
    e, p, q = case
    lhs = harmonic_extension(e, p * alpha + q * beta)
    rhs = harmonic_extension(e, p) * alpha + harmonic_extension(e, q) * beta
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(ellipsoids_and_polys(max_degree=6))
def test_extension_idempotent(case):
    e, p = case
    u = harmonic_extension(e, p)
    assert harmonic_extension(e, u) == u
