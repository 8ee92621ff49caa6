"""Numerical harness: grids, inner products, projections, experiments."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import szegopoly
from szegopoly import boundary
from szegopoly.boundary import (
    area_quadrature,
    bergman_residual_orthogonality,
    boundary_grid,
    compare_symbolic_numeric,
    ellipse_floats,
    harmonic_szego_bergman_check,
    holomorphic_coeffs_in_scaled_basis,
    inner_product,
    matched_disc_floor,
    numerical_bergman,
    numerical_szego,
    poly_values,
    szbar_constancy_experiment,
)
from szegopoly.domains import Ellipse
from szegopoly.polynomials import PolyRealN, PolyZZbar, xy_to_zzbar
from szegopoly.rational import GaussianRational
from szegopoly.sampling import (
    random_coefficient,
    random_holomorphic,
    random_poly_zzbar,
    unit_box_coefficient,
)
from szegopoly.szego import szego_project

Z = PolyZZbar.var_z()
ZB = PolyZZbar.var_zbar()
E21 = Ellipse(2, 1)
DISC = Ellipse(1, 1)

# Perimeter of the 2x1 ellipse, 8*E(3/4); pinned from a high-M trapezoid run
# that agrees with the complete-elliptic-integral value.
PERIMETER_21 = 9.688448220547675


# -- grids ------------------------------------------------------------------------

def test_grid_nodes_on_unit_circle():
    g = boundary_grid(DISC, 16, weighted=False)
    # first node at angle 0, quarter turn at index 4
    assert g.z[0] == pytest.approx(1.0)
    assert g.z[4] == pytest.approx(1j)
    assert g.z[8] == pytest.approx(-1.0)
    assert np.allclose(g.ds, 2 * np.pi / 16)
    assert np.allclose(g.omega, 1.0)
    # unit tangent is i*z on the unit circle
    assert np.allclose(g.tangent, 1j * g.z)


def test_grid_tangent_is_unit():
    g = boundary_grid(E21, 64)
    assert np.allclose(np.abs(g.tangent), 1.0)


def test_grid_weight_positive_and_matches_gradient():
    g = boundary_grid(E21, 64, weighted=True)
    assert np.all(g.omega > 0)
    # at t=0: z = 2, dbar r = (x/a^2) = 1/2, so omega = 2
    assert g.omega[0] == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(*[st.integers(1, 9)] * 4),
    st.sampled_from([16, 64, 1024]),
)
@example((7, 1, 1, -1), (3, 9, 3, 2), 1024)
def test_weighted_measure_is_ab_dt(numerators, denominators, M):
    # For r = (x-h)^2/a^2 + (y-k)^2/b^2 - 1, |dbar r| = |dz/dt|/(ab) on the
    # boundary, so dsigma/|dbar r| = a*b*dt at every node.
    e = Ellipse(*map(Fraction, numerators, denominators))
    g = boundary_grid(e, M)
    np.testing.assert_allclose(g.omega * g.ds, float(e.a * e.b) * 2 * np.pi / M, rtol=1e-12)


@pytest.mark.parametrize(
    "e",
    [
        Ellipse(Fraction(10**400), 1),
        Ellipse(1, 1, Fraction(10**400)),
        Ellipse(Fraction(10**200), Fraction(10**200)),
        Ellipse(Fraction(1, 10**300), 1),
        Ellipse(1, Fraction(1, 10**400)),
        Ellipse(1, 1, Fraction(10**308)),
        Ellipse(1, 1, 0, -(2**51)),
    ],
)
def test_ellipses_out_of_double_range_are_refused(e):
    with pytest.raises(ValueError, match="out of double range"):
        ellipse_floats(e)
    with pytest.raises(ValueError, match="out of double range"):
        boundary_grid(e, 16)
    with pytest.raises(ValueError, match="out of double range"):
        area_quadrature(e, 4)


def test_ellipse_floats_are_the_rounded_parameters():
    e = Ellipse(Fraction(1, 9), Fraction(7, 3), Fraction(-1, 6), 2**49)
    assert ellipse_floats(e) == (1 / 9, 7 / 3, -1 / 6, 2.0**49)
    assert ellipse_floats(Ellipse(Fraction(10**150), Fraction(1, 10**150))) == (1e150, 1e-150, 0, 0)


def test_grid_rejects_bad_node_counts():
    with pytest.raises(ValueError):
        boundary_grid(DISC, 8)
    with pytest.raises(ValueError):
        boundary_grid(DISC, 17)


def test_fit_sizes_are_bounded():
    with pytest.raises(ValueError, match="MAX_NODES"):
        boundary_grid(E21, boundary.MAX_NODES + 2)
    order = math.isqrt(boundary.MAX_NODES)
    assert area_quadrature(E21, order)[0].shape == (order**2,)
    with pytest.raises(ValueError, match="MAX_NODES"):
        area_quadrature(E21, order + 1)
    grid = boundary_grid(E21, boundary.MAX_NODES)
    widest = boundary.MAX_BASIS_CELLS // boundary.MAX_NODES - 1
    with pytest.raises(ValueError, match="MAX_BASIS_CELLS"):
        numerical_szego(grid, Z, widest + 1)
    with pytest.raises(ValueError, match="MAX_BASIS_CELLS"):
        numerical_bergman(E21, Z, widest + 1, order)


def test_perimeter_value_and_convergence():
    values = {M: boundary_grid(E21, M).perimeter() for M in (64, 128, 256, 1024, 8192)}
    assert values[1024] == pytest.approx(PERIMETER_21, abs=1e-12)
    assert abs(values[1024] - values[8192]) < 1e-12
    # spectral convergence: each doubling gains >1e2 until the float floor
    e64 = abs(values[64] - values[8192])
    e128 = abs(values[128] - values[8192])
    assert e64 < 1e-10  # already at/near the floor for this smooth integrand


def test_quadrature_spectral_convergence_nontrivial_integrand():
    # <f, 1> for f = z zbar on the 2x1 boundary; errors vs M=2048 shrink by
    # factors > 1e2 per doubling until the float floor.
    f = PolyZZbar.monomial(1, 1)
    reference = None
    errors = {}
    for M in (64, 128, 256, 2048):
        g = boundary_grid(E21, M, weighted=False)
        val = inner_product(poly_values(f, g.z), np.ones(M), g)
        if M == 2048:
            reference = val
        else:
            errors[M] = val
    floor = 1e-13 * abs(reference)
    prev = None
    for M in (64, 128, 256):
        err = abs(errors[M] - reference)
        if prev is not None and prev > floor:
            assert err < prev / 1e2 or err < floor
        prev = err


# -- inner products ------------------------------------------------------------------

def test_inner_product_examples_unit_circle():
    g = boundary_grid(DISC, 256, weighted=False)
    one = np.ones(256)
    assert inner_product(one, one, g) == pytest.approx(2 * np.pi, rel=1e-12)
    assert abs(inner_product(g.z, np.conj(g.z), g)) < 1e-12
    assert inner_product(g.z, g.z, g) == pytest.approx(2 * np.pi, rel=1e-12)


def test_inner_product_length_mismatch():
    g = boundary_grid(DISC, 16)
    with pytest.raises(ValueError):
        inner_product(np.ones(8), np.ones(16), g)


# -- numerical Szego projection -------------------------------------------------------

def test_szego_zbar_on_unit_circle_vanishes():
    g = boundary_grid(DISC, 256, weighted=False)
    proj = numerical_szego(g, lambda z: np.conj(z), 8)
    assert np.max(np.abs(proj.coefficients)) < 1e-12


def test_szego_zbar_on_shifted_disc_is_center_conjugate():
    g = boundary_grid(Ellipse(1, 1, 1, 0), 256, weighted=False)
    proj = numerical_szego(g, lambda z: np.conj(z), 8)
    assert proj.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(proj.coefficients[1:])) < 1e-12


def test_szego_weighted_zbar_matches_exact():
    g = boundary_grid(E21, 1024, weighted=True)
    proj = numerical_szego(g, ZB, 12)
    # exact projection is (3/5) z = (6/5) phi_1 in the scale-2 basis
    expected = np.zeros(13, dtype=complex)
    expected[1] = 1.2
    assert np.max(np.abs(proj.coefficients - expected)) < 1e-10


def test_szego_recovers_member_of_span():
    g = boundary_grid(E21, 256, weighted=True)
    f = Z**3 - Z * 2 + PolyZZbar.constant(1)
    proj = numerical_szego(g, f, 8)
    exact = holomorphic_coeffs_in_scaled_basis(f, E21, 8)
    assert np.max(np.abs(proj.coefficients - exact)) < 1e-12


def test_szego_projection_idempotent():
    g = boundary_grid(E21, 512, weighted=True)
    proj = numerical_szego(g, ZB * Z, 10)
    again = numerical_szego(g, lambda z: proj.evaluate(z), 10)
    assert np.max(np.abs(proj.coefficients - again.coefficients)) < 1e-12


def test_szego_residual_orthogonal_to_basis():
    g = boundary_grid(E21, 512, weighted=True)
    rng = random.Random(61)
    f = random_poly_zzbar(rng, 5, coefficient=unit_box_coefficient)
    proj = numerical_szego(g, f, 10)
    resid = poly_values(f, g.z) - proj.evaluate(g.z)
    fnorm = math.sqrt(abs(inner_product(poly_values(f, g.z), poly_values(f, g.z), g)))
    scale_w = (g.z - proj.center) / proj.scale
    for k in range(11):
        ip = inner_product(resid, scale_w**k, g)
        assert abs(ip) < 1e-10 * max(fnorm, 1.0)


def test_szego_symmetry_even_coefficients_vanish():
    # z -> -z preserves a centered ellipse; only odd modes survive for zbar
    for weighted in (False, True):
        g = boundary_grid(E21, 512, weighted=weighted)
        proj = numerical_szego(g, lambda z: np.conj(z), 10)
        even = proj.coefficients[0::2]
        assert np.max(np.abs(even)) < 1e-12


def test_weighted_and_unweighted_differ_on_eccentric():
    gw = boundary_grid(E21, 512, weighted=True)
    gu = boundary_grid(E21, 512, weighted=False)
    pw = numerical_szego(gw, ZB, 10).coefficients
    pu = numerical_szego(gu, ZB, 10).coefficients
    assert np.max(np.abs(pw - pu)) > 1e3 * 1e-13


def test_szego_oversampling_guard():
    g = boundary_grid(DISC, 16)
    with pytest.raises(ValueError):
        numerical_szego(g, ZB, 12)


def test_condition_warning_attached_when_ill_conditioned():
    g = boundary_grid(Ellipse(8, Fraction(1, 8)), 512, weighted=False)
    proj = numerical_szego(g, ZB, 60)
    assert proj.condition_estimate > 1e10
    assert proj.warning is not None


# -- Bergman projection ------------------------------------------------------------------

def test_bergman_disc_values():
    proj = numerical_bergman(DISC, PolyZZbar.monomial(1, 1), 6)
    assert proj.coefficients[0] == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(proj.coefficients[1:])) < 1e-12
    proj2 = numerical_bergman(DISC, ZB, 6)
    assert np.max(np.abs(proj2.coefficients)) < 1e-12


def test_bergman_zbar_squared_on_eccentric():
    # derived exactly from the area moments: B(zbar^2) = 48/91 + (27/91) z^2
    proj = numerical_bergman(E21, ZB**2, 6)
    expected = np.zeros(7, dtype=complex)
    expected[0] = 48 / 91
    expected[2] = 4 * 27 / 91  # z^2 = 4 phi_2 at scale 2
    assert np.max(np.abs(proj.coefficients - expected)) < 1e-12
    assert bergman_residual_orthogonality(E21, ZB**2, proj) < 1e-10


def test_bergman_quadrature_order_guard():
    with pytest.raises(ValueError):
        numerical_bergman(E21, ZB, basis_degree=12, quad_order=16)
    # A correct projection read through too coarse a rule looks far from
    # orthogonal (0.70 at order 12), so the check shares numerical_bergman's
    # minimum order: 2 * (8 + 3) + 4 = 26 here.
    f = ZB**3 + Z * ZB
    proj = numerical_bergman(E21, f, 8)
    assert bergman_residual_orthogonality(E21, f, proj) < 1e-13
    for order in (12, 6, 0):
        with pytest.raises(ValueError, match="quadrature order"):
            bergman_residual_orthogonality(E21, f, proj, quad_order=order)
        with pytest.raises(ValueError, match="quadrature order"):
            numerical_bergman(E21, f, 8, quad_order=order)


def test_bergman_fit_at_the_minimum_order_checks_at_a_finer_one():
    # From the minimum order on, the area rule is exact on every product, so
    # a fit at order 26 reads as orthogonal at order 48 too.
    f = ZB**3 + Z * ZB
    proj = numerical_bergman(E21, f, 8, quad_order=26)
    assert bergman_residual_orthogonality(E21, f, proj, quad_order=48) < 1e-12
    assert bergman_residual_orthogonality(E21, f, proj, quad_order=30) < 1e-12


def test_bergman_orthogonality_reads_a_nudged_projection():
    # The check evaluates the projection it is given, so one coefficient
    # moved by 1e-3 shows, though the fit itself is orthogonal to 1e-13.
    f = ZB**3 + Z * ZB
    proj = numerical_bergman(E21, f, 8)
    assert bergman_residual_orthogonality(E21, f, proj) < 1e-13
    for k in (0, 1, 4, 8):
        coefficients = proj.coefficients.copy()
        coefficients[k] += 1e-3
        nudged = dataclasses.replace(proj, coefficients=coefficients)
        assert bergman_residual_orthogonality(E21, f, nudged) >= 1e-6


@settings(max_examples=5, deadline=None)
@given(st.randoms(use_true_random=False))
def test_bergman_random_residual_orthogonality(rng):
    p = random_poly_zzbar(rng, 4)
    proj = numerical_bergman(E21, p, 8)
    assert bergman_residual_orthogonality(E21, p, proj) < 1e-6


# -- experiments ------------------------------------------------------------------------

def test_szbar_experiment_disc_below_floor():
    rep = szbar_constancy_experiment(DISC)
    assert rep.deviation_from_constant < 1e-13
    assert rep.deviation_from_span_1_z <= rep.deviation_from_constant + 1e-16


def test_szbar_experiment_eccentric_far_from_constant():
    rep = szbar_constancy_experiment(E21)
    floor = matched_disc_floor(E21)
    assert floor < 1e-13
    # magnitudes pinned from the first oracle run: ~0.9605 and ~0.0253
    assert rep.deviation_from_constant > max(1e3 * floor, 0.5)
    assert rep.deviation_from_span_1_z > max(1e3 * floor, 0.01)


@pytest.mark.parametrize("a, b", [(2, 1), (9, 1), (Fraction(1, 10**6), Fraction(1, 10**6)),
                                  (Fraction(1, 10**150), Fraction(3, 10**150)), (10**100, 10**100)])
def test_matched_disc_keeps_the_radius_at_every_scale(monkeypatch, a, b):
    discs = []

    def measured(disc, M, basis_degree):
        discs.append(disc)
        return szbar_constancy_experiment(disc, M, basis_degree)

    monkeypatch.setattr(boundary, "szbar_constancy_experiment", measured)
    e = Ellipse(a, b)
    assert math.isfinite(matched_disc_floor(e, M=64, basis_degree=4))
    (disc,) = discs
    radius = Fraction(boundary_grid(e, 64).perimeter() / (2 * math.pi))
    assert abs(disc.a - radius) <= radius / 10**9
    if a >= 1:  # a radius this large keeps its short rounding
        assert disc.a.denominator <= 10**6


def test_harmonic_compare_examples():
    x = PolyRealN.variable(2, 0)
    y = PolyRealN.variable(2, 1)
    rep = harmonic_szego_bergman_check(DISC, x)
    assert rep.max_coeff_deviation < 1e-12
    assert rep.szego.coefficients[1] == pytest.approx(0.5, abs=1e-12)
    # x^2 - y^2 = Re z^2 projects to z^2/2 on both sides
    rep2 = harmonic_szego_bergman_check(DISC, x * x - y * y)
    assert rep2.max_coeff_deviation < 1e-12
    assert rep2.szego.coefficients[2] == pytest.approx(0.5, abs=1e-12)
    rep3 = harmonic_szego_bergman_check(DISC, PolyRealN.constant(2, 1))
    assert rep3.szego.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def test_harmonic_compare_input_validation():
    x = PolyRealN.variable(2, 0)
    with pytest.raises(ValueError):
        harmonic_szego_bergman_check(E21, x)
    with pytest.raises(ValueError):
        harmonic_szego_bergman_check(DISC, x * x)


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 6))
def test_vanishing_ideal_elements_vanish_on_boundary(rng, degree):
    # The r*q part of random decompositions must evaluate to ~0 on the
    # boundary: 64 sample points, 1e-12 relative to the coefficient scale.
    grid = boundary_grid(E21, 64)
    f = random_poly_zzbar(rng, degree)
    v = E21.defining_poly_zzbar() * szego_project(E21, f).cofactor
    assume(not v.is_zero())
    values = poly_values(v, grid.z)
    # relative to the term-magnitude bound sum |c| |z|^(a+b) per node
    magnitude = sum(
        abs(complex(c)) * np.abs(grid.z) ** (a + b) for (a, b), c in v.terms()
    )
    assert np.max(np.abs(values) / np.maximum(magnitude, 1.0)) <= 1e-12


# -- symbolic/numeric cross-validation -------------------------------------------------

def test_compare_symbolic_numeric_fixed_point():
    rep = compare_symbolic_numeric(E21, Z**3)
    assert rep.max_coeff_deviation < 1e-12


def test_compare_symbolic_numeric_zbar():
    rep = compare_symbolic_numeric(E21, ZB, M=1024, basis_degree=12)
    assert rep.max_coeff_deviation < 1e-8


@settings(max_examples=5, deadline=None)
@given(st.randoms(use_true_random=False))
def test_compare_symbolic_numeric_shifted_ellipse(rng):
    e = Ellipse(2, 1, Fraction(1, 2), Fraction(-1, 3))
    f = random_poly_zzbar(rng, 5, coefficient=unit_box_coefficient)
    rep = compare_symbolic_numeric(e, f)
    assert rep.max_coeff_deviation < 1e-8


def test_scaled_basis_conversion_round_trip():
    e = Ellipse(2, 1, Fraction(1, 2), Fraction(-1, 3))
    h = Z**3 * Fraction(2, 7) - Z * 5 + PolyZZbar.constant(1)
    coeffs = holomorphic_coeffs_in_scaled_basis(h, e, 6)
    zs = np.array([0.3 + 0.1j, -0.5 - 0.2j, 1.0 + 0.0j])
    direct = poly_values(h, zs)
    center = complex(0.5, -1 / 3)
    via_basis = np.polynomial.polynomial.polyval((zs - center) / 2.0, coeffs)
    assert np.max(np.abs(direct - via_basis)) < 1e-12


def binomial_scaled_coeffs(p, e, degree):
    """Reference conversion: (center + s*w)^n expanded by the binomial theorem."""
    center = GaussianRational(e.h, e.k)
    scale = GaussianRational(max(e.a, e.b))
    out = [GaussianRational(0)] * (degree + 1)
    for (n, _), c in p.terms():
        for j in range(n + 1):
            out[j] = out[j] + c * math.comb(n, j) * center ** (n - j) * scale**j
    return np.array([complex(v) for v in out])


@pytest.mark.parametrize(
    "e",
    [Ellipse(2, 1, Fraction(1, 2), Fraction(-1, 3)),
     Ellipse(Fraction(3, 2), Fraction(5, 2), -2, Fraction(7, 3)),
     Ellipse(1, 1, Fraction(-1, 5), Fraction(1, 4))],
    ids=["wide", "tall", "disc"],
)
def test_scaled_basis_conversion_matches_the_binomial_expansion(e):
    rng = random.Random(12)
    polys = [PolyZZbar.zero()] + [random_holomorphic(rng, n) for n in range(13)]
    for p in polys:
        expected = binomial_scaled_coeffs(p, e, 12)
        assert holomorphic_coeffs_in_scaled_basis(p, e, 12).tobytes() == expected.tobytes()


@st.composite
def rebase_cases(draw):
    """A rational ellipse, a holomorphic p and a basis degree in [deg p, 12].

    p is zero, a random holomorphic polynomial of degree <= 12, or the exact
    weighted projection of random data of degree <= 4 on the ellipse."""
    def ratio(lo, hi):
        return Fraction(draw(st.integers(lo, hi)), draw(st.integers(1, 9)))

    e = Ellipse(ratio(1, 20), ratio(1, 20), ratio(-9, 9), ratio(-9, 9))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["zero", "random", "projection"]))
    if kind == "zero":
        p = PolyZZbar.zero()
    elif kind == "random":
        p = random_holomorphic(rng, draw(st.integers(0, 12)))
    else:
        f = random_poly_zzbar(rng, draw(st.integers(0, 4)), coefficient=unit_box_coefficient)
        p = szego_project(e, f).projection
    return e, p, draw(st.integers(max(p.degree(), 0), 12))


@settings(max_examples=60, deadline=None)
@given(rebase_cases())
@example((Ellipse(Fraction(7, 3), Fraction(5, 4), Fraction(-1, 6), Fraction(2, 5)),
          PolyZZbar.zero(), 12))
@example((Ellipse(Fraction(7, 3), Fraction(5, 4), Fraction(-1, 6), Fraction(2, 5)),
          Z**12 * GaussianRational(Fraction(-3, 7), Fraction(1, 11)) + Z * 5, 12))
def test_rebasing_matches_the_binomial_expansion_on_random_ellipses(case):
    e, p, degree = case
    expected = binomial_scaled_coeffs(p, e, degree)
    assert holomorphic_coeffs_in_scaled_basis(p, e, degree).tobytes() == expected.tobytes()


def monomial_loop_values(f, z):
    """Reference evaluation: one numpy monomial per term, summed in graded-lex order."""
    z = np.asarray(z, dtype=complex)
    if isinstance(f, PolyRealN):
        f = xy_to_zzbar(f)
    if isinstance(f, PolyZZbar):
        zb = np.conj(z)
        out = np.zeros_like(z)
        for (p, q), c in f.terms():
            out += complex(c) * z**p * zb**q
        return out
    return np.asarray(f(z), dtype=complex)


def test_poly_values_match_the_monomial_loop():
    rng = random.Random(5)
    squares = [random_poly_zzbar(rng, 4, coefficient=unit_box_coefficient) ** 2 for _ in range(4)]
    x, y = PolyRealN.variable(2, 0), PolyRealN.variable(2, 1)
    cases = [
        # term dicts out of graded-lex order
        PolyZZbar({(3, 1): 2, (0, 0): Fraction(-1, 3), (1, 2): GaussianRational(1, -2), (2, 0): 5}),
        *squares,
        PolyZZbar.zero(),
        PolyZZbar.constant(GaussianRational(Fraction(1, 3), -1)),
        x**2 * y * Fraction(1, 7) - x * 3 + PolyRealN.constant(2, Fraction(1, 2)),
        lambda z: np.conj(z) ** 2 - 1j * z,
    ]
    assert list(squares[0]._terms) != [key for key, _ in squares[0].terms()]
    points = [boundary_grid(E21, 64).z, area_quadrature(Ellipse(2, 1, 1, -1), 8)[0]]
    for f in cases:
        for z in points:
            values = poly_values(f, z)
            assert values.shape == z.shape
            assert values.tobytes() == monomial_loop_values(f, z).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8), st.booleans())
def test_poly_values_match_the_monomial_loop_on_random_polynomials(rng, degree, unit_box):
    coefficient = unit_box_coefficient if unit_box else random_coefficient
    f = random_poly_zzbar(rng, degree, coefficient=coefficient)
    for z in (boundary_grid(E21, 64).z, area_quadrature(Ellipse(2, 1, 1, -1), 8)[0]):
        scalar = complex(z[rng.randrange(len(z))])
        for points in (z, scalar):
            values = np.asarray(poly_values(f, points))
            assert values.shape == np.shape(points)
            assert values.tobytes() == np.asarray(monomial_loop_values(f, points)).tobytes()


# -- memoised grids, area rules and bases ------------------------------------------

SHIFTED = Ellipse(2, 1, Fraction(1, 3), Fraction(-1, 2))
F_MIXED = ZB**3 + Z * ZB


def _cold_and_warm(call):
    """The result of a call on empty memo tables, then of the same call again."""
    szegopoly.clear_caches()
    return call(), call()


def _assert_same_projection(a, b):
    assert np.array_equal(a.coefficients, b.coefficients)
    assert (a.center, a.scale) == (b.center, b.scale)
    assert a.residual_norm == b.residual_norm
    assert a.condition_estimate == b.condition_estimate
    assert a.warning == b.warning


@pytest.mark.parametrize("e", [E21, SHIFTED], ids=["centred", "shifted"])
def test_warm_calls_bit_identical_to_cold(e):
    cold, warm = _cold_and_warm(lambda: compare_symbolic_numeric(e, F_MIXED))
    assert np.array_equal(cold.symbolic_coefficients, warm.symbolic_coefficients)
    assert cold.max_coeff_deviation == warm.max_coeff_deviation
    _assert_same_projection(cold.numeric, warm.numeric)

    cold, warm = _cold_and_warm(lambda: numerical_bergman(e, F_MIXED, 8))
    _assert_same_projection(cold, warm)

    cold, warm = _cold_and_warm(
        lambda: bergman_residual_orthogonality(e, F_MIXED, numerical_bergman(e, F_MIXED, 8))
    )
    assert cold == warm

    cold, warm = _cold_and_warm(lambda: szbar_constancy_experiment(e))
    _assert_same_projection(cold.projection, warm.projection)
    assert cold.deviation_from_constant == warm.deviation_from_constant
    assert cold.deviation_from_span_1_z == warm.deviation_from_span_1_z


@pytest.mark.parametrize(
    "disc", [DISC, Ellipse(1, 1, Fraction(1, 2), 0)], ids=["centred", "shifted"]
)
def test_warm_harmonic_compare_bit_identical_to_cold(disc):
    x = PolyRealN.variable(2, 0)
    y = PolyRealN.variable(2, 1)
    cold, warm = _cold_and_warm(lambda: harmonic_szego_bergman_check(disc, x * x - y * y))
    _assert_same_projection(cold.szego, warm.szego)
    _assert_same_projection(cold.bergman, warm.bergman)
    assert cold.max_coeff_deviation == warm.max_coeff_deviation


def _factors(basis):
    """The arrays of a memoised basis: the SVD factors and sqrt_w."""
    return basis.U, basis.s, basis.Vh, basis.sqrt_w


def test_memoised_results_are_read_only():
    grid = boundary_grid(E21, 64)
    z, w = area_quadrature(E21, 8)
    grid_basis = boundary._grid_basis(grid, 4)
    area_basis = boundary._area_basis(E21, 8, 4)
    arrays = (grid.t, grid.z, grid.ds, grid.omega, grid.tangent, z, w)
    for array in (*arrays, *_factors(grid_basis), *_factors(area_basis)):
        with pytest.raises(ValueError):
            array.flat[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.M = 32
    assert boundary_grid(E21, 64) is grid
    assert boundary_grid(E21, 64, weighted=True) is grid
    assert boundary_grid(E21, M=64, weighted=True) is grid
    assert area_quadrature(E21, 8)[0] is z
    assert area_quadrature(E21, quad_order=8)[0] is z
    for again, first in zip(_factors(boundary._grid_basis(grid, 4)), _factors(grid_basis)):
        assert again is first
    for again, first in zip(_factors(boundary._area_basis(E21, 8, 4)), _factors(area_basis)):
        assert again is first


def test_hand_built_grid_copies_its_arrays():
    grid = boundary_grid(E21, 64)
    nodes = np.array(grid.z)
    hand_built = dataclasses.replace(grid, z=nodes)
    nodes[:] = 0
    assert np.array_equal(hand_built.z, grid.z)
    with pytest.raises(ValueError):
        hand_built.z[0] = 0


def _memo_sizes():
    return [memo.cache_info().currsize for memo in boundary._MEMOS]


def test_clear_caches_empties_quadrature_table():
    numerical_bergman(E21, ZB, 6)
    numerical_szego(boundary_grid(E21, 64), ZB, 8)
    assert all(_memo_sizes())
    szegopoly.clear_caches()
    assert not any(_memo_sizes())


def test_quadrature_table_evicts_least_recently_used():
    szegopoly.clear_caches()
    bound = boundary.QUADRATURE_CACHE_SIZE
    first = boundary_grid(E21, 64)
    second = boundary_grid(DISC, 64)
    assert boundary_grid(E21, 64) is first  # now the most recently used
    for k in range(1, bound):  # one grid past the bound evicts DISC, the least recently used
        boundary_grid(Ellipse(2, 1, Fraction(k, 3), 0), 64)
    assert boundary._boundary_grid.cache_info().currsize == bound
    assert boundary_grid(E21, 64) is first
    assert boundary_grid(DISC, 64) is not second
    szegopoly.clear_caches()


def test_hand_built_grid_gets_its_own_basis():
    grid = boundary_grid(E21, 64)
    # same ellipse and M, nodes turned by half a step along the boundary
    t = grid.t + np.pi / 64
    x, y = 2 * np.cos(t), np.sin(t)
    other = dataclasses.replace(
        grid, t=t, z=x + 1j * y, omega=1 / np.abs(x / 4 + 1j * y),
        ds=np.hypot(2 * np.sin(t), np.cos(t)) * (2 * np.pi / 64),
    )
    f = ZB * Z + ZB**3
    on_grid = numerical_szego(grid, f, 8)
    on_other = numerical_szego(other, f, 8)
    basis = boundary._grid_basis(other, 8)
    U, s, Vh, sqrt_w = _factors(basis)
    assert np.array_equal(sqrt_w, np.sqrt(other.omega * other.ds))
    V = np.vander((other.z - basis.center) / basis.scale, 9, increasing=True)
    assert np.allclose((U * s) @ Vh, V * sqrt_w[:, None], rtol=1e-12, atol=0)
    for mine, memoised in zip(_factors(basis), _factors(boundary._grid_basis(grid, 8))):
        assert not np.array_equal(mine, memoised)
    assert not np.array_equal(on_other.coefficients, on_grid.coefficients)
    szegopoly.clear_caches()
    _assert_same_projection(numerical_szego(other, f, 8), on_other)


def test_validation_runs_before_lookup_when_warm():
    grid = boundary_grid(DISC, 16)
    proj = numerical_bergman(E21, ZB, 6)
    numerical_szego(grid, ZB, 3)
    infos = [memo.cache_info() for memo in boundary._MEMOS]
    for bad_M in (8, 17, 0):
        with pytest.raises(ValueError):
            boundary_grid(DISC, bad_M)
    for bad_degree in (-1, 4):
        with pytest.raises(ValueError):
            numerical_szego(grid, ZB, bad_degree)
    with pytest.raises(ValueError):
        numerical_bergman(E21, ZB, -1)
    with pytest.raises(ValueError):
        numerical_bergman(E21, ZB, 6, quad_order=16)
    with pytest.raises(ValueError):
        bergman_residual_orthogonality(E21, ZB, proj, quad_order=16)
    with pytest.raises(ValueError):
        area_quadrature(E21, 0)
    # no lookup either: every hit and miss count is unchanged
    assert [memo.cache_info() for memo in boundary._MEMOS] == infos


# -- the factored fit against np.linalg.lstsq --------------------------------------

EPS = np.finfo(float).eps


def _assert_fit_matches_lstsq(proj, z, basis, f):
    """proj agrees with np.linalg.lstsq(rcond=None) on the weighted basis
    rebuilt from its nodes, and both keep the same rank, which is returned.
    Coefficients agree within 64*eps times the condition number of the kept
    singular values times |coeffs| + |rhs|/|A|, the residual within
    64*eps*|rhs| plus |A| times that coefficient bound, and the inverse
    condition estimate within 64*eps; the warning is set on both or
    neither."""
    s, sqrt_w = basis.s, basis.sqrt_w
    A = np.vander((z - basis.center) / basis.scale, proj.basis_degree() + 1, increasing=True)
    A *= sqrt_w[:, None]
    rhs = poly_values(f, z) * sqrt_w
    coeffs, _, rank, lstsq_s = np.linalg.lstsq(A, rhs, rcond=None)
    assert np.count_nonzero(s > EPS * max(A.shape) * s[0]) == rank
    kept_cond = lstsq_s[0] / lstsq_s[rank - 1]
    # eps-sized relative changes to A and to rhs, through the kept singular values
    coeff_bound = 64 * EPS * kept_cond * (
        np.linalg.norm(coeffs) + np.linalg.norm(rhs) / lstsq_s[0]
    )
    assert np.linalg.norm(proj.coefficients - coeffs) <= coeff_bound
    # |A| times the coefficient bound, for A @ coeffs on the lstsq side
    residual_bound = 64 * EPS * np.linalg.norm(rhs) + lstsq_s[0] * coeff_bound
    lstsq_residual = np.linalg.norm(A @ coeffs - rhs)
    assert abs(proj.residual_norm - lstsq_residual) <= residual_bound
    assert abs(1 / proj.condition_estimate - lstsq_s[-1] / lstsq_s[0]) <= 64 * EPS
    lstsq_warns = lstsq_s[0] > boundary.CONDITION_WARN_THRESHOLD * lstsq_s[-1]
    assert (proj.warning is not None) == lstsq_warns
    return rank


@pytest.mark.parametrize(
    "e, M, degree, rank, warns",
    [(SHIFTED, 1024, 12, 13, False),
     (Ellipse(5, 1, Fraction(2, 3), 0), 1024, 40, 41, True),
     (Ellipse(9, 1), 512, 60, 47, True)],
    ids=["well-conditioned", "warned", "rank-deficient"],
)
def test_factored_fit_matches_lstsq(e, M, degree, rank, warns):
    grid = boundary_grid(e, M)
    proj = numerical_szego(grid, F_MIXED, degree)
    assert (proj.warning is not None) == warns
    basis = boundary._grid_basis(grid, degree)
    assert _assert_fit_matches_lstsq(proj, grid.z, basis, F_MIXED) == rank


@st.composite
def fit_cases(draw):
    """A rational ellipse, data f of degree <= 6 and a basis degree <= 12."""
    def ratio(lo, hi):
        return Fraction(draw(st.integers(lo, hi)), draw(st.integers(1, 6)))

    e = Ellipse(ratio(1, 18), ratio(1, 18), ratio(-6, 6), ratio(-6, 6))
    f = random_poly_zzbar(
        draw(st.randoms(use_true_random=False)), draw(st.integers(0, 6)),
        coefficient=unit_box_coefficient,
    )
    return e, f, draw(st.integers(0, 12)), draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(fit_cases())
def test_factored_fit_matches_lstsq_on_random_ellipses(case):
    e, f, degree, on_boundary = case
    if on_boundary:
        grid = boundary_grid(e, 128)
        proj = numerical_szego(grid, f, degree)
        _assert_fit_matches_lstsq(proj, grid.z, boundary._grid_basis(grid, degree), f)
        return
    order = 2 * (degree + max(f.degree(), 0)) + 4
    z, _ = area_quadrature(e, order)
    proj = numerical_bergman(e, f, degree, order)
    basis = boundary._area_basis(e, order, degree)
    _assert_fit_matches_lstsq(proj, z, basis, f)
    # the orthogonality check's A^H v through the factors, against A itself
    s, sqrt_w = basis.s, basis.sqrt_w
    A = np.vander((z - basis.center) / basis.scale, degree + 1, increasing=True) * sqrt_w[:, None]
    v = sqrt_w * (poly_values(f, z) - proj.evaluate(z))
    direct = np.max(np.abs(np.conj(A.T) @ v))
    orthogonality = bergman_residual_orthogonality(e, f, proj, order)
    assert abs(orthogonality - direct) <= 64 * EPS * s[0] * np.linalg.norm(v)


def test_basis_memo_holds_one_node_sized_matrix():
    grid = boundary_grid(E21, 256)
    z, _ = area_quadrature(E21, 32)
    for nodes, basis in (
        (grid.z, boundary._grid_basis(grid, 12)),
        (z, boundary._area_basis(E21, 32, 12)),
    ):
        M, n = len(nodes), 13
        U, s, Vh, sqrt_w = _factors(basis)
        arrays = [x for x in basis if isinstance(x, np.ndarray)]
        assert [a is U for a in arrays if a.ndim == 2 and a.shape[0] == M] == [True]
        # U owns exactly the bytes the weighted basis A had
        assert U.dtype == np.complex128 and U.base is None
        assert U.nbytes == M * n * np.dtype(np.complex128).itemsize
        assert (sqrt_w.shape, s.shape, Vh.shape) == ((M,), (n,), (n, n))
        assert all(a.base is None for a in arrays)
        assert isinstance(basis.center, complex) and isinstance(basis.scale, float)


# -- the node-power table of each memoised basis ------------------------------------


def _bits(proj):
    """The bytes of every float output of a fit."""
    scalars = np.array([proj.residual_norm, proj.condition_estimate])
    return np.asarray(proj.coefficients).tobytes(), scalars.tobytes(), proj.warning


@st.composite
def power_table_cases(draw):
    """A rational ellipse, a basis degree in [1, 8], data whose degree is
    below, at or above it, and grid or area fit."""
    def ratio(lo, hi):
        return Fraction(draw(st.integers(lo, hi)), draw(st.integers(1, 6)))

    e = Ellipse(ratio(1, 18), ratio(1, 18), ratio(-6, 6), ratio(-6, 6))
    degree = draw(st.integers(1, 8))
    top = degree + draw(st.sampled_from([-1, 0, 2]))
    rng = draw(st.randoms(use_true_random=False))
    terms = dict(random_poly_zzbar(rng, top, coefficient=unit_box_coefficient).terms())
    a = draw(st.integers(0, top))
    terms[(a, top - a)] = GaussianRational(1, Fraction(a, 8))  # so deg f == top
    return e, PolyZZbar(terms), degree, draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(power_table_cases())
def test_fits_through_the_power_table_are_bit_identical(case):
    e, f, degree, on_boundary = case
    szegopoly.clear_caches()

    def fresh(w):  # a callable never reads a power table
        return poly_values(f, w)

    if on_boundary:
        grid = boundary_grid(e, 64)
        # the first fit fills the table, the second reads it
        fits = [numerical_szego(grid, data, degree) for data in (f, f, fresh)]
        powers = boundary._grid_basis(grid, degree).powers
    else:
        order = 2 * (degree + f.degree()) + 4
        fits = [numerical_bergman(e, data, degree, order) for data in (f, f, fresh)]
        checks = [
            bergman_residual_orthogonality(e, data, fits[0], order)
            for data in (f, f, fresh)
        ]
        assert len({np.float64(c).tobytes() for c in checks}) == 1
        powers = boundary._area_basis(e, order, degree).powers
    assert _bits(fits[0]) == _bits(fits[1]) == _bits(fits[2])
    assert bool(powers.z or powers.zbar) == (0 < f.degree() <= degree)


def _table(powers):
    """Every array a node-power table holds."""
    return [*powers.z.values(), *powers.zbar.values()]


def test_power_table_fills_once_within_the_basis_degree():
    szegopoly.clear_caches()
    f = Z**3 * ZB + ZB**2 - Z * GaussianRational(0, 1)
    grid = boundary_grid(E21, 64)
    first = numerical_szego(grid, f, 6)
    powers = boundary._grid_basis(grid, 6).powers
    assert powers.degree == 6
    assert (sorted(powers.z), sorted(powers.zbar)) == ([1, 3], [1, 2])
    for nodes, e, array in ((grid.z, 3, powers.z[3]), (np.conj(grid.z), 2, powers.zbar[2])):
        assert array.tobytes() == (nodes**e).tobytes()
    kept = _table(powers)
    for array in kept:
        assert array.shape == (64,)
        with pytest.raises(ValueError):
            array[0] = 0
    # a second fit adds no entry and reads the same arrays
    _assert_same_projection(numerical_szego(grid, f, 6), first)
    assert all(a is b for a, b in zip(_table(powers), kept, strict=True))
    # data above the basis degree leaves the table alone
    numerical_szego(grid, Z**7 + ZB**5 * Z**3, 6)
    assert len(_table(powers)) == len(kept)
    # the area fit and its orthogonality check share one table
    proj = numerical_bergman(E21, f, 6, 24)
    area = boundary._area_basis(E21, 24, 6).powers
    kept = _table(area)
    assert len(kept) == 4
    bergman_residual_orthogonality(E21, f, proj, 24)
    assert all(a is b for a, b in zip(_table(area), kept, strict=True))
    szegopoly.clear_caches()
    assert not _table(boundary._grid_basis(grid, 6).powers)
    assert not _table(boundary._area_basis(E21, 24, 6).powers)
