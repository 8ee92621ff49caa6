"""Seeded generators: the random stream each one draws is pinned."""

import random
from fractions import Fraction

import pytest

from szegopoly.domains import Ellipsoid
from szegopoly.parsing import format_poly_real, format_poly_zzbar
from szegopoly.sampling import (
    random_ellipsoid,
    random_harmonic_xy,
    random_holomorphic,
    random_poly_real,
    random_poly_zzbar,
    unit_box_coefficient,
)

R = random.Random


# Each expected text was drawn before the generators shared one draw loop;
# the degree-0 draws at seed 0 and the density-0 draw take the constant-term
# fallback.
@pytest.mark.parametrize(
    "draw, expected",
    [
        (
            lambda: format_poly_zzbar(random_poly_zzbar(R(3), 3)),
            "(3/2+0i)*z^0*zbar^0 + (4+4i)*z^0*zbar^1 + (3/2-1/2i)*z^0*zbar^2"
            " + (-3/2+5/2i)*z^0*zbar^3",
        ),
        (
            lambda: format_poly_zzbar(random_poly_zzbar(R(3), 2, density=1.0)),
            "(3/2+0i)*z^0*zbar^0 + (4+4i)*z^0*zbar^1 + (2/3+3/2i)*z^1*zbar^0"
            " + (2/5+3/4i)*z^0*zbar^2 + (-3/2+5/2i)*z^1*zbar^1 + (3/4-5i)*z^2*zbar^0",
        ),
        (
            lambda: format_poly_zzbar(random_poly_zzbar(R(3), 2, density=0.0)),
            "(-5/4-1/5i)*z^0*zbar^0",
        ),
        (
            lambda: format_poly_zzbar(
                random_poly_zzbar(R(3), 2, coefficient=unit_box_coefficient)
            ),
            "(-1/2+3/8i)*z^0*zbar^0 + (-3/4-1i)*z^1*zbar^0 + (-1/8-1/4i)*z^1*zbar^1",
        ),
        (
            lambda: format_poly_zzbar(random_holomorphic(R(3), 4)),
            "(3/2+0i)*z^0*zbar^0 + (4+4i)*z^1*zbar^0 + (3/2-1/2i)*z^3*zbar^0"
            " + (3/4+1/2i)*z^4*zbar^0",
        ),
        (
            lambda: format_poly_zzbar(random_holomorphic(R(0), 0)),
            "(1-1/5i)*z^0*zbar^0",
        ),
        (
            lambda: format_poly_real(random_poly_real(R(3), 3, 2)),
            "(3/2+0i)*x1^0*x2^0*x3^0 + (2/5+3/4i)*x1^1*x2^0*x3^1"
            " + (-3/2+5/2i)*x1^1*x2^1*x3^0",
        ),
        (
            lambda: format_poly_real(random_poly_real(R(0), 3, 0)),
            "(1-1/5i)*x1^0*x2^0*x3^0",
        ),
        (
            lambda: format_poly_real(random_harmonic_xy(R(3), 2)),
            "(3+1/2i)*x^0*y^0 + (-9/2+13/4i)*x^0*y^1 + (19/4+7/2i)*x^1*y^0"
            " + (3/5+1i)*x^0*y^2 + (-2+6/5i)*x^1*y^1 + (-3/5-1i)*x^2*y^0",
        ),
    ],
)
def test_seeded_polynomial_draws_are_pinned(draw, expected):
    assert draw() == expected


def test_seeded_ellipsoid_draw_is_pinned():
    F = Fraction
    assert random_ellipsoid(R(3), 3) == Ellipsoid(
        dim=3,
        Q=((F(4), F(0), F(-6)), (F(0), F(9), F(0)), (F(-6), F(0), F(13))),
        center=(F(2), F(1, 2), F(2)),
    )
