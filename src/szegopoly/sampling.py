"""Seeded random generators for polynomials and domains.

Used by the acceptance suite and the property tests; everything takes an
explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .domains import Ellipsoid
from .polynomials import PolyRealN, PolyZZbar, monomials_real, monomials_zzbar, zzbar_to_xy
from .rational import GaussianRational


def random_rational(rng: random.Random) -> Fraction:
    """n/d with |n| <= 5 and 1 <= d <= 5."""
    return Fraction(rng.randint(-5, 5), rng.randint(1, 5))


def random_coefficient(rng: random.Random) -> GaussianRational:
    return GaussianRational(random_rational(rng), random_rational(rng))


def unit_box_coefficient(rng: random.Random) -> GaussianRational:
    """Coefficient with |re| <= 1 and |im| <= 1, denominator 8."""
    return GaussianRational(
        Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(-8, 8), 8)
    )


def _random_terms(rng: random.Random, keys, density: float, coefficient) -> dict:
    """Each key drawn with probability density; the first, constant, key if none is."""
    terms = {}
    for key in keys:
        if rng.random() < density:
            terms[key] = coefficient(rng)
    if not terms:
        terms[keys[0]] = coefficient(rng)
    return terms


def random_poly_zzbar(
    rng: random.Random,
    max_degree: int,
    density: float = 0.5,
    coefficient=random_coefficient,
) -> PolyZZbar:
    return PolyZZbar(_random_terms(rng, monomials_zzbar(max_degree), density, coefficient))


def random_holomorphic(rng: random.Random, max_degree: int) -> PolyZZbar:
    """Each z^k up to max_degree present with probability 0.7."""
    keys = [(k, 0) for k in range(max_degree + 1)]
    return PolyZZbar(_random_terms(rng, keys, 0.7, random_coefficient))


def random_harmonic_xy(rng: random.Random, max_degree: int) -> PolyRealN:
    """Random planar harmonic polynomial, built as f(z) + conj(g(z))."""
    f = random_holomorphic(rng, max_degree)
    g = random_holomorphic(rng, max_degree)
    return zzbar_to_xy(f + g.conjugate())


def random_poly_real(rng: random.Random, dim: int, max_degree: int) -> PolyRealN:
    """Each monomial up to max_degree present with probability 0.4."""
    keys = monomials_real(dim, max_degree)
    return PolyRealN(dim, _random_terms(rng, keys, 0.4, random_coefficient))


def random_ellipsoid(rng: random.Random, dim: int) -> Ellipsoid:
    """Random positive definite ellipsoid: Q = L^T L + I with small integer L."""
    L = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
    Q = tuple(
        tuple(
            sum(L[k][i] * L[k][j] for k in range(dim))
            + (Fraction(1) if i == j else Fraction(0))
            for j in range(dim)
        )
        for i in range(dim)
    )
    center = tuple(
        Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim)
    )
    return Ellipsoid(dim=dim, Q=Q, center=center)
