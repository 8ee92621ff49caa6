"""Exact weighted Szego projection of polynomials on a planar ellipse.

The weight is 1/|dbar r| on the boundary, with r the degree-two defining
polynomial of the ellipse.  For that weight, the composite operator

    A(p) = (d r) * dbar(E p)

(E = harmonic extension, d/dbar = Wirtinger derivatives) maps polynomials
of degree <= N to polynomials of degree <= N whose boundary values lie in
the orthogonal complement of the weighted Hardy space.  E p is harmonic,
so it is a holomorphic part plus an antiholomorphic part of degree
<= deg p, and A kills the holomorphic part: on degree <= N the image of A
is spanned by A(zbar^k) = k * (d r) * zbar^(k-1), k = 1..N, which needs no
extension.  Every polynomial f of degree <= N therefore splits as

    f = h + sum_k c_k A(zbar^k) + r*q,    deg q <= N - 2,

with h holomorphic of degree <= N; h is the weighted Szego projection of f.

The split is unique.  If h + A(g) + r*q = 0 with g = sum_k c_k zbar^k,
then h = -A(g) on the boundary, and the image of A is orthogonal to the
weighted Hardy space, so <h, h>_w = 0 and h = 0.  Then
A(g) = (d r) * dbar g = -r*q vanishes on the boundary, where d r != 0, so
the antiholomorphic polynomial dbar g vanishes on that infinite set and is
zero: every c_k = 0, and then q = 0.
So the linear system for (h, c, q) is square and injective, with
(N+1)(N+2)/2 unknowns.  Its degree-d unknowns (z^d, c_d, and q on the
monomials of degree d - 2) have columns of degree d, so in the graded basis
it is block upper triangular with one (d+1)x(d+1) diagonal block per
degree: the same linalg.GradedSystem as the Fischer systems, solved by
the same graded back-substitution.  Every column is z^d or a shifted copy
of the terms of d r or r, written with no ring product.  The builder
certifies every block invertible by its determinant modulo a prime
(exactly, in the rare case that is inconclusive), which certifies
uniqueness.  The system depends
only on (ellipse, N) and is cached per pair; the cached system factors a
block once, from its second solve, and replays that factorisation on
every projection after, while a system solved once keeps nothing.
verify_decomposition re-checks every claim, with operator_A extending the
preimage on its own path; the residual f - h - A(p) - r*q is one sum of
products over one common denominator (polynomials._sum_of_products), so
each of its coefficients is reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .dirichlet import harmonic_extension_zzbar
from .domains import Ellipse
from .linalg import GradedSystem, graded_system
from .polynomials import PolyZZbar, _sum_of_products, monomials_zzbar
from .rational import ONE


def operator_A(e: Ellipse, p: PolyZZbar) -> PolyZZbar:
    """(d r) * dbar(E p): degree non-increasing, kills holomorphic inputs."""
    return e.d_r() * harmonic_extension_zzbar(e, p).d_dzbar()


@dataclass(frozen=True)
class SzegoDecomposition:
    """Certified output of szego_project: input = projection + A(preimage) + r*cofactor."""

    input: PolyZZbar
    projection: PolyZZbar
    preimage: PolyZZbar
    cofactor: PolyZZbar
    N: int

    def to_json_dict(self) -> dict:
        from .parsing import format_poly_zzbar, _zzbar_text_and_json

        projection, projection_terms = _zzbar_text_and_json(self.projection)
        return {
            "N": self.N,
            "input": format_poly_zzbar(self.input),
            "projection": projection,
            "preimage": format_poly_zzbar(self.preimage),
            "cofactor": format_poly_zzbar(self.cofactor),
            "projection_terms": projection_terms,
        }


def _unknowns(N: int):
    """The unknowns of the degree-N system in column order, as (part, key).

    Part 0 is the coefficient of z^d in h, part 1 is c_d, the coefficient
    of zbar^d in the preimage, and part 2 is the coefficient of
    m = z^a zbar^b in q; the degree-d unknowns come in that order, with q's
    in the graded-lex order of monomials_zzbar.
    """
    for d in range(N + 1):
        yield 0, (d, 0)
        if d:
            yield 1, (0, d)
        for a in range(d - 1):
            yield 2, (a, d - 2 - a)


# The system depends only on (ellipse, N), so projections on one ellipse
# build and certify it once.  The bound keeps a process that sees many
# ellipses at a fixed number of systems, dropping the least recently used.
@lru_cache(maxsize=64)
def _square_system(e: Ellipse, N: int) -> GradedSystem:
    """The square system of f = h + sum_k c_k A(zbar^k) + r*q on the rows
    monomials_zzbar(N): the column of an unknown is z^d, A(zbar^d) or r*m.

    Each column is written straight from term dicts, with no ring product:
    z^d is one term, A(zbar^k) = k * (d r) * zbar^(k-1) is the terms of d r
    shifted by zbar^(k-1) and scaled by k, and r*z^a*zbar^b is the terms of
    r shifted by z^a*zbar^b.
    """
    d_r = e.d_r()._terms.items()
    r = e.defining_poly_zzbar()._terms.items()

    def column(part, key):
        a, b = key
        if part == 0:
            return {key: ONE}
        if part == 1:
            return {(i, j + b - 1): c * b for (i, j), c in d_r}
        return {(i + a, j + b): c for (i, j), c in r}

    images = (column(part, key) for part, key in _unknowns(N))
    return graded_system(monomials_zzbar(N), images)


# The memos that szegopoly.clear_caches() empties, captured here: a tracer
# may put a wrapper without cache_clear in place of a module attribute.
_MEMOS = (_square_system,)


def szego_project(
    e: Ellipse,
    f: PolyZZbar,
    *,
    ambient_degree: int | None = None,
) -> SzegoDecomposition:
    """Split f = h + A(p) + r*q exactly and return the decomposition.

    h is the weighted Szego projection of f for the weight 1/|dbar r|.
    ambient_degree widens the polynomial space beyond deg f; uniqueness of
    the orthogonal projection forces h to be independent of that widening,
    and the tests check it rather than assume it.
    """
    N = max(f.degree(), 0)
    if ambient_degree is not None:
        if ambient_degree < N:
            raise ValueError(
                f"ambient degree {ambient_degree} is below deg f = {N}"
            )
        N = ambient_degree

    system = _square_system(e, N)
    rhs = [f.coefficient(a, b) for a, b in system.basis_order]
    parts = ({}, {}, {})
    for (part, key), c in zip(_unknowns(N), system.solve(rhs)):
        if c:
            parts[part][key] = c
    # The solver's values are nonzero GaussianRationals on valid keys.
    h, p, q = map(f._new, parts)
    return SzegoDecomposition(input=f, projection=h, preimage=p, cofactor=q, N=N)


def kernel_membership(e: Ellipse, p: PolyZZbar) -> bool:
    """Whether p = g + r*q for some holomorphic g and polynomial q.

    Those p are exactly the ones the operator A annihilates.  If
    p = g + r*q, then (g, 0, q) solves the decomposition system of p, which
    is injective, so every c_k of the projection is zero; conversely, zero
    c_k leave p = h + r*q.  The projection reuses the cached system.
    """
    return szego_project(e, p).preimage.is_zero()


@dataclass(frozen=True)
class DecompositionCertificate:
    """Per-invariant exact re-check of a SzegoDecomposition."""

    checks: dict = field(default_factory=dict)
    residual: PolyZZbar = field(default_factory=PolyZZbar.zero)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        from .parsing import format_poly_zzbar

        return {
            "passed": self.passed,
            "checks": dict(self.checks),
            "residual": format_poly_zzbar(self.residual),
        }


def verify_decomposition(d: SzegoDecomposition, e: Ellipse) -> DecompositionCertificate:
    """Exactly re-check every invariant the decomposition claims."""
    residual = d.input._new(_sum_of_products([
        (d.input._terms, 1),
        (d.projection._terms, -1),
        (operator_A(e, d.preimage)._terms, -1),
        (e.defining_poly_zzbar()._terms, d.cofactor._terms, -1),
    ]))
    checks = {
        "residual_zero": residual.is_zero(),
        "projection_holomorphic": d.projection.is_holomorphic(),
        "projection_degree": d.projection.degree() <= d.N,
        "input_degree": d.input.degree() <= d.N,
        "preimage_degree": d.preimage.degree() <= d.N,
        "cofactor_degree": (
            d.cofactor.is_zero() if d.N < 2 else d.cofactor.degree() <= d.N - 2
        ),
    }
    return DecompositionCertificate(checks=checks, residual=residual)
