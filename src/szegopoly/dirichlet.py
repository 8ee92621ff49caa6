"""Exact polynomial solution of the Dirichlet problem on ellipsoids.

Because an ellipsoid's defining polynomial r has degree two and the
Laplacian lowers degree by two, the map q -> Lap(r*q) sends polynomials of
degree <= m to polynomials of degree <= m.  On an ellipsoid that map is
invertible, which turns the Dirichlet problem with polynomial data p into
a single exact linear solve: take q with Lap(r*q) = Lap(p); then
u = p - r*q is harmonic, agrees with p on the boundary (their difference
is a multiple of r), and has degree <= deg p.

One builder assembles that Fischer matrix for both polynomial types: on an
n-dimensional Ellipsoid it acts on real monomials x^alpha, on a planar
Ellipse it acts natively on z^a zbar^b with Lap = 4 d/dz d/dzbar, so the
Szego machinery never leaves z/zbar.  Both bases are graded, and in either
the map is block triangular: the degree-d image of a degree-d monomial
comes only from the top homogeneous part of r.  The determinant is
certified exactly as the product of the diagonal (homogeneous) blocks, and
elimination on the assembled matrix stays cheap because sub-block entries
vanish.  Systems are cached per (domain, m), in a bounded LRU table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import Ellipse, Ellipsoid
from .linalg import InternalCheckError, det_exact, solve_exact
from .lru import LRUCache
from .polynomials import PolyRealN, PolyZZbar, monomials_real, monomials_zzbar
from .rational import GaussianRational, ONE, ZERO


@dataclass(frozen=True)
class FischerSystem:
    """Exact matrix of q -> Lap(r*q) on the monomial basis of degree <= m."""

    degree_bound: int
    basis_order: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[GaussianRational, ...], ...]
    determinant: GaussianRational

    @property
    def size(self) -> int:
        return len(self.basis_order)


# Bound on the (domain, m) systems kept in _fischer_cache; the least recently
# used system is dropped first.
FISCHER_CACHE_SIZE = 256

_fischer_cache: LRUCache = LRUCache(FISCHER_CACHE_SIZE)


def fischer_system(domain: Ellipse | Ellipsoid, m: int) -> FischerSystem:
    """Build (and certify) the Fischer matrix for degree bound m >= 0.

    On an Ellipse the basis is monomials_zzbar(m), on an Ellipsoid it is
    monomials_real(dim, m).
    """
    if m < 0:
        raise ValueError("degree bound must be nonnegative")
    cached = _fischer_cache.get((domain, m))
    if cached is not None:
        return cached

    if isinstance(domain, Ellipse):
        r = domain.defining_poly_zzbar()
        basis = monomials_zzbar(m)
    else:
        r = domain.defining_poly()
        basis = monomials_real(domain.dim, m)
    index = {alpha: i for i, alpha in enumerate(basis)}
    size = len(basis)
    columns = []
    for alpha in basis:
        image = (r * r._new({alpha: ONE})).laplacian()
        col = [ZERO] * size
        for key, c in image.terms():
            if sum(key) > sum(alpha):
                raise InternalCheckError(
                    "Fischer image raised the degree; defining polynomial "
                    "is not degree two"
                )
            col[index[key]] = c
        columns.append(col)
    matrix = tuple(
        tuple(columns[j][i] for j in range(size)) for i in range(size)
    )

    det = _block_determinant(m, basis, index, matrix)
    if not det:
        raise InternalCheckError(
            "singular Fischer system on a positive definite ellipsoid"
        )
    system = FischerSystem(
        degree_bound=m, basis_order=tuple(basis), matrix=matrix, determinant=det
    )
    _fischer_cache[(domain, m)] = system
    return system


def _block_determinant(m, basis, index, matrix) -> GaussianRational:
    # Block triangular in the graded basis: det = product over degrees d of
    # the determinant of the homogeneous block (rows and columns of degree d).
    det = GaussianRational(1)
    for d in range(m + 1):
        block_idx = [index[alpha] for alpha in basis if sum(alpha) == d]
        block = [[matrix[i][j] for j in block_idx] for i in block_idx]
        det = det * det_exact(block)
        if not det:
            break
    return det


def _extend(domain: Ellipse | Ellipsoid, r, p):
    """p - r*q with Lap(r*q) = Lap(p), solved on the domain's Fischer system."""
    if p.degree() <= 1:
        return p
    system = fischer_system(domain, p.degree() - 2)
    g = dict(p.laplacian().terms())
    rhs = [g.get(alpha, ZERO) for alpha in system.basis_order]
    solution = solve_exact(system.matrix, rhs)
    if solution is None:
        raise InternalCheckError("certified-invertible Fischer system failed to solve")
    q = r._new({alpha: c for alpha, c in zip(system.basis_order, solution) if c})
    return p - r * q


def harmonic_extension(e: Ellipsoid, p: PolyRealN) -> PolyRealN:
    """The harmonic polynomial with the same boundary values as p.

    Exact: the result u satisfies Lap(u) = 0, deg(u) <= deg(p), and p - u
    is a polynomial multiple of the defining polynomial of e.
    """
    if p.dim != e.dim:
        raise ValueError(f"polynomial dimension {p.dim} != domain dimension {e.dim}")
    if p.degree() <= 1:
        return p
    return _extend(e, e.defining_poly(), p)


def harmonic_extension_zzbar(e: Ellipse, p: PolyZZbar) -> PolyZZbar:
    """Planar harmonic extension, solved natively in z/zbar on an ellipse.

    Same guarantees as harmonic_extension: Lap(u) = 0, deg(u) <= deg(p),
    and p - u is a multiple of the defining polynomial of e.
    """
    return _extend(e, e.defining_poly_zzbar(), p)


def is_harmonic(p: PolyRealN | PolyZZbar) -> bool:
    """Exact test: the Laplacian vanishes identically."""
    return p.laplacian().is_zero()
