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
the map is block upper triangular: the image of a degree-d monomial has
degree <= d, and its degree-d part comes only from the top homogeneous
part of r.  So each degree is one contiguous range of the basis, the
determinant is certified exactly as the product of the diagonal
(homogeneous) blocks, and a solve is graded back-substitution: from the
top degree down, solve the diagonal block on the current right-hand side,
then subtract the solved columns from the rows of lower degree.  Harmonic
input (Lap p = 0) is returned as it is, with no system at all, since its
q is zero.  A row of the inverse matrix is the same walk on the transpose,
which is block lower triangular: forward substitution from the row's
degree up (fischer_inverse_row; the Szego A-columns need only a few such
rows).  Systems are cached per (domain, m), in a bounded LRU table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .domains import Ellipse, Ellipsoid
from .linalg import InternalCheckError, det_exact, solve_exact
from .lru import LRUCache
from .polynomials import PolyRealN, PolyZZbar, monomials_real, monomials_zzbar
from .rational import GaussianRational, ONE, ZERO


@dataclass(frozen=True)
class FischerSystem:
    """Exact matrix of q -> Lap(r*q) on the monomial basis of degree <= m.

    basis_order is graded, so blocks[d] is the [start, stop) range of the
    degree-d monomials.  The matrix is block upper triangular on those
    ranges, and determinant is the product of the determinants of its
    diagonal blocks.
    """

    degree_bound: int
    basis_order: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, int], ...]
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
    # There are comb(d + n, n) monomials of degree <= d in n variables.
    n = len(basis[0])
    bounds = [0] + [comb(d + n, n) for d in range(m + 1)]
    blocks = tuple(zip(bounds, bounds[1:]))
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

    det = _block_determinant(blocks, matrix)
    if not det:
        raise InternalCheckError(
            "singular Fischer system on a positive definite ellipsoid"
        )
    system = FischerSystem(
        degree_bound=m,
        basis_order=tuple(basis),
        blocks=blocks,
        matrix=matrix,
        determinant=det,
    )
    _fischer_cache[(domain, m)] = system
    return system


def _diagonal_block(matrix, start: int, stop: int):
    return [row[start:stop] for row in matrix[start:stop]]


def _block_determinant(blocks, matrix) -> GaussianRational:
    det = ONE
    for start, stop in blocks:
        det = det * det_exact(_diagonal_block(matrix, start, stop))
        if not det:
            break
    return det


def _extend(domain: Ellipse | Ellipsoid, r, p):
    """p - r*q with Lap(r*q) = Lap(p), solved on the domain's Fischer system."""
    g = p.laplacian()
    if not g:
        return p
    system = fischer_system(domain, p.degree() - 2)
    basis, matrix = system.basis_order, system.matrix
    b = [g._terms.get(alpha, ZERO) for alpha in basis]
    q = {}
    for start, stop in reversed(system.blocks):
        rhs = b[start:stop]
        if not any(rhs):
            continue  # the block is invertible, so its unknowns are zero
        solution = solve_exact(_diagonal_block(matrix, start, stop), rhs)
        if solution is None:
            raise InternalCheckError(
                "certified-invertible Fischer block failed to solve"
            )
        for j, c in zip(range(start, stop), solution):
            if c:
                q[basis[j]] = c
                for i in range(start):
                    a = matrix[i][j]
                    if a:
                        b[i] = b[i] - a * c
    return p - r * r._new(q)


def fischer_inverse_row(
    system: FischerSystem, alpha: tuple[int, ...]
) -> list[GaussianRational]:
    """Row alpha of the inverse Fischer matrix, indexed like basis_order.

    The row y solves matrix^T y = e_alpha.  The transpose is block lower
    triangular on the same ranges, so y is zero below degree |alpha| and
    the rest is forward substitution from that degree up: solve each
    transposed diagonal block on the current right-hand side, then
    subtract the solved entries from the rows of higher degree.
    """
    basis, matrix, size = system.basis_order, system.matrix, system.size
    b = [ZERO] * size
    b[basis.index(alpha)] = ONE
    y = [ZERO] * size
    for start, stop in system.blocks[sum(alpha):]:
        rhs = b[start:stop]
        if not any(rhs):
            continue  # the block is invertible, so its entries are zero
        block = [[matrix[k][i] for k in range(start, stop)] for i in range(start, stop)]
        solution = solve_exact(block, rhs)
        if solution is None:
            raise InternalCheckError(
                "certified-invertible Fischer block failed to solve"
            )
        for k, c in zip(range(start, stop), solution):
            if c:
                y[k] = c
                row = matrix[k]
                for i in range(stop, size):
                    a = row[i]
                    if a:
                        b[i] = b[i] - a * c
    return y


def harmonic_extension(e: Ellipsoid, p: PolyRealN) -> PolyRealN:
    """The harmonic polynomial with the same boundary values as p.

    Exact: the result u satisfies Lap(u) = 0, deg(u) <= deg(p), and p - u
    is a polynomial multiple of the defining polynomial of e.
    """
    if p.dim != e.dim:
        raise ValueError(f"polynomial dimension {p.dim} != domain dimension {e.dim}")
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
