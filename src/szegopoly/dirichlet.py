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
part of r.  So each degree is one contiguous range of the basis, and the
system is stored as its dense diagonal (homogeneous) blocks plus, for each
column, the few entries in rows of lower degree, which come from the
linear and constant parts of r (at most three per column in the plane).
The determinant is certified exactly as the product of the diagonal
blocks, and a solve is graded back-substitution: from the top degree
down, solve the diagonal block on the current right-hand side, then push
each solved unknown through its column's sparse entries.  Harmonic input
(Lap p = 0) is returned as it is, with no system at all, since its q is
zero.  A row of the inverse matrix is the same walk on the transpose,
which is block lower triangular: forward substitution from the row's
degree up, each right-hand side pulled from the sparse columns
(fischer_inverse_row; the Szego A-columns need only a few such rows).
Systems are cached per (domain, m), in a bounded LRU table.
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
    """Exact matrix F of q -> Lap(r*q) on the monomial basis of degree <= m.

    basis_order is graded, so blocks[d] is the [start, stop) range of the
    degree-d monomials.  F is block upper triangular on those ranges, and
    it is kept in two parts: diagonal[d] is the dense degree-d block,
    diagonal[d][i - start][j - start] = F[i][j], and columns[j] holds only
    the entries of column j in rows of lower degree, as {i: F[i][j]}.
    determinant is the product of the determinants of the diagonal blocks.
    """

    basis_order: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, int], ...]
    diagonal: tuple[tuple[tuple[GaussianRational, ...], ...], ...]
    columns: tuple[dict[int, GaussianRational], ...]
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
    diagonal, columns, det = [], [], ONE
    for start, stop in blocks:
        block = [[ZERO] * (stop - start) for _ in range(start, stop)]
        for j in range(start, stop):
            column = {}
            for key, c in (r * r._new({basis[j]: ONE})).laplacian()._terms.items():
                i = index.get(key, stop)
                if i >= stop:
                    raise InternalCheckError(
                        "Fischer image raised the degree; defining polynomial "
                        "is not degree two"
                    )
                if i >= start:
                    block[i - start][j - start] = c
                else:
                    column[i] = c
            columns.append(column)
        diagonal.append(tuple(map(tuple, block)))
        det = det * det_exact(diagonal[-1])
    if not det:
        raise InternalCheckError(
            "singular Fischer system on a positive definite ellipsoid"
        )
    system = FischerSystem(
        basis_order=tuple(basis),
        blocks=blocks,
        diagonal=tuple(diagonal),
        columns=tuple(columns),
        determinant=det,
    )
    _fischer_cache[(domain, m)] = system
    return system


def _solve_block(block, rhs) -> list[GaussianRational]:
    solution = solve_exact(block, rhs)
    if solution is None:
        raise InternalCheckError("certified-invertible Fischer block failed to solve")
    return solution


def _extend(domain: Ellipse | Ellipsoid, r, p):
    """p - r*q with Lap(r*q) = Lap(p), solved on the domain's Fischer system."""
    g = p.laplacian()
    if not g:
        return p
    system = fischer_system(domain, p.degree() - 2)
    basis = system.basis_order
    b = [g._terms.get(alpha, ZERO) for alpha in basis]
    q = {}
    for (start, stop), block in zip(reversed(system.blocks), reversed(system.diagonal)):
        rhs = b[start:stop]
        if not any(rhs):
            continue  # the block is invertible, so its unknowns are zero
        for j, c in zip(range(start, stop), _solve_block(block, rhs)):
            if c:
                q[basis[j]] = c
                for i, a in system.columns[j].items():
                    b[i] = b[i] - a * c
    return p - r * r._new(q)


def fischer_inverse_row(
    system: FischerSystem, alpha: tuple[int, ...]
) -> list[GaussianRational]:
    """Row alpha of the inverse Fischer matrix, indexed like basis_order.

    The row y solves F^T y = e_alpha.  The transpose is block lower
    triangular on the same ranges, so y is zero below degree |alpha| and
    the rest is forward substitution from that degree up: entry i of the
    right-hand side is [i == alpha] - sum F[k][i] y[k] over the sparse
    column i, whose rows k are all of lower degree and already solved,
    and each transposed diagonal block is solved on it.
    """
    target = system.basis_order.index(alpha)
    y = [ZERO] * system.size
    d = sum(alpha)
    for (start, stop), block in zip(system.blocks[d:], system.diagonal[d:]):
        rhs = []
        for i in range(start, stop):
            acc = ONE if i == target else ZERO
            for k, a in system.columns[i].items():
                if y[k]:
                    acc = acc - a * y[k]
            rhs.append(acc)
        if any(rhs):  # else the block is invertible, so its entries are zero
            y[start:stop] = _solve_block(list(zip(*block)), rhs)
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
