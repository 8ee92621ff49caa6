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
part of r; the entries in rows of lower degree come from the linear and
constant parts of r (at most three per column in the plane).  So the
system is a linalg.GradedSystem, the same type as the Szego system: its
dense diagonal blocks, each certified invertible when it is built, the
sparse entries of each row in columns of higher degree, and a graded
back-substitution solve.  Harmonic input (Lap p = 0) is returned
as it is, with no system at all, since its q is zero.  Any other input
builds and certifies its system afresh.
"""

from __future__ import annotations

from .domains import Ellipse, Ellipsoid
from .linalg import GradedSystem, graded_system
from .polynomials import PolyRealN, PolyZZbar, monomials_real, monomials_zzbar
from .rational import ONE, ZERO


def fischer_system(domain: Ellipse | Ellipsoid, m: int) -> GradedSystem:
    """Build (and certify) the Fischer matrix for degree bound m >= 0.

    On an Ellipse the basis is monomials_zzbar(m), on an Ellipsoid it is
    monomials_real(dim, m).
    """
    if m < 0:
        raise ValueError("degree bound must be nonnegative")
    if isinstance(domain, Ellipse):
        r = domain.defining_poly_zzbar()
        basis = monomials_zzbar(m)
    else:
        r = domain.defining_poly()
        basis = monomials_real(domain.dim, m)
    images = ((r * r._new({alpha: ONE})).laplacian()._terms for alpha in basis)
    return graded_system(basis, images)


def _extend(domain: Ellipse | Ellipsoid, r, p):
    """p - r*q with Lap(r*q) = Lap(p), solved on the domain's Fischer system."""
    g = p.laplacian()
    if not g:
        return p
    system = fischer_system(domain, p.degree() - 2)
    basis = system.basis_order
    q = system.solve([g._terms.get(alpha, ZERO) for alpha in basis])
    return p - r * r._new({alpha: c for alpha, c in zip(basis, q) if c})


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
