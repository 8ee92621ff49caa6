"""Floating-point boundary and area quadrature oracle.

Everything here is an independent numerical cross-check of the exact
symbolic machinery: trapezoid-rule quadrature on the ellipse boundary
(spectrally accurate for smooth periodic integrands), weighted and
unweighted numerical Szego projections as least-squares fits in the grid
inner product, a Bergman projection via tensor Gauss-Legendre quadrature
in elliptic-polar coordinates, and the disc-characterization experiments
built on them.

The holomorphic basis is the centered, scaled monomial family
phi_k(z) = ((z - center)/s)^k with s = max(a, b); raw monomials on an
eccentric ellipse become catastrophically ill-conditioned past degree ~15,
so the weighted Vandermonde system is solved through its singular value
decomposition and the condition number is estimated and reported.

Nodes, weights and bases do not depend on the data: each boundary grid
(per ellipse, M and weighting), each area rule (per ellipse and order) and
each fit's weighted basis (per grid object and degree, or per area rule and
degree) is built once and kept in a bounded functools.lru_cache memo, which
szegopoly.clear_caches() empties.  A basis is kept as its thin SVD, in place
of the matrix, so a fit is two matrix-vector products with the factors.
The shared arrays are read-only; only the data values and those products
are computed per call.  A grid or area rule has at most MAX_NODES nodes and
a basis at most MAX_BASIS_CELLS entries; larger requests raise ValueError.
Every builder reads the ellipse through ellipse_floats, which raises
ValueError for an ellipse whose nodes and weights do not fit in doubles.

Exact polynomials enter the float side in two ways.  Data values come from
the ring's own evaluation loop.  Each memoised basis keeps a table of its
nodes' powers z**e and conj(z)**e, for e up to the basis degree, which that
loop fills on first use; later fits and checks on the basis read them, so
a fit computes no node power once its basis has seen the data's exponents.
Data of higher degree computes its powers once per call.  An exact
projection is rebased onto the phi basis by Horner's rule on Gaussian
integers over one common denominator, and each coefficient is reduced once
and rounded once, so it is the exact coefficient correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dirichlet import is_harmonic
from .domains import Ellipse
from .polynomials import PolyRealN, PolyZZbar, xy_to_zzbar
from .rational import _cleared, _reduce
from .szego import szego_project

CONDITION_WARN_THRESHOLD = 1e10

# Bound on the entries of each float memo.  A cross-check on one ellipse
# keeps one entry in each: its weighted grid, its area rule and the basis on
# each.  Four entries per memo hold four such ellipses (the crosscheck
# workload cycles through three), and the bound caps what a long run of
# fresh sizes can pin.
QUADRATURE_CACHE_SIZE = 4

# Default order of the area rule of every Bergman fit and check.
AREA_QUAD_ORDER = 48

# Bounds on the size of a fit.  A boundary grid or area rule holds at most
# MAX_NODES nodes, and a weighted basis at most MAX_BASIS_CELLS entries
# (nodes times basis size), 32 MB of complex entries; the basis, its left
# factor U of the same shape and the SVD's workspace then take about 130 MB
# while it is factored.  Past them a request raises ValueError before
# anything of its size is allocated.
MAX_NODES = 1 << 16
MAX_BASIS_CELLS = 1 << 21


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """Trapezoid nodes on the ellipse boundary with weights and tangents.

    The arrays are read-only copies, so a grid (and the basis memoised on
    it) cannot change after construction.  Grids compare and hash by
    identity, so a hand-built grid gets its own basis.
    """

    ellipse: Ellipse
    M: int
    weighted: bool
    t: np.ndarray        # parameter values 2*pi*j/M
    z: np.ndarray        # boundary points, complex
    ds: np.ndarray       # arclength quadrature weights
    omega: np.ndarray    # boundary weight values (1/|dbar r|, or 1)
    tangent: np.ndarray  # unit tangents i * dbar_r / |dbar_r|

    def __post_init__(self):
        for name in ("t", "z", "ds", "omega", "tangent"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name))))

    def perimeter(self) -> float:
        return float(np.sum(self.ds))


def ellipse_floats(e: Ellipse) -> tuple[float, float, float, float]:
    """a, b, h and k of e as doubles.  ValueError unless a**2, b**2 and their
    reciprocals are finite and nonzero and |h|/a and |k|/b are below 2**50,
    so that a node h + a*cos(t) keeps its offset from h to within a/4 and no
    gradient at a node is 0."""
    try:
        a, b, h, k = map(float, (e.a, e.b, e.h, e.k))
    except OverflowError:
        a = b = h = k = math.inf
    if not (all(0 < x < math.inf and 1 / x < math.inf for x in (a * a, b * b))
            and abs(h) < a * 2**50 and abs(k) < b * 2**50):
        raise ValueError(
            "ellipse is out of double range for the float harness: a^2, b^2 and "
            "their reciprocals must be finite and nonzero, and |h|/a and |k|/b below 2^50"
        )
    return a, b, h, k


def boundary_grid(e: Ellipse, M: int, weighted: bool = True) -> BoundaryGrid:
    """The M-node boundary grid; M must be even, at least 16 and at most
    MAX_NODES.

    Memoised per (e, M, weighted): repeated calls return the same read-only
    grid, however weighted is passed.
    """
    if M < 16 or M % 2 != 0:
        raise ValueError(f"node count must be even and >= 16, got {M}")
    if M > MAX_NODES:
        raise ValueError(f"node count {M} exceeds MAX_NODES = {MAX_NODES}")
    return _boundary_grid(e, M, weighted)


@lru_cache(maxsize=QUADRATURE_CACHE_SIZE)
def _boundary_grid(e: Ellipse, M: int, weighted: bool) -> BoundaryGrid:
    a, b, h, k = ellipse_floats(e)
    t = 2.0 * np.pi * np.arange(M) / M
    x = h + a * np.cos(t)
    y = k + b * np.sin(t)
    z = x + 1j * y
    speed = np.hypot(a * np.sin(t), b * np.cos(t))
    ds = speed * (2.0 * np.pi / M)
    # dbar r = ((x-h)/a^2 + i (y-k)/b^2) for r = (x-h)^2/a^2 + (y-k)^2/b^2 - 1
    dbar_r = (x - h) / a**2 + 1j * (y - k) / b**2
    grad_norm = np.abs(dbar_r)
    omega = 1.0 / grad_norm if weighted else np.ones(M)
    tangent = 1j * dbar_r / grad_norm
    return BoundaryGrid(
        ellipse=e, M=M, weighted=weighted, t=t, z=z, ds=ds, omega=omega,
        tangent=tangent,
    )


def inner_product(fvals: np.ndarray, gvals: np.ndarray, grid: BoundaryGrid) -> complex:
    """Grid approximation of the boundary inner product (f, g) = sum f conj(g) w ds."""
    fvals = np.asarray(fvals)
    gvals = np.asarray(gvals)
    if fvals.shape != (grid.M,) or gvals.shape != (grid.M,):
        raise ValueError(
            f"value arrays must have shape ({grid.M},), got {fvals.shape} and {gvals.shape}"
        )
    return complex(np.sum(fvals * np.conj(gvals) * grid.omega * grid.ds))


class _ReadOnlyPowers(dict):
    """Exponent e -> v**e on one memoised node array v.  Each array is
    made read-only as it is stored, so no reader can change the table."""

    __slots__ = ()

    def __setitem__(self, e, power):
        super().__setitem__(e, _read_only(power))


class _NodePowers(NamedTuple):
    """The node-power table of one memoised basis on the nodes z: z**e and
    conj(z)**e for 1 <= e <= degree, the basis degree, each computed by
    numpy ** the first time poly_values needs it.  Data of higher degree
    does not use the table, so it holds at most 2*degree node-sized
    arrays, about twice the basis's U."""

    degree: int
    z: _ReadOnlyPowers
    zbar: _ReadOnlyPowers


def poly_values(f, z: np.ndarray, powers: _NodePowers | None = None) -> np.ndarray:
    """Evaluate a PolyZZbar, PolyRealN (dim 2) or callable on complex points.

    A polynomial is evaluated by the ring's loop, which computes each power
    of z and conj(z) once per call.  powers, the node-power table of a
    memoised basis on the nodes z, supplies and keeps those powers instead
    when f's degree is at most powers.degree.  The value is bit for bit
    the same either way."""
    z = np.asarray(z, dtype=complex)
    if isinstance(f, PolyRealN):
        if f.dim != 2:
            raise ValueError("only 2-variable real polynomials map to the plane")
        f = xy_to_zzbar(f)
    if isinstance(f, PolyZZbar):
        table = None
        if powers is not None and f.degree() <= powers.degree:
            table = (powers.z, powers.zbar)
        # Adding the zeros keeps the shape of z for a constant or zero f.
        return np.zeros_like(z) + f._evaluate((z, np.conj(z)), table)
    return np.asarray(f(z), dtype=complex)


def _float_pairs(values) -> list[list[float]]:
    """[re, im] pairs of Python floats, which text output prints plainly."""
    return [[float(c.real), float(c.imag)] for c in values]


@dataclass
class NumericalProjection:
    """Least-squares holomorphic fit in a grid inner product."""

    coefficients: np.ndarray  # for phi_k(z) = ((z - center)/scale)^k
    center: complex
    scale: float
    residual_norm: float
    condition_estimate: float
    warning: str | None = None

    def basis_degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        w = (np.asarray(z, dtype=complex) - self.center) / self.scale
        return np.polynomial.polynomial.polyval(w, self.coefficients)

    def to_json_dict(self) -> dict:
        return {
            "basis": "((z - center)/scale)^k",
            "center": [self.center.real, self.center.imag],
            "scale": self.scale,
            "coefficients": _float_pairs(self.coefficients),
            "residual_norm": self.residual_norm,
            "condition_estimate": self.condition_estimate,
            "warning": self.warning,
        }


class _Basis(NamedTuple):
    """A memoised fit basis on nodes z; see _basis_matrix."""

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray
    sqrt_w: np.ndarray
    center: complex
    scale: float
    powers: _NodePowers


def _basis_matrix(z, weights, e: Ellipse, degree: int) -> _Basis:
    """The basis of a fit on the nodes z: the thin SVD U*diag(s)*Vh of the
    weighted basis A, the Vandermonde matrix of phi_0..phi_degree with row
    j scaled by sqrt_w[j], the square root of node j's quadrature weight,
    and an empty node-power table for the data.  A itself is not kept: U
    has its shape, and the other factors are small.  The arrays are
    read-only.  A has at most MAX_BASIS_CELLS entries."""
    cells = len(z) * (degree + 1)
    if cells > MAX_BASIS_CELLS:
        raise ValueError(
            f"basis of {len(z)} nodes by {degree + 1} functions has {cells} "
            f"entries, more than MAX_BASIS_CELLS = {MAX_BASIS_CELLS}"
        )
    a, b, h, k = ellipse_floats(e)
    center = complex(h, k)
    scale = max(a, b)
    V = np.vander((z - center) / scale, degree + 1, increasing=True)
    sqrt_w = np.sqrt(weights)
    # Scaled in place, so A never exists beside V while it is factored.
    V *= sqrt_w[:, None]
    U, s, Vh = np.linalg.svd(V, full_matrices=False)
    return _Basis(
        _read_only(U), _read_only(s), _read_only(Vh), _read_only(sqrt_w),
        center, scale, _NodePowers(degree, _ReadOnlyPowers(), _ReadOnlyPowers()),
    )


@lru_cache(maxsize=QUADRATURE_CACHE_SIZE)
def _grid_basis(grid: BoundaryGrid, degree: int):
    """_basis_matrix on the grid's nodes and weights, memoised per grid object."""
    return _basis_matrix(grid.z, grid.omega * grid.ds, grid.ellipse, degree)


@lru_cache(maxsize=QUADRATURE_CACHE_SIZE)
def _area_basis(e: Ellipse, quad_order: int, degree: int):
    """_basis_matrix on the nodes and weights of area_quadrature(e, quad_order)."""
    return _basis_matrix(*_area_quadrature(e, quad_order), e, degree)


def _adjoint_u(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U^H v, computed as conj(conj(v) U) so that no conjugate of U is made."""
    return np.conj(np.conj(v) @ U)


def _fit(z, basis: _Basis, f) -> NumericalProjection:
    """Least-squares fit of f on the nodes z by the factored weighted basis
    of _basis_matrix on those nodes, each squared residual weighted by its
    node's quadrature weight.  f is evaluated through the basis's
    node-power table.

    The minimum-norm solution Vh^H (U^H rhs / s) of np.linalg.lstsq with
    rcond=None: singular values at most eps*max(M, n)*s[0] count as zero."""
    U, s, Vh, sqrt_w = basis.U, basis.s, basis.Vh, basis.sqrt_w
    rhs = poly_values(f, z, basis.powers) * sqrt_w
    beta = _adjoint_u(U, rhs)
    keep = s > np.finfo(float).eps * max(U.shape[0], Vh.shape[1]) * s[0]
    beta[~keep] = 0
    coeffs = Vh[keep].conj().T @ (beta[keep] / s[keep])
    r = U @ beta - rhs
    with np.errstate(over="ignore"):
        residual = float(np.linalg.norm(r))
    if not math.isfinite(residual):
        # The squares overflowed (from about a = 1e77): scale by the largest
        # |r|, unless r itself is not finite.
        big = float(np.max(np.abs(r)))
        if math.isfinite(big):
            residual = big * float(np.linalg.norm(r / big))
    # 2-norm condition number of the weighted basis, from its singular values.
    cond = float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
    warning = None
    if cond > CONDITION_WARN_THRESHOLD:
        warning = (
            f"basis condition estimate {cond:.3e} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; coefficients may be inaccurate"
        )
    return NumericalProjection(
        coefficients=coeffs, center=basis.center, scale=basis.scale,
        residual_norm=residual, condition_estimate=cond, warning=warning,
    )


def numerical_szego(grid: BoundaryGrid, f, basis_degree: int) -> NumericalProjection:
    """Project f onto span{phi_0..phi_basis_degree} in the grid inner product."""
    if basis_degree < 0:
        raise ValueError("basis degree must be nonnegative")
    if basis_degree + 1 > grid.M // 4:
        raise ValueError(
            f"basis degree {basis_degree} too large for M = {grid.M} "
            "(need basis_degree + 1 <= M/4)"
        )
    return _fit(grid.z, _grid_basis(grid, basis_degree), f)


# -- area (Bergman) quadrature ------------------------------------------------


def area_quadrature(e: Ellipse, quad_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product nodes and weights for integrals over the ellipse.

    Elliptic-polar coordinates x = h + a*rho*cos(theta), y = k + b*rho*sin(theta)
    with area element a*b*rho drho dtheta; rho on [0, 1], theta on [0, 2*pi].
    rho takes quad_order Gauss-Legendre nodes.  theta is periodic, so it takes
    the trapezoid rule theta_k = 2*pi*k/quad_order, which is exact for
    trigonometric polynomials of degree < quad_order; Gauss-Legendre in theta
    is not, and fits at different orders would disagree.  Memoised per
    (e, quad_order): repeated calls return the same read-only arrays.  The
    quad_order**2 nodes may number at most MAX_NODES.
    """
    if quad_order < 1:
        raise ValueError(f"quadrature order must be positive, got {quad_order}")
    if quad_order**2 > MAX_NODES:
        raise ValueError(
            f"quadrature order {quad_order} gives {quad_order**2} nodes, "
            f"more than MAX_NODES = {MAX_NODES}"
        )
    return _area_quadrature(e, quad_order)


@lru_cache(maxsize=QUADRATURE_CACHE_SIZE)
def _area_quadrature(e: Ellipse, quad_order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    rho = 0.5 * (nodes + 1.0)
    w_rho = 0.5 * weights
    theta = 2.0 * np.pi * np.arange(quad_order) / quad_order
    w_theta = np.full(quad_order, 2.0 * np.pi / quad_order)
    a, b, h, k = ellipse_floats(e)
    R, T = np.meshgrid(rho, theta, indexing="ij")
    z = (h + a * R * np.cos(T)) + 1j * (k + b * R * np.sin(T))
    W = a * b * R * np.outer(w_rho, w_theta)
    return _read_only(z.ravel()), _read_only(W.ravel())


# The memos that szegopoly.clear_caches() empties, captured here: a tracer
# may put a wrapper without cache_clear in place of a module attribute.
_MEMOS = (_boundary_grid, _area_quadrature, _grid_basis, _area_basis)


def require_quad_order(f, basis_degree: int, quad_order: int) -> None:
    """Reject a negative basis degree, or an area rule of lower order than
    the basis and data degrees need.  From this order on, area_quadrature
    integrates every product in the fit and in the orthogonality check
    exactly, so fits and checks at any two such orders agree to rounding;
    a coarser rule misreads a correct projection as far from orthogonal."""
    if basis_degree < 0:
        raise ValueError("basis degree must be nonnegative")
    f_degree = f.degree() if isinstance(f, (PolyZZbar, PolyRealN)) else 0
    min_order = 2 * (basis_degree + max(f_degree, 0)) + 4
    if quad_order < min_order:
        raise ValueError(
            f"quadrature order {quad_order} too low; need >= {min_order} "
            f"for basis degree {basis_degree} and data degree {f_degree}"
        )


def numerical_bergman(
    e: Ellipse, f, basis_degree: int, quad_order: int = AREA_QUAD_ORDER
) -> NumericalProjection:
    """Project f onto holomorphic polynomials in the area inner product."""
    require_quad_order(f, basis_degree, quad_order)
    z, _ = area_quadrature(e, quad_order)
    return _fit(z, _area_basis(e, quad_order, basis_degree), f)


def bergman_residual_orthogonality(
    e: Ellipse, f, proj: NumericalProjection, quad_order: int = AREA_QUAD_ORDER
) -> float:
    """Max |<f - proj, phi_k>| over the basis, in the area inner product.
    proj is evaluated at the nodes, so the check reads any projection."""
    require_quad_order(f, proj.basis_degree(), quad_order)
    z, _ = area_quadrature(e, quad_order)
    basis = _area_basis(e, quad_order, proj.basis_degree())
    resid = poly_values(f, z, basis.powers) - proj.evaluate(z)
    # A^H v = Vh^H (s * U^H v) for the factored weighted basis A.
    inner = basis.Vh.conj().T @ (
        basis.s * _adjoint_u(basis.U, basis.sqrt_w * resid)
    )
    return float(np.max(np.abs(inner)))


# -- exact-to-float basis conversion -------------------------------------------


def holomorphic_coeffs_in_scaled_basis(
    p: PolyZZbar, e: Ellipse, degree: int
) -> np.ndarray:
    """Exact coefficients of a holomorphic p in the phi basis, then floats.

    Substitutes z = c + s*w, for the rational center c and scale s, by
    Horner's rule on Gaussian integers.  p's coefficients x_k are written
    over their common denominator D, and c and s over T = den(c)*den(s),
    so that alpha = c*T and beta = s*T are integral.  The step
    Q <- Q*(alpha + beta*w) + D*x_k*T^(N-k), from k = N = deg p down to 0,
    leaves D*T^N times the exact coefficients in Q; each is reduced once,
    over D*T^N, and rounded to a complex float.
    """
    if not p.is_holomorphic():
        raise ValueError("basis conversion requires a holomorphic polynomial")
    n = p.degree()
    if n > degree:
        raise ValueError(f"polynomial degree {n} exceeds basis degree {degree}")
    if n < 0:
        return np.zeros(degree + 1, dtype=complex)
    scale = max(e.a, e.b)
    t = math.lcm(e.h.denominator, e.k.denominator) * scale.denominator
    ar, ai, beta = int(e.h * t), int(e.k * t), int(scale * t)
    d, xs = _cleared([p.coefficient(j, 0) for j in range(n + 1)])
    re = [0] * (degree + 1)
    im = [0] * (degree + 1)
    t_power = 1
    for step, (xr, xi) in enumerate(reversed(xs)):
        if step:
            t_power *= t
            # Q*(alpha + beta*w) from the top coefficient down, so that
            # Q[j - 1] still holds its old value when Q[j] reads it.
            for j in range(step, 0, -1):
                qr, qi = re[j], im[j]
                re[j] = ar * qr - ai * qi + beta * re[j - 1]
                im[j] = ar * qi + ai * qr + beta * im[j - 1]
            qr, qi = re[0], im[0]
            re[0], im[0] = ar * qr - ai * qi, ar * qi + ai * qr
        re[0] += xr * t_power
        im[0] += xi * t_power
    d *= t_power
    return np.array([complex(_reduce(a, b, d)) for a, b in zip(re, im)])


# -- experiment reports --------------------------------------------------------


@dataclass
class SzbarReport:
    """Numerical (unweighted) Szego projection of zbar, with disc diagnostics."""

    ellipse: Ellipse
    M: int
    basis_degree: int
    projection: NumericalProjection
    deviation_from_constant: float
    deviation_from_span_1_z: float

    def to_json_dict(self) -> dict:
        return {
            "experiment": "szbar_constancy",
            "ellipse": self.ellipse.to_json_dict(),
            "M": self.M,
            "basis_degree": self.basis_degree,
            "coefficients": _float_pairs(self.projection.coefficients),
            "deviations": {
                "from_constant": self.deviation_from_constant,
                "from_span_1_z": self.deviation_from_span_1_z,
            },
            "condition_estimate": self.projection.condition_estimate,
        }


def szbar_constancy_experiment(
    e: Ellipse, M: int = 1024, basis_degree: int = 12
) -> SzbarReport:
    """Measure how far the unweighted Szego projection of zbar is from constant.

    On a disc the projection is the conjugate of the center; on any other
    real-analytic domain it cannot be constant, and on an eccentric ellipse
    it cannot even lie in span{1, z}.
    """
    grid = boundary_grid(e, M, weighted=False)
    proj = numerical_szego(grid, lambda z: np.conj(z), basis_degree)
    coeffs = proj.coefficients
    dev_const = float(np.linalg.norm(coeffs[1:]))
    dev_span = float(np.linalg.norm(coeffs[2:]))
    return SzbarReport(
        ellipse=e, M=M, basis_degree=basis_degree, projection=proj,
        deviation_from_constant=dev_const, deviation_from_span_1_z=dev_span,
    )


def matched_disc_floor(e: Ellipse, M: int = 1024, basis_degree: int = 12) -> float:
    """Quadrature floor: the zbar nonconstancy measured on a matched disc.

    The comparison disc has the same perimeter (hence comparable node
    spacing) and the same node count; its true projection is constant, so
    anything nonzero is numerical noise.  The radius is the matched one
    with a denominator of at most 10**6, or exactly the float where that
    rounding would lose more than 1e-9 of it (a radius below about 1e-3).
    """
    perimeter = boundary_grid(e, M).perimeter()
    exact = Fraction(perimeter / (2.0 * math.pi))
    radius = exact.limit_denominator(10**6)
    if abs(radius - exact) > exact * Fraction(1, 10**9):
        radius = exact
    disc = Ellipse(radius, radius)
    return szbar_constancy_experiment(disc, M, basis_degree).deviation_from_constant


# -- Szego/Bergman agreement on harmonic data (disc case) -----------------------


@dataclass
class HarmonicCompareReport:
    ellipse: Ellipse
    szego: NumericalProjection
    bergman: NumericalProjection
    max_coeff_deviation: float

    def to_json_dict(self) -> dict:
        return {
            "experiment": "harmonic_szego_bergman",
            "ellipse": self.ellipse.to_json_dict(),
            "max_coeff_deviation": self.max_coeff_deviation,
            "szego_coefficients": _float_pairs(self.szego.coefficients),
            "bergman_coefficients": _float_pairs(self.bergman.coefficients),
        }


def harmonic_szego_bergman_check(
    disc: Ellipse,
    p: PolyRealN,
    basis_degree: int = 12,
    M: int = 1024,
    quad_order: int = AREA_QUAD_ORDER,
) -> HarmonicCompareReport:
    """On a disc, the (unweighted) Szego and Bergman projections of harmonic
    data agree; measure the numerical deviation."""
    if not disc.is_disc():
        raise ValueError("this comparison is specific to discs (a = b)")
    if not is_harmonic(p):
        raise ValueError("input polynomial is not harmonic")
    grid = boundary_grid(disc, M, weighted=False)
    s_proj = numerical_szego(grid, p, basis_degree)
    b_proj = numerical_bergman(disc, p, basis_degree, quad_order)
    deviation = float(np.max(np.abs(s_proj.coefficients - b_proj.coefficients)))
    return HarmonicCompareReport(
        ellipse=disc, szego=s_proj, bergman=b_proj,
        max_coeff_deviation=deviation,
    )


# -- symbolic versus numeric cross-validation ------------------------------------


@dataclass
class CompareReport:
    ellipse: Ellipse
    M: int
    basis_degree: int
    max_coeff_deviation: float
    symbolic_coefficients: np.ndarray
    numeric: NumericalProjection

    def to_json_dict(self) -> dict:
        return {
            "experiment": "compare_symbolic_numeric",
            "ellipse": self.ellipse.to_json_dict(),
            "M": self.M,
            "basis_degree": self.basis_degree,
            "max_coeff_deviation": self.max_coeff_deviation,
            "symbolic_coefficients": _float_pairs(self.symbolic_coefficients),
            "numeric_coefficients": _float_pairs(self.numeric.coefficients),
            "condition_estimate": self.numeric.condition_estimate,
        }


def compare_symbolic_numeric(
    e: Ellipse, f: PolyZZbar, M: int = 1024, basis_degree: int = 12
) -> CompareReport:
    """Exact weighted projection versus the quadrature least-squares one."""
    decomposition = szego_project(e, f)
    exact = holomorphic_coeffs_in_scaled_basis(
        decomposition.projection, e, basis_degree
    )
    grid = boundary_grid(e, M, weighted=True)
    numeric = numerical_szego(grid, f, basis_degree)
    deviation = float(np.max(np.abs(exact - numeric.coefficients)))
    return CompareReport(
        ellipse=e, M=M, basis_degree=basis_degree,
        max_coeff_deviation=deviation,
        symbolic_coefficients=exact, numeric=numeric,
    )
