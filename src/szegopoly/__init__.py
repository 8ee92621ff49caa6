"""Weighted Szego projections of polynomials on planar ellipses.

Exact core: sparse polynomials over the Gaussian rationals with Wirtinger
and Laplace operators, polynomial Dirichlet solutions on ellipsoids via an
invertible Fischer-type operator, and the exact decomposition
f = h + (d r) * dbar(E p) + r*q whose holomorphic part h is the Szego
projection of f for the boundary weight 1/|dbar r|.

Numerical side: boundary and area quadrature grids, least-squares Szego
and Bergman projections, and disc-characterization experiments, all used
as independent cross-checks of the exact results.

Importing the package loads only the exact side.  The numerical names
(those of ``szegopoly.boundary``) resolve on first use, which is when
numpy is imported.
"""

import sys

from .rational import GaussianRational
from .polynomials import (
    PolyRealN,
    PolyZZbar,
    divide_exact,
    monomials_real,
    monomials_zzbar,
    xy_to_zzbar,
    zzbar_to_xy,
)
from .parsing import (
    ParseError,
    format_poly_real,
    format_poly_zzbar,
    parse_polynomial,
    parse_poly_real,
    parse_poly_zzbar,
    poly_real_from_json,
    poly_real_to_json,
    poly_zzbar_from_json,
    poly_zzbar_to_json,
)
from .linalg import (
    ExactFactorization,
    GradedSystem,
    InternalCheckError,
    det_exact,
    factor_exact,
    solve_exact,
)
from .domains import Ellipse, Ellipsoid
from .dirichlet import (
    fischer_system,
    harmonic_extension,
    harmonic_extension_zzbar,
    is_harmonic,
)
from .szego import (
    DecompositionCertificate,
    SzegoDecomposition,
    kernel_membership,
    operator_A,
    szego_project,
    verify_decomposition,
)
from . import szego

__version__ = "0.1.0"

# Resolved from szegopoly.boundary on first use (PEP 562), so that the exact
# modules and the exact CLI commands start without numpy.
_BOUNDARY_NAMES = (
    "BoundaryGrid",
    "CompareReport",
    "HarmonicCompareReport",
    "NumericalProjection",
    "SzbarReport",
    "boundary_grid",
    "compare_symbolic_numeric",
    "harmonic_szego_bergman_check",
    "inner_product",
    "matched_disc_floor",
    "numerical_bergman",
    "numerical_szego",
    "poly_values",
    "szbar_constancy_experiment",
)


def __getattr__(name: str):
    if name in _BOUNDARY_NAMES:
        from . import boundary

        return getattr(boundary, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_BOUNDARY_NAMES})


def clear_caches() -> None:
    """Empty the package's memo tables: the exact Szego systems, with the
    block factorisations they keep, and the float quadrature grids, area
    rules and Vandermonde bases.

    The float memos exist only once the harness has been imported; before
    that there is nothing to empty, and this does not import it.  Each
    Ellipse also memoises its z/zbar defining polynomial; that memo lives
    and dies with the instance.
    """
    boundary = sys.modules.get(f"{__name__}.boundary")
    for memo in (*szego._MEMOS, *(boundary._MEMOS if boundary else ())):
        memo.cache_clear()


__all__ = [
    "GaussianRational",
    "PolyRealN",
    "PolyZZbar",
    "divide_exact",
    "monomials_real",
    "monomials_zzbar",
    "xy_to_zzbar",
    "zzbar_to_xy",
    "ParseError",
    "format_poly_real",
    "format_poly_zzbar",
    "parse_polynomial",
    "parse_poly_real",
    "parse_poly_zzbar",
    "poly_real_from_json",
    "poly_real_to_json",
    "poly_zzbar_from_json",
    "poly_zzbar_to_json",
    "ExactFactorization",
    "GradedSystem",
    "InternalCheckError",
    "det_exact",
    "factor_exact",
    "solve_exact",
    "Ellipse",
    "Ellipsoid",
    "fischer_system",
    "harmonic_extension",
    "harmonic_extension_zzbar",
    "is_harmonic",
    "DecompositionCertificate",
    "SzegoDecomposition",
    "kernel_membership",
    "operator_A",
    "szego_project",
    "verify_decomposition",
    *_BOUNDARY_NAMES,
    "clear_caches",
    "__version__",
]
