"""Exact weighted Szego projection of polynomials on a planar ellipse.

The weight is 1/|dbar r| on the boundary, with r the degree-two defining
polynomial of the ellipse.  For that weight, the composite operator

    A(p) = (d r) * dbar(E p)

(E = harmonic extension, d/dbar = Wirtinger derivatives) maps polynomials
of degree <= N to polynomials of degree <= N whose boundary values lie in
the orthogonal complement of the weighted Hardy space.  Every polynomial f
therefore splits exactly as

    f = h + A(p) + r*q

with h holomorphic of degree <= deg f; h is the weighted Szego projection
of f.  The solver assembles the finite linear system over the unknown
coefficient blocks (h, p, q) and solves it exactly; h is unique even
though (p, q) are not, and verify_decomposition re-checks every claim.
The system depends only on (ellipse, N), so it is factored once and each
projection replays that factorisation on its own right-hand side.

The p block holds A(m) for every monomial m = z^a zbar^b of degree <= N,
and all of it comes from one Fischer system F (the matrix of
q -> Lap(r*q) on degree <= N - 2), without extending each m on its own.
If b = 0, m is holomorphic and A(m) = 0.  If a = 0, m is harmonic, E m = m
and A(m) = b * (d r) * zbar^(b-1).  Otherwise Lap m = 4ab z^(a-1) zbar^(b-1),
so E m = m - 4ab * r * F^-1 e_beta with beta = (a-1, b-1); F is graded
block triangular, so its leading blocks are the Fischer systems of lower
degree and this one F serves every m.  E m is harmonic, so it has no
mixed z zbar terms, and m has no pure zbar terms, hence

    dbar E m = -4ab * sum_{k>=1} k [r * F^-1 e_beta]_(0,k) zbar^(k-1),
    [r q]_(0,k) = r_00 q_(0,k) + r_01 q_(0,k-1) + r_02 q_(0,k-2).

Only the pure zbar entries q_(0,j), j <= N - 2, are read: rows (0, j) of
F^-1, one transposed solve each.  operator_A itself still extends its
input, so verify_decomposition checks A(preimage) on a separate path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dirichlet import fischer_inverse_row, fischer_system, harmonic_extension_zzbar
from .domains import Ellipse
from .linalg import ExactFactorization, InternalCheckError, factor_exact
from .lru import LRUCache
from .polynomials import PolyZZbar, divide_exact, monomials_zzbar
from .rational import GaussianRational, ZERO


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
        from .parsing import format_poly_zzbar, poly_zzbar_to_json

        return {
            "N": self.N,
            "input": format_poly_zzbar(self.input),
            "projection": format_poly_zzbar(self.projection),
            "preimage": format_poly_zzbar(self.preimage),
            "cofactor": format_poly_zzbar(self.cofactor),
            "projection_terms": poly_zzbar_to_json(self.projection),
        }


# Bound on the (ellipse, N) systems kept in _column_cache, so a process that
# sees many ellipses keeps a fixed number of them; the least recently used
# system is dropped first.
COLUMN_CACHE_SIZE = 64


def _a_columns(e: Ellipse, N: int) -> list[PolyZZbar]:
    """A(z^a zbar^b) for every (a, b) in monomials_zzbar(N); see _system_matrix."""
    d_r = e.d_r()
    dbar_rows, index = [], {}  # stay empty for N < 2: no monomial has a, b >= 1
    if N >= 2:
        system = fischer_system(e, N - 2)
        rows = [fischer_inverse_row(system, (0, j)) for j in range(N - 1)]
        r = e.defining_poly_zzbar()
        # dbar_rows[k - 1][i] = k * [r * F^-1 e_i]_(0,k), for i over the basis.
        for k in range(1, N + 1):
            acc = [ZERO] * system.size
            for t in range(3):
                c = r.coefficient(0, t)
                if c and 0 <= k - t <= N - 2:
                    acc = [x + c * y if y else x for x, y in zip(acc, rows[k - t])]
            dbar_rows.append([x * k for x in acc])
        index = {beta: i for i, beta in enumerate(system.basis_order)}
    columns = []
    for a, b in monomials_zzbar(N):
        if b == 0:
            columns.append(PolyZZbar.zero())
        elif a == 0:
            columns.append(d_r * PolyZZbar.monomial(0, b - 1, b))
        else:
            i = index[(a - 1, b - 1)]
            scale = -4 * a * b
            dbar = {(0, k): row[i] * scale for k, row in enumerate(dbar_rows)}
            columns.append(d_r * PolyZZbar(dbar))
    return columns


def _system_matrix(e: Ellipse, N: int) -> list[list[GaussianRational]]:
    """Row-major matrix of the block system on monomials_zzbar(N).

    Columns, in order: the h block z^k (k <= N); the p block A(z^a zbar^b)
    over monomials_zzbar(N); the q block r * z^a zbar^b over
    monomials_zzbar(N - 2).  The p block equals operator_A on each monomial
    entry for entry, but comes from the one Fischer system F of degree
    N - 2 (the module docstring derives it): A(z^a) = 0,
    A(zbar^b) = b * (d r) * zbar^(b-1), and for a, b >= 1

        A(z^a zbar^b) = -4ab * (d r) * sum_{k>=1} k [r * F^-1 e_(a-1,b-1)]_(0,k) zbar^(k-1),

    which reads only rows (0, j), j <= N - 2, of F^-1: N - 1 transposed
    solves instead of one harmonic extension per monomial.
    """
    columns = [PolyZZbar.monomial(k, 0) for k in range(N + 1)]
    columns += _a_columns(e, N)
    if N >= 2:
        r = e.defining_poly_zzbar()
        columns += [r * PolyZZbar.monomial(a, b) for a, b in monomials_zzbar(N - 2)]
    row_index = {key: i for i, key in enumerate(monomials_zzbar(N))}
    matrix = [[ZERO] * len(columns) for _ in row_index]
    for j, poly in enumerate(columns):
        for key, c in poly.terms():
            matrix[row_index[key]][j] = c
    return matrix


class _SzegoSystem:
    """The decomposition matrix of one (ellipse, N), with its exact
    factorisation for each pivot strategy, made on first use."""

    def __init__(self, matrix: list[list[GaussianRational]]):
        self.matrix = matrix
        self.factors: dict[str, ExactFactorization] = {}

    def factor(self, pivot: str) -> ExactFactorization:
        factorization = self.factors.get(pivot)
        if factorization is None:
            factorization = factor_exact(self.matrix, pivot=pivot)
            self.factors[pivot] = factorization
        return factorization


# The decomposition system depends only on (ellipse, N), so projections on
# one ellipse eliminate it once per pivot strategy and then only replay the
# recorded elimination on each right-hand side.
_column_cache: LRUCache = LRUCache(COLUMN_CACHE_SIZE)


def szego_project(
    e: Ellipse,
    f: PolyZZbar,
    *,
    ambient_degree: int | None = None,
    pivot: str = "small",
) -> SzegoDecomposition:
    """Split f = h + A(p) + r*q exactly and return the decomposition.

    h is the weighted Szego projection of f for the weight 1/|dbar r|.
    ambient_degree widens the polynomial space beyond deg f; uniqueness of
    the orthogonal projection forces h to be independent of that widening,
    and the tests check it rather than assume it.  pivot selects the exact
    solver's pivoting order, for cross-checking uniqueness of h.
    """
    N = max(f.degree(), 0)
    if ambient_degree is not None:
        if ambient_degree < N:
            raise ValueError(
                f"ambient degree {ambient_degree} is below deg f = {N}"
            )
        N = ambient_degree

    system = _column_cache.get((e, N))
    if system is None:
        system = _SzegoSystem(_system_matrix(e, N))
        _column_cache[(e, N)] = system
    rhs = [f.coefficient(a, b) for a, b in monomials_zzbar(N)]
    solution = system.factor(pivot).solve(rhs)
    if solution is None:
        raise InternalCheckError(
            "Szego decomposition system is inconsistent; the operator "
            "A should reach every residue class"
        )

    n_h = N + 1
    p_monos = monomials_zzbar(N)
    n_p = len(p_monos)
    q_monos = monomials_zzbar(N - 2) if N >= 2 else []

    h = PolyZZbar({(k, 0): solution[k] for k in range(n_h)})
    p = PolyZZbar(
        {key: c for key, c in zip(p_monos, solution[n_h : n_h + n_p]) if c}
    )
    q = PolyZZbar(
        {key: c for key, c in zip(q_monos, solution[n_h + n_p :]) if c}
    )
    return SzegoDecomposition(input=f, projection=h, preimage=p, cofactor=q, N=N)


def kernel_membership(e: Ellipse, p: PolyZZbar) -> bool:
    """Whether p = g + r*q for some holomorphic g and polynomial q.

    Those p are exactly the ones the operator A annihilates.  If p = g + r*q,
    then p = g + A(0) + r*q is a decomposition of p, and h is unique, so the
    projection of p is g and r divides p - g; conversely the quotient is a
    q.  The projection reuses the cached (ellipse, N) system.
    """
    h = szego_project(e, p).projection
    return divide_exact(p - h, e.defining_poly_zzbar()) is not None


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
    r = e.defining_poly_zzbar()
    residual = d.input - d.projection - operator_A(e, d.preimage) - r * d.cofactor
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
