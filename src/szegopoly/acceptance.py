"""The package's acceptance suite.

Each criterion_* function runs one end-to-end check at its pinned
tolerance and returns a CriterionResult.  A criterion is registered by
decorating its check with _criterion(cid, title, time limit): the check
returns (passed, details), and the decorator times it, wraps the outcome
in the CriterionResult and appends the criterion to the registry, so
run_all executes the criteria in the order they are defined.  The
suite is deterministic (fixed seeds) so failures reproduce exactly.  The
CLI `suite` subcommand and tests/test_acceptance.py both drive this
module.

Float thresholds marked FROZEN were pinned from the first oracle runs of
the numerical harness on this codebase and are regression guards, not
theory: e.g. the measured zbar-nonconstancy on a unit disc was ~2.4e-16,
frozen as a 1e-13 floor.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .boundary import (
    bergman_residual_orthogonality,
    boundary_grid,
    compare_symbolic_numeric,
    harmonic_szego_bergman_check,
    inner_product,
    matched_disc_floor,
    numerical_bergman,
    poly_values,
    szbar_constancy_experiment,
)
from .dirichlet import harmonic_extension, is_harmonic
from .domains import Ellipse
from .polynomials import PolyZZbar, divide_exact
from .sampling import (
    random_ellipsoid,
    random_holomorphic,
    random_harmonic_xy,
    random_poly_real,
    random_poly_zzbar,
    unit_box_coefficient,
)
from .szego import kernel_membership, operator_A, szego_project, verify_decomposition


# FROZEN floor for the disc zbar experiment (first oracle run: ~2.4e-16).
DISC_SZBAR_FLOOR = 1e-13
# FROZEN magnitudes for the eccentric 2x1 ellipse (first oracle run:
# deviation_from_constant ~0.9605, deviation_from_span_1_z ~0.0253).
ECCENTRIC_DEV_CONST_MIN = 0.5
ECCENTRIC_DEV_SPAN_MIN = 0.01


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    runtime_s: float
    time_limit_s: float
    details: dict = dataclass_field(default_factory=dict)

    def line(self, timed: bool = True) -> str:
        """The pass/fail line; timed=False leaves out the runtime, so that
        two runs print identical lines (the CLI's --no-timestamp)."""
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  criterion {self.cid:2d}: {self.title}"
        return f"{text} ({self.runtime_s:.2f}s)" if timed else text

    def to_json_dict(self, timed: bool = True) -> dict:
        """The report entry; timed=False leaves out runtime_s."""
        out = {
            "criterion": self.cid,
            "title": self.title,
            "passed": self.passed,
            "runtime_s": round(self.runtime_s, 3),
            "time_limit_s": self.time_limit_s,
            "details": self.details,
        }
        if not timed:
            del out["runtime_s"]
        return out


# The criteria in definition order; _criterion appends each one.
_CRITERIA: list = []


def _criterion(cid: int, title: str, limit: float):
    """Register a check as criterion cid with a time limit in seconds; the
    registered function returns the check's timed CriterionResult."""

    def register(check):
        @functools.wraps(check)
        def criterion() -> CriterionResult:
            start = time.perf_counter()
            passed, details = check()
            return CriterionResult(
                cid=cid, title=title, passed=passed,
                runtime_s=time.perf_counter() - start,
                time_limit_s=limit, details=details,
            )

        _CRITERIA.append(criterion)
        return criterion

    return register


def _unit_box_polys(count: int, max_degree: int, seed: int) -> list[PolyZZbar]:
    rng = random.Random(seed)
    return [
        random_poly_zzbar(rng, max_degree, coefficient=unit_box_coefficient)
        for _ in range(count)
    ]


# Criteria 3 and 4 run on the same 20 random inputs.
_SHARED_SEED = 20260809


@_criterion(1, "closed-form weighted projection of zbar", 1.0)
def criterion_1():
    """Closed-form weighted projection of zbar on centered ellipses."""
    zbar = PolyZZbar.var_zbar()
    failures = []
    for a, b in ((2, 1), (3, 2), (5, 4), (1, 1)):
        e = Ellipse(a, b)
        coef = Fraction(a * a - b * b, a * a + b * b)
        expected = PolyZZbar({(1, 0): coef})
        got = szego_project(e, zbar).projection
        if got != expected:
            failures.append((a, b, "exact", repr(got)))
        numeric_dev = compare_symbolic_numeric(e, zbar).max_coeff_deviation
        if numeric_dev >= 1e-8:
            failures.append((a, b, "numeric", numeric_dev))
    return not failures, {"failures": failures}


@_criterion(2, "degree/holomorphy and exact decomposition, 100 random f", 30.0)
def criterion_2():
    """Projection is holomorphic, degree non-increasing, decomposition exact."""
    rng = random.Random(101)
    e = Ellipse(2, 1)
    failures = []
    for i in range(100):
        f = random_poly_zzbar(rng, rng.randint(0, 6))
        d = szego_project(e, f)
        cert = verify_decomposition(d, e)
        ok = (
            d.projection.is_holomorphic()
            and d.projection.degree() <= f.degree()
            and cert.passed
        )
        if not ok:
            failures.append((i, cert.checks))
    return not failures, {"count": 100, "failures": failures}


@_criterion(3, "weighted orthogonality of the residual", 20.0)
def criterion_3():
    """Residual f - h is orthogonal to z^k in the weighted boundary product."""
    e = Ellipse(2, 1)
    grid = boundary_grid(e, 1024, weighted=True)
    worst = 0.0
    for f in _unit_box_polys(20, 6, _SHARED_SEED):
        h = szego_project(e, f).projection
        resid = poly_values(f, grid.z) - poly_values(h, grid.z)
        for k in range(11):
            ip = inner_product(resid, grid.z**k, grid)
            worst = max(worst, abs(ip))
    return worst < 1e-8, {"max_inner_product": worst, "tolerance": 1e-8}


@_criterion(4, "symbolic/numeric agreement on 20 random f", 20.0)
def criterion_4():
    """Exact and quadrature projections agree coefficientwise."""
    e = Ellipse(2, 1)
    worst = 0.0
    for f in _unit_box_polys(20, 6, _SHARED_SEED):
        report = compare_symbolic_numeric(e, f, M=1024, basis_degree=12)
        worst = max(worst, report.max_coeff_deviation)
    return worst < 1e-8, {"max_coeff_deviation": worst, "tolerance": 1e-8}


@_criterion(5, "exact polynomial Dirichlet solutions, 50 random ellipsoids", 60.0)
def criterion_5():
    """Harmonic extension is exactly harmonic and differs from the data by r*q."""
    rng = random.Random(505)
    failures = []
    for i in range(50):
        dim = 2 if i % 2 == 0 else 3
        ell = random_ellipsoid(rng, dim)
        p = random_poly_real(rng, dim, rng.randint(0, 8))
        u = harmonic_extension(ell, p)
        ok = (
            is_harmonic(u)
            and u.degree() <= p.degree()
            and divide_exact(p - u, ell.defining_poly()) is not None
        )
        if not ok:
            failures.append(i)
    return not failures, {"count": 50, "failures": failures}


@_criterion(6, "kernel of the projection operator, 50 + 50 random inputs", 30.0)
def criterion_6():
    """operator_A vanishes exactly on its kernel and only there."""
    rng = random.Random(606)
    e = Ellipse(2, 1)
    r = e.defining_poly_zzbar()
    failures = []
    for i in range(50):
        g = random_holomorphic(rng, 6)
        q = random_poly_zzbar(rng, 4)
        member = g + r * q
        if not operator_A(e, member).is_zero():
            failures.append(("kernel", i))
        if not kernel_membership(e, member):
            failures.append(("membership", i))
    produced = 0
    while produced < 50:
        f = random_poly_zzbar(rng, rng.randint(1, 6))
        if kernel_membership(e, f):
            continue
        produced += 1
        if operator_A(e, f).is_zero():
            failures.append(("nonkernel", produced))
    return not failures, {"failures": failures}


@_criterion(7, "zbar projection constant only on discs", 10.0)
def criterion_7():
    """Disc-characterization experiments for the zbar projection."""
    details = {}
    ok = True

    for name, disc in (("unit", Ellipse(1, 1)), ("shifted", Ellipse(1, 1, 1, 0))):
        rep = szbar_constancy_experiment(disc)
        center_conj = complex(float(disc.h), -float(disc.k))
        expected = np.zeros(13, dtype=complex)
        expected[0] = center_conj
        coeff_err = float(np.max(np.abs(rep.projection.coefficients - expected)))
        details[name] = {
            "deviation_from_constant": rep.deviation_from_constant,
            "coeff_error_vs_center_conj": coeff_err,
        }
        ok = ok and rep.deviation_from_constant < 10 * DISC_SZBAR_FLOOR
        ok = ok and coeff_err < 1e-10

    e = Ellipse(2, 1)
    rep = szbar_constancy_experiment(e)
    floor = matched_disc_floor(e)
    details["eccentric"] = {
        "deviation_from_constant": rep.deviation_from_constant,
        "deviation_from_span_1_z": rep.deviation_from_span_1_z,
        "matched_disc_floor": floor,
    }
    ok = ok and rep.deviation_from_constant > 1e3 * floor
    ok = ok and rep.deviation_from_constant > ECCENTRIC_DEV_CONST_MIN
    ok = ok and rep.deviation_from_span_1_z > 1e3 * floor
    ok = ok and rep.deviation_from_span_1_z > ECCENTRIC_DEV_SPAN_MIN
    return ok, details


@_criterion(8, "Bergman projection holomorphy and disc values", 20.0)
def criterion_8():
    """Bergman projection sends polynomials to holomorphic polynomials."""
    rng = random.Random(808)
    e = Ellipse(2, 1)
    details = {}
    ok = True
    worst = 0.0
    for _ in range(10):
        p = random_poly_zzbar(rng, 4)
        proj = numerical_bergman(e, p, basis_degree=8)
        worst = max(worst, bergman_residual_orthogonality(e, p, proj))
    details["max_residual_orthogonality"] = worst
    ok = ok and worst < 1e-6

    disc = Ellipse(1, 1)
    zzb = PolyZZbar.monomial(1, 1)
    proj = numerical_bergman(disc, zzb, basis_degree=8)
    expected = np.zeros(9, dtype=complex)
    expected[0] = 0.5
    dev_zzbar = float(np.max(np.abs(proj.coefficients - expected)))
    proj2 = numerical_bergman(disc, PolyZZbar.var_zbar(), basis_degree=8)
    dev_zbar = float(np.max(np.abs(proj2.coefficients)))
    details["disc_zzbar_error"] = dev_zzbar
    details["disc_zbar_error"] = dev_zbar
    ok = ok and dev_zzbar < 1e-10 and dev_zbar < 1e-10
    return ok, details


@_criterion(9, "Szego = Bergman on harmonic data (disc)", 10.0)
def criterion_9():
    """Szego and Bergman projections agree on harmonic data on the disc."""
    rng = random.Random(909)
    disc = Ellipse(1, 1)
    worst = 0.0
    for _ in range(10):
        p = random_harmonic_xy(rng, 5)
        report = harmonic_szego_bergman_check(disc, p)
        worst = max(worst, report.max_coeff_deviation)
    return worst < 1e-8, {"max_coeff_deviation": worst, "tolerance": 1e-8}


@_criterion(10, "trapezoid perimeter convergence", 1.0)
def criterion_10():
    """Trapezoid perimeter of the 2x1 ellipse converges to the float floor."""
    p1024 = boundary_grid(Ellipse(2, 1), 1024).perimeter()
    p8192 = boundary_grid(Ellipse(2, 1), 8192).perimeter()
    err = abs(p1024 - p8192)
    return err < 1e-12, {"perimeter_1024": p1024, "error_vs_8192": err}


def run_all() -> list[CriterionResult]:
    return [criterion() for criterion in _CRITERIA]
