"""The benchmark's workloads: seeded inputs, one operation each, and its checks.

Every input is drawn with ``szegopoly.sampling`` from a ``random.Random``
seeded by (workload, seed, operation index) and formatted to text during
set-up, so the program under test only ever sees generated text.  Every
call into the package goes through a module attribute (``szego.szego_project``
and so on) at call time, so the span wrappers in ``spans.py`` see it.

Why each workload exists is written down in RATIONALE.md beside this file.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from szegopoly import boundary, dirichlet, parsing, polynomials, sampling, szego
from szegopoly.domains import Ellipse, Ellipsoid
from szegopoly.polynomials import PolyZZbar

# Semi-axes cycled through by the planar workloads.
SHAPES = ((2, 1), (3, 2), (5, 4))

CROSSCHECK_DEVIATION_LIMIT = 1e-8
BERGMAN_ORTHOGONALITY_LIMIT = 1e-6


@dataclass(frozen=True)
class Outcome:
    """Result of one operation."""

    failure: str | None  # None when every check passed
    digest_text: str  # canonical text of the exact outputs, never of floats
    exact: tuple = ()  # exact output polynomials, for coefficient bit sizes


def reset_caches() -> None:
    """Empty the package's caches, as a fresh ``szegopoly`` process starts.

    Uses ``szegopoly.clear_caches()`` when the package has one; otherwise
    clears every module-level ``*_cache`` mapping of the package.
    """
    clear = getattr(sys.modules["szegopoly"], "clear_caches", None)
    if clear is not None:
        clear()
        return
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("szegopoly."):
            continue
        for attr, value in vars(mod).items():
            if attr.endswith("_cache"):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
                elif hasattr(value, "clear"):
                    value.clear()


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _centre(rng: random.Random) -> Fraction:
    # Denominator 3 and nonzero numerators keep the cost of the exact work
    # close to equal across draws, so run-to-run spread stays small.
    return Fraction(rng.choice((-2, -1, 1, 2)), 3)


def draw_ellipse(rng: random.Random, shape: tuple[int, int]) -> Ellipse:
    return Ellipse(shape[0], shape[1], _centre(rng), _centre(rng))


def ellipse_text(e: Ellipse) -> str:
    return f"{e.a},{e.b},{e.h},{e.k}"


def _poly_of_degree(rng: random.Random, degree: int) -> PolyZZbar:
    while True:
        f = sampling.random_poly_zzbar(rng, degree)
        if f.degree() == degree:
            return f


def _failed_checks(checks: dict) -> str | None:
    bad = sorted(k for k, ok in checks.items() if not ok)
    return "checks failed: " + ", ".join(bad) if bad else None


# -- szego_cold / szego_warm ----------------------------------------------------


def _szego_op(inputs) -> Outcome:
    """The work of ``szegopoly szego`` without process start or file I/O."""
    etext, ftext = inputs
    e = Ellipse.from_string(etext)
    f = parsing.parse_poly_zzbar(ftext)
    d = szego.szego_project(e, f)
    certificate = szego.verify_decomposition(d, e)
    report = d.to_json_dict()
    text = "\n".join(report[k] for k in ("projection", "preimage", "cofactor"))
    return Outcome(
        _failed_checks(certificate.checks), text, (d.projection, d.preimage, d.cofactor)
    )


class SzegoCold:
    name = "szego_cold"
    sizes = {"normal": {"degree": 8, "ops_per_s": 1.0}, "tiny": {"degree": 2, "ops_per_s": 50.0}}
    fresh_caches_per_op = True

    def setup(self, seed, params):
        return None

    def make_input(self, seed, i, state, params):
        rng = _rng(self.name, seed, i)
        e = draw_ellipse(rng, SHAPES[i % len(SHAPES)])
        f = sampling.random_poly_zzbar(rng, params["degree"], density=1.0)
        return ellipse_text(e), parsing.format_poly_zzbar(f)

    def run(self, state, inputs, params):
        return _szego_op(inputs)


class SzegoWarm:
    name = "szego_warm"
    sizes = {"normal": {"degree": 10, "ops_per_s": 7.0}, "tiny": {"degree": 3, "ops_per_s": 100.0}}
    fresh_caches_per_op = False

    def setup(self, seed, params):
        rng = _rng(self.name, seed)
        e = draw_ellipse(rng, rng.choice(SHAPES))
        warm = _szego_op(
            (ellipse_text(e), parsing.format_poly_zzbar(_poly_of_degree(rng, params["degree"])))
        )
        if warm.failure:
            raise RuntimeError(f"warm-up projection failed: {warm.failure}")
        return e

    def make_input(self, seed, i, state, params):
        rng = _rng(self.name, seed, i)
        return ellipse_text(state), parsing.format_poly_zzbar(_poly_of_degree(rng, params["degree"]))

    def run(self, state, inputs, params):
        return _szego_op(inputs)


# -- dirichlet_3d -----------------------------------------------------------------


class Dirichlet3d:
    name = "dirichlet_3d"
    sizes = {"normal": {"degree": 8, "ops_per_s": 2.5}, "tiny": {"degree": 3, "ops_per_s": 50.0}}
    fresh_caches_per_op = True

    def setup(self, seed, params):
        return None

    def make_input(self, seed, i, state, params):
        rng = _rng(self.name, seed, i)
        e = sampling.random_ellipsoid(rng, 3)
        p = sampling.random_poly_real(rng, 3, params["degree"])
        return json.dumps(e.to_json_dict()), parsing.format_poly_real(p)

    def run(self, state, inputs, params):
        """The work of ``szegopoly dirichlet`` without process start or file I/O."""
        etext, ptext = inputs
        e = Ellipsoid.from_json(etext)
        data = parsing.parse_poly_real(ptext, dim=e.dim)
        u = dirichlet.harmonic_extension(e, data)
        checks = {
            "solution_harmonic": dirichlet.is_harmonic(u),
            "difference_divisible_by_r": (
                polynomials.divide_exact(data - u, e.defining_poly()) is not None
            ),
            "degree_non_increasing": u.degree() <= data.degree(),
        }
        parsing.format_poly_real(data)
        text = parsing.format_poly_real(u)
        parsing.poly_real_to_json(u)
        return Outcome(_failed_checks(checks), text, (u,))


# -- crosscheck -------------------------------------------------------------------


class Crosscheck:
    name = "crosscheck"
    _normal = {"degree": 4, "M": 1024, "basis_degree": 12, "bergman_degree": 8,
               "quad_order": 48, "ops_per_s": 70.0}
    sizes = {"normal": _normal, "tiny": {**_normal, "degree": 2}}
    fresh_caches_per_op = False

    def setup(self, seed, params):
        rng = _rng(self.name, seed)
        pool = [draw_ellipse(rng, shape) for shape in SHAPES]
        for e in pool:  # warm the exact columns for every degree an input can have
            for n in range(params["degree"] + 1):
                szego.szego_project(e, PolyZZbar.monomial(n, 0))
        return pool

    def make_input(self, seed, i, state, params):
        rng = _rng(self.name, seed, i)
        f = sampling.random_poly_zzbar(
            rng, params["degree"], coefficient=sampling.unit_box_coefficient
        )
        return ellipse_text(state[i % len(state)]), parsing.format_poly_zzbar(f)

    def run(self, state, inputs, params):
        """``szegopoly verify`` at its defaults, then a Bergman projection."""
        etext, ftext = inputs
        e = Ellipse.from_string(etext)
        f = parsing.parse_poly_zzbar(ftext)
        report = boundary.compare_symbolic_numeric(
            e, f, M=params["M"], basis_degree=params["basis_degree"]
        )
        proj = boundary.numerical_bergman(
            e, f, basis_degree=params["bergman_degree"], quad_order=params["quad_order"]
        )
        orthogonality = boundary.bergman_residual_orthogonality(
            e, f, proj, quad_order=params["quad_order"]
        )
        failure = None
        if not report.max_coeff_deviation < CROSSCHECK_DEVIATION_LIMIT:
            failure = f"max_coeff_deviation {report.max_coeff_deviation:.3e}"
        elif not orthogonality < BERGMAN_ORTHOGONALITY_LIMIT:
            failure = f"Bergman orthogonality {orthogonality:.3e}"
        # The symbolic coefficients are the exact projection rounded once to
        # double; they are bit-identical whenever the exact projection is.
        text = repr([complex(c) for c in report.symbolic_coefficients])
        return Outcome(failure, text)


WORKLOADS = {w.name: w for w in (SzegoCold(), SzegoWarm(), Dirichlet3d(), Crosscheck())}
