"""Command-line front end.

Subcommands:
  dirichlet   exact polynomial solution of the Dirichlet problem
  szego       exact weighted Szego projection with verification certificate
  verify      symbolic-versus-numeric cross-check of the projection
  experiment  numerical experiments (szbar constancy, harmonic compare)
  suite       the full acceptance suite with a pass/fail summary

Exit codes: 0 all checks passed, 1 a check failed or the library failed
(an error message, never a traceback), 2 bad input (parse errors carry the
offending column).  Every argument is validated before the library runs,
so a ValueError or OverflowError from inside the library is a failure.

`dirichlet` and `szego` are exact and never import numpy; `verify`,
`experiment` and `suite` import the float harness when they run.  `verify`
and `experiment` run under a numpy error state in which overflow and
invalid values raise FloatingPointError, so data too large for doubles is
a one-line failure, not warnings and a nan or inf report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from datetime import datetime, timezone

from .dirichlet import harmonic_extension, is_harmonic
from .domains import Ellipse, Ellipsoid
from .linalg import InternalCheckError
from .parsing import (
    ParseError,
    format_poly_real,
    parse_poly_real,
    parse_poly_zzbar,
    poly_real_to_json,
)
from .polynomials import divide_exact
from .szego import szego_project, verify_decomposition


class InputError(ValueError):
    """Bad command-line input (exit code 2)."""


def _read_poly_source(args) -> str:
    if args.poly is not None:
        return args.poly
    if args.poly_file is not None:
        try:
            with open(args.poly_file, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read polynomial file: {exc}") from exc
    raise InputError("one of --poly or --poly-file is required")


def _load_ellipse(args) -> Ellipse:
    if getattr(args, "ellipse", None) is None:
        raise InputError("--ellipse a,b[,h,k] is required for this command")
    try:
        return Ellipse.from_string(args.ellipse)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_domain(args) -> Ellipse | Ellipsoid:
    if getattr(args, "ellipsoid", None) is not None:
        try:
            with open(args.ellipsoid, "r", encoding="utf-8") as fh:
                return Ellipsoid.from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load ellipsoid: {exc}") from exc
    return _load_ellipse(args)


def _emit(report: dict, args, *, runtime_s: float) -> None:
    if not args.no_timestamp:
        report = dict(report)
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
        report["runtime_ms"] = round(runtime_s * 1000.0, 3)
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _as_text(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_text(obj, indent: str = "") -> str:
    lines = []
    for key, value in obj.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_as_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(f"{indent}  -")
                lines.append(_as_text(item, indent + "    "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line)


def _cmd_dirichlet(args) -> int:
    start = time.perf_counter()
    domain = _load_domain(args)
    ellipsoid = domain.to_ellipsoid() if isinstance(domain, Ellipse) else domain
    data = parse_poly_real(_read_poly_source(args), dim=ellipsoid.dim)
    solution = harmonic_extension(ellipsoid, data)
    remainder_ok = divide_exact(data - solution, ellipsoid.defining_poly()) is not None
    checks = {
        "solution_harmonic": is_harmonic(solution),
        "difference_divisible_by_r": remainder_ok,
        "degree_non_increasing": solution.degree() <= data.degree(),
    }
    report = {
        "command": "dirichlet",
        "domain": ellipsoid.to_json_dict(),
        "input": format_poly_real(data),
        "solution": format_poly_real(solution),
        "solution_terms": poly_real_to_json(solution),
        "checks": checks,
        "all_passed": all(checks.values()),
    }
    _emit(report, args, runtime_s=time.perf_counter() - start)
    return 0 if report["all_passed"] else 1


def _cmd_szego(args) -> int:
    start = time.perf_counter()
    e = _load_ellipse(args)
    f = parse_poly_zzbar(_read_poly_source(args))
    decomposition = szego_project(e, f)
    certificate = verify_decomposition(decomposition, e)
    report = {
        "command": "szego",
        "ellipse": e.to_json_dict(),
        **decomposition.to_json_dict(),
        "checks": certificate.to_json_dict(),
    }
    _emit(report, args, runtime_s=time.perf_counter() - start)
    return 0 if certificate.passed else 1


def _require_positive_tol(tol) -> None:
    # nan fails every comparison and inf passes every check; neither is a tolerance.
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and positive, got {tol}")


def _load_float_ellipse(args) -> Ellipse:
    """The ellipse of a float command, once --nodes and --degree are within
    the fit size bounds of szegopoly.boundary; an ellipse out of double
    range (boundary.ellipse_floats) is bad input."""
    from .boundary import MAX_BASIS_CELLS, MAX_NODES, ellipse_floats

    if args.nodes < 16 or args.nodes % 2:
        raise InputError(f"--nodes must be even and >= 16, got {args.nodes}")
    if args.nodes > MAX_NODES:
        raise InputError(f"--nodes must be at most {MAX_NODES}, got {args.nodes}")
    if not 0 <= args.degree < args.nodes // 4:
        raise InputError(
            f"--degree must be >= 0 and below nodes/4 = {args.nodes // 4}, "
            f"got {args.degree}"
        )
    if args.nodes * (args.degree + 1) > MAX_BASIS_CELLS:
        raise InputError(
            f"--nodes times (--degree + 1) must be at most {MAX_BASIS_CELLS}, "
            f"got {args.nodes} * {args.degree + 1}"
        )
    e = _load_ellipse(args)
    try:
        ellipse_floats(e)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return e


def _float_errors_raise(command):
    """Run a float command with numpy overflow and invalid values raising
    FloatingPointError, which main reports as a failure."""

    @functools.wraps(command)
    def run(args) -> int:
        import numpy as np

        with np.errstate(over="raise", invalid="raise"):
            return command(args)

    return run


@_float_errors_raise
def _cmd_verify(args) -> int:
    from .boundary import compare_symbolic_numeric

    start = time.perf_counter()
    _require_positive_tol(args.tol)
    e = _load_float_ellipse(args)
    f = parse_poly_zzbar(_read_poly_source(args))
    # deg h <= deg f, so the projection is computed here only when it may
    # not fit the basis; the cross-check reuses its cached system.
    if (
        f.degree() > args.degree
        and szego_project(e, f).projection.degree() > args.degree
    ):
        raise InputError(f"--degree {args.degree} is below the degree of the projection")
    report_obj = compare_symbolic_numeric(
        e, f, M=args.nodes, basis_degree=args.degree
    )
    passed = report_obj.max_coeff_deviation < args.tol
    report = {
        "command": "verify",
        **report_obj.to_json_dict(),
        "tolerance": args.tol,
        "passed": passed,
    }
    _emit(report, args, runtime_s=time.perf_counter() - start)
    return 0 if passed else 1


@_float_errors_raise
def _cmd_experiment(args) -> int:
    from .boundary import (
        AREA_QUAD_ORDER,
        harmonic_szego_bergman_check,
        matched_disc_floor,
        require_quad_order,
        szbar_constancy_experiment,
    )

    start = time.perf_counter()
    if args.kind == "szbar":
        given = {"--poly": args.poly, "--poly-file": args.poly_file, "--tol": args.tol}
        unread = [flag for flag, value in given.items() if value is not None]
        if unread:
            raise InputError(f"experiment szbar takes no {', '.join(unread)}")
    _require_positive_tol(args.tol)
    e = _load_float_ellipse(args)
    if args.kind == "szbar":
        rep = szbar_constancy_experiment(e, M=args.nodes, basis_degree=args.degree)
        report = rep.to_json_dict()
        report["matched_disc_floor"] = matched_disc_floor(
            e, M=args.nodes, basis_degree=args.degree
        )
        _emit(report, args, runtime_s=time.perf_counter() - start)
        return 0
    # harmonic-compare
    p = parse_poly_real(_read_poly_source(args), dim=2)
    if not is_harmonic(p):
        raise InputError("harmonic-compare requires harmonic input data")
    if not e.is_disc():
        raise InputError("harmonic-compare requires a disc (a = b)")
    try:
        require_quad_order(p, args.degree, AREA_QUAD_ORDER)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = harmonic_szego_bergman_check(e, p, basis_degree=args.degree, M=args.nodes)
    report = rep.to_json_dict()
    passed = True
    if args.tol is not None:
        passed = rep.max_coeff_deviation < args.tol
        report["tolerance"] = args.tol
        report["passed"] = passed
    _emit(report, args, runtime_s=time.perf_counter() - start)
    return 0 if passed else 1


def run_all():
    """The acceptance suite's results, one per criterion, in order."""
    from .acceptance import run_all as run_criteria

    return run_criteria()


def _cmd_suite(args) -> int:
    """Text format prints one line per criterion and a summary; in JSON
    format stdout holds only the report, or nothing with --out."""
    start = time.perf_counter()
    results = run_all()
    timed = not args.no_timestamp
    all_passed = all(r.passed for r in results)
    if args.format == "text":
        for result in results:
            print(result.line(timed))
        on_time = all(r.runtime_s < r.time_limit_s for r in results)
        print(
            f"{'OK' if all_passed else 'FAILED'}: {sum(r.passed for r in results)}"
            f"/{len(results)} criteria passed"
            + ("" if on_time else " (time limit exceeded)")
        )
    if args.format == "json" or args.out:
        report = {
            "command": "suite",
            "criteria": [r.to_json_dict(timed) for r in results],
            "all_passed": all_passed,
        }
        _emit(report, args, runtime_s=time.perf_counter() - start)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szegopoly",
        description=(
            "Exact weighted Szego projections of polynomials on ellipses, "
            "polynomial Dirichlet solutions on ellipsoids, and numerical "
            "cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, poly: bool, numeric: bool, ellipse: bool = True,
                   ellipsoid: bool = False):
        domain = p.add_mutually_exclusive_group()
        if ellipse:
            domain.add_argument("--ellipse", help="ellipse as 'a,b[,h,k]' with rational entries")
        if ellipsoid:
            domain.add_argument("--ellipsoid", help="path to an ellipsoid JSON descriptor")
        if poly:
            p.add_argument("--poly", help="polynomial text (z/zbar or x/y syntax)")
            p.add_argument("--poly-file", help="path to a polynomial text file")
        if numeric:
            p.add_argument("--nodes", type=int, default=1024,
                           help="boundary quadrature nodes (even, 16 to 65536)")
            p.add_argument("--degree", type=int, default=12,
                           help="holomorphic basis degree")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamp/runtime for byte-identical output")

    p = sub.add_parser("dirichlet", help="solve the polynomial Dirichlet problem")
    add_common(p, poly=True, numeric=False, ellipsoid=True)
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("szego", help="exact weighted Szego projection")
    add_common(p, poly=True, numeric=False)
    p.set_defaults(func=_cmd_szego)

    p = sub.add_parser("verify", help="cross-check exact projection numerically")
    add_common(p, poly=True, numeric=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="numerical experiments")
    p.add_argument("kind", choices=("szbar", "harmonic-compare"))
    add_common(p, poly=True, numeric=True)
    p.add_argument("--tol", type=float, default=None,
                   help="optional pass/fail tolerance for harmonic-compare")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("suite", help="run the acceptance suite")
    add_common(p, poly=False, numeric=False, ellipse=False)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
