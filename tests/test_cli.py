"""CLI behavior: outputs, round trips, exit codes, determinism."""

import contextlib
import io
import json
import re
import shlex
import warnings
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import szegopoly
from szegopoly import boundary
from szegopoly.acceptance import CriterionResult
from szegopoly.boundary import MAX_BASIS_CELLS, MAX_NODES
from szegopoly.cli import main
from szegopoly.parsing import parse_poly_real, parse_poly_zzbar
from szegopoly.polynomials import PolyRealN, PolyZZbar

Z = PolyZZbar.var_z()
ZB = PolyZZbar.var_zbar()

# One basis column more than MAX_NODES nodes may carry.
TOO_WIDE = str(MAX_BASIS_CELLS // MAX_NODES)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json", "--no-timestamp")
    return code, json.loads(out), err


def test_szego_flagship(capsys):
    code, report, _ = run_json(capsys, "szego", "--ellipse", "2,1,0,0", "--poly", "zbar")
    assert code == 0
    assert parse_poly_zzbar(report["projection"]) == Z * __import__("fractions").Fraction(3, 5)
    assert report["checks"]["passed"] is True
    # emitted polynomials re-parse to identical values
    assert parse_poly_zzbar(report["input"]) == ZB


def test_dirichlet_example(capsys):
    code, report, _ = run_json(
        capsys, "dirichlet", "--ellipse", "2,1,0,0", "--poly", "x^2"
    )
    assert code == 0
    x = PolyRealN.variable(2, 0)
    y = PolyRealN.variable(2, 1)
    from fractions import Fraction

    expected = (x * x - y * y + PolyRealN.constant(2, 1)) * Fraction(4, 5)
    assert parse_poly_real(report["solution"]) == expected
    assert report["all_passed"] is True


def test_dirichlet_with_ellipsoid_file(capsys, tmp_path):
    desc = tmp_path / "ball.json"
    desc.write_text(json.dumps({
        "dim": 3,
        "Q": ["1", "0", "0", "0", "1", "0", "0", "0", "1"],
        "center": ["0", "0", "0"],
    }))
    code, report, _ = run_json(
        capsys, "dirichlet", "--ellipsoid", str(desc),
        "--poly", "x1^2 + x2^2 + x3^2",
    )
    assert code == 0
    solution = parse_poly_real(report["solution"], dim=3)
    assert solution == PolyRealN.constant(3, 1)


@pytest.mark.parametrize(
    "description",
    [
        [1, 2],
        "x",
        {"dim": 2, "Q": 5, "center": [0, 0]},
        {"dim": 2, "Q": [1, 0, 0, 1], "center": "12"},
        {"a": 2, "b": 1, "h": [1]},
        {"dim": 2.7, "Q": [1, 0, 0, 1], "center": [0, 0]},
        {"dim": True, "Q": [1], "center": [0]},
        {"dim": 2, "Q": [0.1, 0, 0, 1], "center": [0, 0]},
        {"a": 2, "b": 1, "k": 0.5},
        {"a": True, "b": 1},
        {"a": "1/0", "b": 1},
        {"dim": 101, "Q": [int(i == j) for i in range(101) for j in range(101)],
         "center": [0] * 101},
    ],
)
def test_malformed_ellipsoid_file_is_bad_input(capsys, tmp_path, description):
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps(description))
    code, out, err = run_cli(
        capsys, "dirichlet", "--ellipsoid", str(desc), "--poly", "x^2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot load ellipsoid: ")
    assert len(err.strip().splitlines()) == 1


def test_ellipsoid_file_takes_ints_and_rational_strings(capsys, tmp_path):
    desc = tmp_path / "disc.json"
    desc.write_text(json.dumps({"a": "3/2", "b": 1, "h": "0.5", "k": -2}))
    code, report, _ = run_json(capsys, "dirichlet", "--ellipsoid", str(desc), "--poly", "x")
    assert code == 0
    assert report["domain"]["center"] == ["1/2", "-2"]


def test_verify_command(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--ellipse", "2,1,0,0", "--poly", "zbar",
        "--nodes", "512", "--degree", "10",
    )
    assert code == 0
    assert report["passed"] is True
    assert report["max_coeff_deviation"] < 1e-8


def test_verify_fails_with_absurd_tolerance(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--ellipse", "2,1,0,0", "--poly", "zbar",
        "--tol", "1e-30",
    )
    assert code == 1
    assert report["passed"] is False


def test_experiment_szbar_disc(capsys):
    code, report, _ = run_json(
        capsys, "experiment", "szbar", "--ellipse", "1,1,0,0",
        "--nodes", "256", "--degree", "8",
    )
    assert code == 0
    assert report["deviations"]["from_constant"] < 1e-12


def test_experiment_harmonic_compare(capsys):
    code, report, _ = run_json(
        capsys, "experiment", "harmonic-compare", "--ellipse", "1,1,0,0",
        "--poly", "x", "--nodes", "256", "--degree", "8", "--tol", "1e-8",
    )
    assert code == 0
    assert report["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--ellipse", "2,1,1/3,-1/2", "--poly", "z^2*zbar"),
        ("experiment", "szbar", "--ellipse", "2,1"),
        ("experiment", "harmonic-compare", "--ellipse", "1,1", "--poly", "x^2-y^2"),
    ],
    ids=["verify", "szbar", "harmonic-compare"],
)
def test_text_output_prints_plain_floats(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--nodes", "256", "--degree", "8", "--no-timestamp")
    assert code == 0
    assert "coefficients: [[" in out
    assert "np." not in out


def test_parse_error_exit_code_and_message(capsys):
    code, out, err = run_cli(capsys, "szego", "--ellipse", "2,1,0,0", "--poly", "z +")
    assert code == 2
    assert "column" in err


@pytest.mark.parametrize("poly, column", [("x^2/4", 3), ("x/4", 2)])
def test_division_is_bad_input_that_shows_the_coefficient_form(capsys, poly, column):
    code, out, err = run_cli(capsys, "dirichlet", "--ellipse", "2,1", "--poly", poly)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: parse error at column {column}: ")
    assert err.endswith("(polynomial text has no division: write 1/4*x^2, not x^2/4)\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "poly", ["1/0", "(1/0i)*z", "z^99999999999", "z^2000000000*z^2000000000"]
)
def test_unrepresentable_poly_is_bad_input(capsys, poly):
    code, out, err = run_cli(capsys, "szego", "--ellipse", "2,1", "--poly", poly)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse error at column")
    assert len(err.strip().splitlines()) == 1


def test_dimension_past_the_bound_is_bad_input(capsys):
    code, out, err = run_cli(capsys, "dirichlet", "--ellipse", "2,1", "--poly", "x100000")
    assert code == 2
    assert out == ""
    assert err == "error: parse error at column 1: 'x100000' is past the bound of 100 variables\n"


def test_coefficients_past_the_int_str_digit_limit_are_written(capsys):
    # 2^20000 has 6,021 digits, past the interpreter's default limit of 4,300.
    code, report, err = run_json(capsys, "szego", "--ellipse", "2,1", "--poly", "2^20000*z")
    assert code == 0, err
    assert parse_poly_zzbar(report["projection"]) == PolyZZbar.monomial(1, 0, 2**20000)


def test_bad_ellipse_exit_code(capsys):
    code, _, err = run_cli(capsys, "szego", "--ellipse", "2,zzz", "--poly", "z")
    assert code == 2
    assert err


def test_missing_poly_exit_code(capsys):
    code, _, err = run_cli(capsys, "szego", "--ellipse", "2,1,0,0")
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ("verify", "--ellipse", "2,1,0,0", "--poly", "z*zbar"),
        ("experiment", "harmonic-compare", "--ellipse", "1,1,0,0", "--poly", "x"),
    ],
    ids=["verify", "harmonic-compare"],
)
def test_tolerance_must_be_finite_and_positive(capsys, command, tol):
    code, out, err = run_cli(capsys, *command, "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tolerance must be finite and positive" in err


def test_verify_json_repeats_byte_for_byte(capsys):
    # the first run builds the quadrature grid and basis, the second reuses them
    szegopoly.clear_caches()
    argv = ("verify", "--ellipse", "2,1,1/3,-1/2", "--poly", "z^2*zbar+(1/2+1i)*zbar^3",
            "--no-timestamp", "--format", "json")
    cold = run_cli(capsys, *argv)
    warm = run_cli(capsys, *argv)
    assert cold[0] == 0
    assert cold == warm


def test_bad_nodes_rejected(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--ellipse", "2,1,0,0", "--poly", "z", "--nodes", "7"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--poly", "z", "--nodes", "0"), "--nodes"),
        (("verify", "--poly", "z", "--nodes", "64", "--degree", "16"), "--degree"),
        (("verify", "--poly", "z", "--degree", "-1"), "--degree"),
        (("verify", "--poly", "z^14"), "degree of the projection"),
        (("experiment", "szbar", "--nodes", "0"), "--nodes"),
        (("experiment", "harmonic-compare", "--poly", "x", "--degree", "22"),
         "quadrature order"),
        (("verify", "--poly", "z", "--nodes", str(MAX_NODES + 2)), "--nodes must be at most"),
        (("verify", "--poly", "z", "--nodes", str(MAX_NODES), "--degree", TOO_WIDE),
         "--nodes times (--degree + 1)"),
        (("experiment", "szbar", "--nodes", str(MAX_NODES + 2)), "--nodes must be at most"),
        (("experiment", "harmonic-compare", "--poly", "x", "--nodes", str(MAX_NODES),
          "--degree", TOO_WIDE), "--nodes times (--degree + 1)"),
    ],
    ids=["nodes-0", "degree-too-large", "degree-negative", "projection-too-high",
         "szbar-nodes-0", "quadrature-too-coarse", "nodes-past-bound",
         "basis-past-bound", "szbar-nodes-past-bound", "harmonic-basis-past-bound"],
)
def test_bad_numeric_arguments_are_bad_input(capsys, argv, message):
    szegopoly.clear_caches()
    code, out, err = run_cli(capsys, *argv, "--ellipse", "1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1
    # Refused before any quadrature grid is built.
    assert boundary._boundary_grid.cache_info().currsize == 0


@pytest.mark.parametrize(
    "extra, flags",
    [
        (("--poly", "garbage((("), "--poly"),
        (("--poly-file", "no-such-file.txt"), "--poly-file"),
        (("--tol", "1e-300"), "--tol"),
        (("--tol", "1e-300", "--poly", "garbage((("), "--poly, --tol"),
    ],
    ids=["poly", "poly-file", "tol", "tol-and-poly"],
)
def test_experiment_szbar_refuses_the_options_it_never_reads(capsys, extra, flags):
    code, out, err = run_cli(
        capsys, "experiment", "szbar", "--ellipse", "2,1", "--nodes", "64",
        "--degree", "4", *extra,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: experiment szbar takes no {flags}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("suite", "--ellipse", "garbage"), "unrecognized arguments: --ellipse garbage"),
        (("dirichlet", "--ellipse", "not,an,ellipse", "--ellipsoid", "e.json",
          "--poly", "x"), "argument --ellipsoid: not allowed with argument --ellipse"),
    ],
    ids=["suite-ellipse", "dirichlet-ellipse-and-ellipsoid"],
)
def test_options_a_command_never_reads_are_bad_input(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert message in captured.err


def test_projection_below_basis_degree_passes_although_input_is_above():
    # |z|^14 = 1 on the unit circle, so deg f = 14 > 12 but deg h = 0
    assert main(["verify", "--ellipse", "1,1", "--poly", "z^7*zbar^7",
                 "--no-timestamp"]) == 0


def test_library_value_error_exits_1_without_traceback(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("solver fault")

    monkeypatch.setattr(szegopoly.cli, "szego_project", failing)
    code, out, err = run_cli(capsys, "szego", "--ellipse", "2,1", "--poly", "zbar")
    assert code == 1
    assert out == ""
    assert err == "error: solver fault\n"


def test_library_overflow_error_exits_1_without_traceback(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise OverflowError("integer division result too large for a float")

    monkeypatch.setattr(boundary, "compare_symbolic_numeric", failing)
    code, out, err = run_cli(capsys, "verify", "--ellipse", "2,1", "--poly", "z")
    assert code == 1
    assert out == ""
    assert err == "error: integer division result too large for a float\n"


def test_verify_names_a_coefficient_too_large_for_a_double(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--ellipse", "7,1e10", "--poly", "2^1000*zbar",
        "--nodes", "16", "--degree", "1",
    )
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: a Gaussian rational of \d+ bits is too large for a double\n", err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--ellipse", "1e100,1e100", "--poly", "zbar^4"],
         "term zbar^4 of the data reaches about 1e400 on the boundary, "
         "beyond the largest double"),
        (["verify", "--ellipse", "1e100,1e100", "--poly", "zbar-2*zbar^4"],
         "term zbar^4 of the data reaches about 2e400 on the boundary, "
         "beyond the largest double"),
        (["experiment", "harmonic-compare", "--ellipse", "1e120,1e120",
          "--poly", "x^4-6*x^2*y^2+y^4"],
         "term x^2*y^2 of the data reaches about 6e480 on the boundary, "
         "beyond the largest double"),
    ],
)
def test_float_overflow_names_the_term_beyond_the_largest_double(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_float_overflow_within_the_data_bound_keeps_numpy_message(capsys):
    # 2*z*zbar^2 is at most about 2e300 on this boundary, a double; the
    # harness overflows elsewhere, so no term of the data is named.
    code, out, err = run_cli(capsys, "verify", "--ellipse", "1e100,1e-57", "--poly", "2*z*zbar^2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: overflow encountered") and err.count("\n") == 1


def test_readme_form_for_a_value_that_starts_with_a_dash(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"`szegopoly (szego [^`]*--poly=-[^`]*)`", readme).group(1)
    code, report, _ = run_json(capsys, *shlex.split(example))
    assert code == 0
    assert parse_poly_zzbar(report["projection"]) == parse_poly_zzbar("-3/2*z")
    # Given separately, argparse reads the value as an option.
    with pytest.raises(SystemExit) as exc:
        main(["szego", "--ellipse", "2,1", "--poly", "-3/2*z"])
    assert exc.value.code == 2


@pytest.mark.parametrize("scale", ["1e77", "1e100", "1e154"])
def test_verify_reports_past_the_square_range_of_doubles(capsys, scale):
    # The fit's residual squares overflow from about a = 1e77; the report
    # is still written, with a relative deviation at rounding level.
    code, report, err = run_json(capsys, "verify", "--ellipse", f"{scale},{scale}", "--poly", "zbar")
    assert code in (0, 1)
    assert err == ""
    assert report["max_coeff_deviation"] < 1e-12 * float(scale)


@pytest.mark.parametrize("argv", [["suite", "--format", "yaml"], ["suite", "-h"]])
def test_suite_usage_is_printed_without_a_traceback(capsys, argv):
    # suite has no domain option, so it must not get an empty option group,
    # which argparse cannot format.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (out + err).startswith("usage: szegopoly suite [-h]")
    if argv[1] == "-h":
        assert exc.value.code == 0
    else:
        assert exc.value.code == 2
        assert err.splitlines()[-1].startswith("szegopoly suite: error: argument --format")


def test_nonharmonic_data_rejected(capsys):
    code, _, err = run_cli(
        capsys, "experiment", "harmonic-compare", "--ellipse", "1,1,0,0",
        "--poly", "x^2",
    )
    assert code == 2
    assert "harmonic" in err


def test_poly_file_input(capsys, tmp_path):
    poly_path = tmp_path / "f.txt"
    poly_path.write_text("z^2 - zbar\n")
    code, report, _ = run_json(
        capsys, "szego", "--ellipse", "2,1,0,0", "--poly-file", str(poly_path)
    )
    assert code == 0
    assert parse_poly_zzbar(report["input"]) == Z**2 - ZB


def test_undecodable_poly_file_is_bad_input(capsys, tmp_path):
    poly_path = tmp_path / "f.txt"
    poly_path.write_bytes(b"\xff\xfez")
    code, out, err = run_cli(
        capsys, "szego", "--ellipse", "2,1", "--poly-file", str(poly_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read polynomial file: ")
    assert len(err.strip().splitlines()) == 1


def test_output_file_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "szego", "--ellipse", "2,1,0,0", "--poly", "zbar + z^2",
            "--format", "json", "--no-timestamp", "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(
        capsys, "szego", "--ellipse", "2,1,0,0", "--poly", "z", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert "timestamp" in report and "runtime_ms" in report


def test_text_format_contains_projection(capsys):
    code, out, _ = run_cli(
        capsys, "szego", "--ellipse", "2,1,0,0", "--poly", "zbar", "--no-timestamp"
    )
    assert code == 0
    assert "projection: (3/5+0i)*z^1*zbar^0" in out


def _stub_suite(monkeypatch, passed, runtime_s):
    """Make `suite` report the given outcomes at the given runtime, instantly."""
    results = [
        CriterionResult(cid=i + 1, title="t (stub)", passed=ok,
                        runtime_s=runtime_s, time_limit_s=1.0)
        for i, ok in enumerate(passed)
    ]
    monkeypatch.setattr(szegopoly.cli, "run_all", lambda: results)


@pytest.mark.parametrize("passed", [(True, True), (True, False)])
def test_suite_json_stdout_is_the_report(capsys, monkeypatch, tmp_path, passed):
    _stub_suite(monkeypatch, passed, 0.123)
    code, out, _ = run_cli(capsys, "suite", "--format", "json")
    report = json.loads(out)
    assert [c["passed"] for c in report["criteria"]] == list(passed)
    assert report["all_passed"] == all(passed)
    assert (code == 0) == all(passed)
    path = tmp_path / "suite.json"
    code, out, _ = run_cli(capsys, "suite", "--format", "json", "--out", str(path))
    assert out == ""
    assert json.loads(path.read_text())["all_passed"] == all(passed)
    assert (code == 0) == all(passed)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_suite_no_timestamp_output_is_byte_identical(capsys, monkeypatch, fmt):
    outputs = []
    for runtime_s in (0.123, 0.456):
        _stub_suite(monkeypatch, (True, True), runtime_s)
        code, out, _ = run_cli(capsys, "suite", "--format", fmt, "--no-timestamp")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "0.12" not in outputs[0]


# -- the CLI contract over random argument lists ------------------------------------

def _mostly(valid, malformed):
    """A value from valid, or about one time in ten from malformed.  The
    choice is a middle value of 0..9, which hypothesis draws less often than
    the ends."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(malformed if k == 5 else valid))


# Half the draws keep a^2 within double range, for the float commands.
POWERS_OF_TEN = st.one_of(st.integers(-150, 154), st.integers(-150, 308)).map(
    lambda k: f"1e{k}"
)
SMALL_RATIONALS = st.sampled_from(["1", "2", "3/2", "7", "1/100000", "5"])
MALFORMED_FIELDS = ["", "0", "-2", "x", "1/0", "nan", "inf", "1e400", "2^3"]


@st.composite
def ellipse_text(draw, disc=False):
    """'a,b' or 'a,b,h,k' with a, b from 1e-150 to 1e308 and small rationals,
    b = a for a disc; sometimes a malformed field or a wrong field count."""
    def field(centre):
        if draw(_mostly([False], [True])):
            return draw(st.sampled_from(MALFORMED_FIELDS))
        if centre and draw(st.booleans()):
            return draw(st.sampled_from(["0", "-1/3", "1"]))
        return draw(st.one_of(POWERS_OF_TEN, SMALL_RATIONALS))

    fields = [field(k >= 2) for k in range(draw(_mostly([2, 4], [1, 3, 5])))]
    if disc and len(fields) > 1:
        fields[1] = fields[0]
    return ",".join(fields)


COEFFICIENTS = ["", "", "2*", "-3/2*", "2^1000*", "(1/2+3/4i)*", "i*"]
MALFORMED_POLYS = ["", "z +", "x^2/4", "x/4", "(z", "z^99999999999", "w", "z+x", "1e5*z"]


@st.composite
def poly_text(draw, variables):
    """A sum of up to four monomials of degree <= 4 in the two variables,
    each with a coefficient from COEFFICIENTS; sometimes malformed."""
    if draw(_mostly([False], [True])):
        return draw(st.sampled_from(MALFORMED_POLYS))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        p = draw(st.integers(0, 4))
        q = draw(st.integers(0, 4 - p))
        monomial = "*".join(
            [f"{v}^{e}" for v, e in zip(variables, (p, q)) if e] or ["1"]
        )
        terms.append(draw(st.sampled_from(COEFFICIENTS)) + monomial)
    return "+".join(terms)


HARMONIC = ["x^2-y^2", "x", "x^3-3*x*y^2", "2^1000*x*y", "1", "x^4-6*x^2*y^2+y^4"]
NODES, BAD_NODES = ["64", "32", "256", "18", "16"], ["-2", "0", "14", "15", "17", "255"]
DEGREES, BAD_DEGREES = ["4", "3", "2", "1", "0"], ["-1"]
TOLERANCES = ["1e-8", "1", "1e308", "5e-324", "1e-300"]
BAD_TOLERANCES = ["nan", "inf", "-inf", "0", "-1"]


@st.composite
def cli_arguments(draw):
    """(argv, suite): a random argument list of szego, dirichlet, verify or
    either experiment kind, or a bad-input form of suite."""
    command = draw(st.sampled_from(
        ["szego", "dirichlet", "verify", "szbar", "harmonic-compare", "suite"]
    ))
    if command == "suite":
        extra = draw(st.sampled_from([
            ["--ellipse", "2,1"], ["--poly", "z"], ["--nodes", "16"],
            ["--format", "yaml"], ["extra"], ["--tol", "1"],
        ]))
        return ["suite", *extra], True
    argv = ["experiment", command] if command in ("szbar", "harmonic-compare") else [command]
    # --flag=value, so that a value starting with '-' is not read as a flag.
    argv.append(f"--ellipse={draw(ellipse_text(disc=command == 'harmonic-compare'))}")
    if command in ("szego", "verify"):
        argv.append(f"--poly={draw(poly_text(('z', 'zbar')))}")
    elif command == "dirichlet":
        argv.append(f"--poly={draw(poly_text(('x', 'y')))}")
    elif command == "harmonic-compare":
        poly = draw(st.one_of(st.sampled_from(HARMONIC), poly_text(("x", "y"))))
        argv.append(f"--poly={poly}")
    if command in ("verify", "szbar", "harmonic-compare"):
        argv.append(f"--nodes={draw(_mostly(NODES, BAD_NODES))}")
        argv.append(f"--degree={draw(_mostly(DEGREES, BAD_DEGREES))}")
    if command in ("verify", "harmonic-compare") and draw(st.booleans()):
        argv.append(f"--tol={draw(_mostly(TOLERANCES, BAD_TOLERANCES))}")
    argv += ["--format", draw(st.sampled_from(["json", "text"])), "--no-timestamp"]
    return argv, False


@settings(max_examples=600, deadline=timedelta(seconds=5))
@given(cli_arguments())
def test_every_argument_list_exits_0_1_or_2_with_one_error_line(case):
    # Run in process: an exception out of main is the traceback a user would
    # see.  A nonzero exit is a failed check, with its report and nothing on
    # stderr, or an error, with one stderr line and no report.  Only suite's
    # forms are refused by argparse itself, which prints its usage block
    # before the one error line.
    argv, suite = case
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            assert suite, f"argparse refused {argv}: {err.getvalue()}"
            code = exc.code
    assert caught == []
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if suite:
        assert code == 2 and out.getvalue() == ""
        errors = [line for line in lines if "error:" in line]
        assert len(errors) == 1 and lines[-1] == errors[0]
        assert lines[0].startswith("usage: ")
    elif lines:
        # an error: one line, no report
        assert code in (1, 2) and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith(("error: ", "internal check failed: "))
    else:
        # a report; exit 1 is a check that failed
        assert code in (0, 1) and out.getvalue()
