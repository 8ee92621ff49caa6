"""Output guard: the exact JSON reports of szego, dirichlet and verify, byte for byte.

The expected text of each case is kept in cli_outputs.json beside this
file.  The exact answers are unique, so any change to them is a fault,
whatever the code path that computes them.  verify's float fit (the
numeric coefficients, their largest deviation and the condition
estimate) depends on the BLAS under numpy, so those three fields are
checked for presence and finiteness only; every other verify field,
including the symbolic coefficients, is pinned.

After a deliberate change of output, rewrite the file with

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from szegopoly.cli import main

EXPECTED = Path(__file__).with_name("cli_outputs.json")

# verify's fields that come from the float fit.
FLOAT_FIT = ("condition_estimate", "max_coeff_deviation", "numeric_coefficients")

CASES = {
    "szego_disc": ["szego", "--ellipse", "1,1", "--poly", "zbar^3+z*zbar^2+2"],
    "szego_shifted_degree_10": [
        "szego", "--ellipse", "2,1,1/3,-1/2",
        "--poly", "(z+2*zbar-1/3)^10 + i*z^2*zbar^7 - 5/7*zbar^4",
    ],
    "szego_shifted_xy": [
        "szego", "--ellipse", "5,4,-2/3,1/3", "--poly", "x^3*y - 1/2*y^2 + 1/7*x",
    ],
    "dirichlet_shifted_disc": [
        "dirichlet", "--ellipse", "3,3,1/2,1/5", "--poly", "x^4-3*x*y^2+1",
    ],
    "dirichlet_shifted_degree_8": [
        "dirichlet", "--ellipse", "3,2,-1/3,2/3", "--poly", "(x-2*y+1/5)^8 + x*y^3",
    ],
    "verify_shifted": ["verify", "--ellipse", "2,1,1/3,-1/2", "--poly", "zbar^2+z*zbar"],
    "verify_disc": ["verify", "--ellipse", "2,2", "--poly", "zbar^4 + (1/3-i)*z*zbar^2"],
}


def _report(argv) -> tuple[int, str]:
    """The exit code and stdout of the CLI on argv, as JSON without a timestamp."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json", "--no-timestamp"])
    return code, out.getvalue()


def _pinned(command: str, text: str) -> str:
    """The report text with verify's float-fit fields taken out."""
    if command != "verify":
        return text
    report = json.loads(text)
    for key in FLOAT_FIT:
        del report[key]
    return json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_report_is_byte_identical_to_the_recorded_one(name):
    argv = CASES[name]
    code, text = _report(argv)
    assert code == 0
    assert _pinned(argv[0], text) == json.loads(EXPECTED.read_text())[name]
    if argv[0] == "verify":
        report = json.loads(text)
        assert math.isfinite(report["condition_estimate"])
        assert report["max_coeff_deviation"] < report["tolerance"]
        assert len(report["numeric_coefficients"]) == len(report["symbolic_coefficients"])


def test_every_case_has_a_recorded_report():
    assert sorted(json.loads(EXPECTED.read_text())) == sorted(CASES)


if __name__ == "__main__":
    recorded = {}
    for name, argv in CASES.items():
        code, text = _report(argv)
        if code:
            sys.exit(f"{name}: exit {code}")
        recorded[name] = _pinned(argv[0], text)
    EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
