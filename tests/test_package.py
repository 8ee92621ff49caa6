"""The package surface: exported names, and the exact side starting without numpy."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import szegopoly
from szegopoly import szego
from szegopoly.domains import Ellipse
from szegopoly.polynomials import PolyZZbar

SRC = Path(szegopoly.__file__).resolve().parents[1]

# Runs in a fresh interpreter and prints, after each step, whether numpy
# has been imported.
IMPORT_PROBE = """
import json, sys
steps = {}
import szegopoly
steps["import"] = "numpy" in sys.modules
szegopoly.clear_caches()
steps["clear_caches"] = "numpy" in sys.modules
from szegopoly.cli import main
main(["szego", "--ellipse", "2,1,1/2,-1/3", "--poly", "zbar^3 + z*zbar", "--no-timestamp"])
steps["szego"] = "numpy" in sys.modules
main(["dirichlet", "--ellipse", "2,1", "--poly", "x^3 + x*y^2", "--no-timestamp"])
steps["dirichlet"] = "numpy" in sys.modules
main(["verify", "--ellipse", "2,1", "--poly", "zbar", "--nodes", "64", "--degree", "4",
      "--no-timestamp"])
steps["verify"] = "numpy" in sys.modules
print(json.dumps(steps), file=sys.stderr)
"""


def _run_python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's src/ on the import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120,
    )


def test_exact_commands_never_import_numpy():
    proc = _run_python("-c", IMPORT_PROBE)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stderr.strip().splitlines()[-1])
    assert steps == {
        "import": False,
        "clear_caches": False,
        "szego": False,
        "dirichlet": False,
        "verify": True,
    }


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from szegopoly import *", namespace)
    for name in szegopoly.__all__:
        assert namespace[name] is getattr(szegopoly, name)


def test_dir_lists_every_exported_name():
    assert set(szegopoly.__all__) <= set(dir(szegopoly))


def test_clear_caches_before_and_after_the_harness_is_imported(monkeypatch):
    from szegopoly import boundary

    e = Ellipse(2, 1)
    boundary.boundary_grid(e, 64)
    szego.szego_project(e, PolyZZbar.var_zbar())

    # As in a process that has not yet imported the harness: clear_caches
    # empties the exact memo and neither imports nor touches the float ones.
    monkeypatch.delitem(sys.modules, "szegopoly.boundary")
    szegopoly.clear_caches()
    assert szego._square_system.cache_info().currsize == 0
    assert "szegopoly.boundary" not in sys.modules
    assert boundary._boundary_grid.cache_info().currsize > 0

    monkeypatch.undo()
    szegopoly.clear_caches()
    assert boundary._boundary_grid.cache_info().currsize == 0


def _traced(builder):
    """A plain wrapper, as a span tracer puts in place of a public builder."""

    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        return builder(*args, **kwargs)

    return wrapper


def test_clear_caches_empties_memos_behind_traced_builders(monkeypatch):
    from szegopoly import boundary

    for name in ("boundary_grid", "area_quadrature"):
        monkeypatch.setattr(boundary, name, _traced(getattr(boundary, name)))
    e, f = Ellipse(2, 1), PolyZZbar.var_zbar()
    boundary.compare_symbolic_numeric(e, f, M=64, basis_degree=4)
    proj = boundary.numerical_bergman(e, f, 4, quad_order=16)
    boundary.bergman_residual_orthogonality(e, f, proj, quad_order=16)
    memos = (*szego._MEMOS, *boundary._MEMOS)
    assert all(memo.cache_info().currsize for memo in memos)

    szegopoly.clear_caches()
    assert not any(memo.cache_info().currsize for memo in memos)


def test_python_dash_m_runs_the_cli():
    proc = _run_python("-m", "szegopoly", "szego", "--ellipse", "2,1", "--poly", "z",
                       "--format", "json", "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["projection"] == "(1+0i)*z^1*zbar^0"
    proc = _run_python("-m", "szegopoly", "szego", "--ellipse", "2,zzz", "--poly", "z")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: bad ellipse parameter")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--ellipse", "1e400,1", "--poly", "z"], 2),
        (["experiment", "szbar", "--ellipse", "1e400,1"], 2),
        (["experiment", "harmonic-compare", "--ellipse", "1e400,1e400", "--poly", "x"], 2),
        (["verify", "--ellipse", "1e200,1e200", "--poly", "zbar"], 2),
        (["verify", "--ellipse", "1e-300,1", "--poly", "zbar"], 2),
        (["verify", "--ellipse", "1e-400,1", "--poly", "z"], 2),
        (["verify", "--ellipse", "1,1,1e308,0", "--poly", "z"], 2),
        # the ellipse is in range; a coefficient of the data is not
        (["verify", "--ellipse", "2,1", "--poly", "10^400*z"], 1),
        # in range, but the float harness overflows inside numpy (zbar^4
        # is about 1e400 on the boundary)
        (["verify", "--ellipse", "1e100,1e100", "--poly", "zbar^4"], 1),
        (["experiment", "harmonic-compare", "--ellipse", "1e100,1e100",
          "--poly", "x^4-6*x^2*y^2+y^4"], 1),
    ],
)
def test_float_commands_out_of_double_range_fail_in_one_line(argv, code):
    proc = _run_python("-m", "szegopoly", *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert ("out of double range" in proc.stderr) == (code == 2)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("command, poly", [("szego", "z"), ("dirichlet", "x")])
def test_exact_commands_take_ellipses_out_of_double_range(command, poly):
    proc = _run_python("-m", "szegopoly", command, "--ellipse", "1e400,1", "--poly", poly)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
