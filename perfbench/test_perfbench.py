"""Smoke tests of the benchmark runner at tiny sizes.

Each workload runs in this process through run.main(), the same entry point
the benchmark command uses, for a fraction of a second.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPORTED_E2E = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "fail_ratio", "peak_rss_mb")


@pytest.fixture
def bench(monkeypatch, capsys):
    for var in run.THREAD_VARS:  # main() pins these; restore them afterwards
        monkeypatch.setenv(var, "1")

    def call(workload, *, seed=3, trace=0, seconds=0.3):
        code = run.main([
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", "tiny",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return json.loads(lines[-1]), "\n".join(lines[:-1])

    return call


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(bench, workload, trace):
    result, report = bench(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert m["unit"] in next(line for line in report.splitlines() if line.startswith(m["name"]))
    if not trace:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0
        for name in REPORTED_E2E:
            assert any(line.startswith(name) for line in report.splitlines()), name


def test_traced_counts_repeat_exactly(bench):
    first, _ = bench("szego_cold", trace=1)
    second, _ = bench("szego_cold", trace=1)
    for name in ("linalg.solve_exact.cells", "szego.operator_A.calls", "rational.max_coeff_bits"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


def test_tampered_projection_counts_as_failed(bench, monkeypatch):
    import szegopoly.szego as szego
    from szegopoly.polynomials import PolyZZbar

    project = szego.szego_project

    def tampered(e, f, **kwargs):
        d = project(e, f, **kwargs)
        return dataclasses.replace(d, projection=d.projection + PolyZZbar.constant(Fraction(1, 7)))

    monkeypatch.setattr(szego, "szego_project", tampered)
    result, report = bench("szego_cold")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "residual_zero" in report


def test_digest_mismatch_fails_every_operation(bench, monkeypatch):
    import szegopoly.boundary as boundary

    seed = json.loads((run.HERE / "digests.json").read_text())["seed"]
    result, report = bench("crosscheck", seed=seed)
    assert result["correct"] and "match the reference" in report

    convert = boundary.holomorphic_coeffs_in_scaled_basis

    def nudged(p, e, degree):  # far below every numeric tolerance
        out = convert(p, e, degree)
        out[0] += 1e-13
        return out

    monkeypatch.setattr(boundary, "holomorphic_coeffs_in_scaled_basis", nudged)
    result, report = bench("crosscheck", seed=seed)
    assert "MISMATCH" in report
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench_dir = tmp_path / run.HERE.name
    bench_dir.mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bench_dir)
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "szego_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
