"""szegopoly benchmark runner.

    python3 perfbench/run.py --workload szego_cold --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and RATIONALE.md) in this process as a
closed loop of one client: the next operation starts when the previous one
has finished.  It imports szegopoly from ``src/`` of the checkout it sits
in, checks every output, and prints a human-readable report followed, as
the last line, by one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: set-up is done
SETUPS times and its median reported, then operations run until their
summed latency reaches --seconds.  Times are host-corrected; see
reference_s().

--trace 1 measures the per-layer metrics: a fixed number of operations
(fixed by workload, size and --seconds, so counts repeat exactly at a fixed
seed) runs once untraced and once with span wrappers installed, and the
ratio of the two is trace.overhead_ratio.  Spans are written to
perfbench/out/ at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
# About the fastest reference_s() seen on the reference machine (2-core
# Intel Xeon VM, Python 3.11.7); it only sets the scale of reported times.
REFERENCE_PROBE_S = 1.4e-3
P90_MIN_OPS = 100
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


@dataclass
class Pass:
    """One closed-loop pass over operations 0, 1, 2, ..."""

    latencies: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference_s() before each op, and after the last
    failures: list[tuple[int, str]] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    busy_s: float = 0.0  # summed latency

    def corrected(self) -> list[float]:
        """Latencies scaled to the reference host speed (see reference_s())."""
        return [
            lat * REFERENCE_PROBE_S / ((self.refs[i] + self.refs[i + 1]) / 2)
            for i, lat in enumerate(self.latencies)
        ]


def reference_s() -> float:
    """Wall time of a fixed piece of exact-rational work: a probe of host speed.

    On a shared machine the CPU speed one process sees drifts by up to 2x
    over seconds to minutes (RATIONALE.md, "Host speed").  The benchmark runs
    this probe around every timed piece of work and scales that work's time
    by REFERENCE_PROBE_S / (mean of the probes around it): reported times
    are those of a host on which the probe takes REFERENCE_PROBE_S.  The
    probe uses only the standard library, so no change to szegopoly moves it.
    """
    start = time.perf_counter()
    x, acc = Fraction(1, 3), Fraction(0)
    for k in range(1, 400):
        acc += x * Fraction(k, k + 1)
    return time.perf_counter() - start


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("normal", "tiny"), default="normal",
        help="tiny shrinks every input, for the benchmark's own smoke tests",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package() -> None:
    """Import szegopoly from this checkout's src/; make this directory importable."""
    src = ROOT / "src"
    if not (src / "szegopoly" / "__init__.py").is_file():
        raise BenchError(f"no szegopoly sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import szegopoly

    if not Path(szegopoly.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"szegopoly was imported from {szegopoly.__file__}, not {src}")


def environment(args) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def prepare(wl, params, seed, n_inputs):
    """Set-up: draw the workload's state and the first n_inputs inputs as text."""
    import workloads

    workloads.reset_caches()
    state = wl.setup(seed, params)
    inputs = [wl.make_input(seed, i, state, params) for i in range(n_inputs)]
    return state, inputs


def run_pass(wl, params, seed, state, inputs, *, seconds=None, count=None, tracer=None) -> Pass:
    """Run operations until their summed latency reaches seconds, or count of them."""
    import workloads

    block = max(len(inputs), 1)
    out = Pass()
    i = 0
    while (count is None and out.busy_s < seconds) or (count is not None and i < count):
        if i == len(inputs):  # more inputs than set-up made; drawn outside the timer
            inputs.extend(wl.make_input(seed, j, state, params) for j in range(i, i + block))
        if wl.fresh_caches_per_op:
            workloads.reset_caches()
            if tracer is not None:
                tracer.caches_reset()
        if tracer is not None:
            tracer.op = i
        out.refs.append(reference_s())
        start = time.perf_counter()
        try:
            outcome = wl.run(state, inputs[i], params)
        except Exception:  # an operation that raises is counted, never fatal
            outcome = None
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        out.latencies.append(latency)
        out.busy_s += latency
        if outcome is None:
            out.failures.append((i, error))
            out.digests.append("error")
        else:
            if outcome.failure is not None:
                out.failures.append((i, outcome.failure))
            out.digests.append(hashlib.sha256(outcome.digest_text.encode()).hexdigest()[:12])
            if tracer is not None:
                tracer.note_exact(*outcome.exact)
        i += 1
    out.refs.append(reference_s())
    return out


def check_digests(digests: list[str], args) -> tuple[bool, str]:
    """Compare per-operation digests with the reference recorded for this seed."""
    run_digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]
    ref_path = HERE / "digests.json"
    if not ref_path.is_file():
        return True, f"digest {run_digest}: no reference recorded"
    ref = json.loads(ref_path.read_text(encoding="utf-8"))
    if args.seed != ref["seed"]:
        return True, f"digest {run_digest}: no reference for seed {args.seed} (reference seed {ref['seed']})"
    expected = ref["digests"].get(args.size, {}).get(args.workload, [])
    if not expected:
        return True, f"digest {run_digest}: no reference for {args.size}/{args.workload}"
    n = min(len(expected), len(digests))
    for i in range(n):
        if digests[i] != expected[i]:
            return False, (
                f"digest {run_digest}: MISMATCH at operation {i} "
                f"({digests[i]} != reference {expected[i]}); every operation counts as failed"
            )
    return True, f"digest {run_digest}: operations 0..{n - 1} match the reference for seed {args.seed}"


def failed_executions(passes: list[Pass], args, lines) -> set[tuple[int, int]]:
    """The (pass, operation) executions that failed.

    An execution fails when a check fails or it raises, or when its exact
    outputs differ from the first pass's.  At the reference seed, one
    operation of the first pass that differs from digests.json fails every
    execution of the run.
    """
    first = passes[0].digests
    failed = {(k, i) for k, p in enumerate(passes) for i, _ in p.failures}
    for k, p in enumerate(passes[1:], start=1):
        for i, digest in enumerate(p.digests):
            if digest != first[i]:
                failed.add((k, i))
                lines.append(f"operation {i} FAILED: pass {k + 1} gave other exact outputs than pass 1")
    ok, note = check_digests(first, args)
    lines.append(note)
    report_failures([f for p in passes for f in p.failures], lines)
    if not ok:
        failed = {(k, i) for k, p in enumerate(passes) for i in range(len(p.digests))}
    return failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_import() -> float:
    """Host-corrected seconds a fresh interpreter takes to import szegopoly from src/."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); from run import reference_s; "
        "p = reference_s(); t = time.perf_counter(); import szegopoly; "
        "print(time.perf_counter() - t, p, reference_s())"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    seconds, before, after = (float(x) for x in proc.stdout.split())
    return seconds * REFERENCE_PROBE_S / ((before + after) / 2)


def untraced(wl, params, args, spec, lines, out_record) -> tuple[dict, int, int]:
    setups = []  # (import seconds, input and warm-up seconds), both host-corrected
    pool = math.ceil(args.seconds * params["ops_per_s"] * 1.5)
    for _ in range(SETUPS):
        import_s = time_import()
        before = reference_s()
        start = time.perf_counter()
        state, inputs = prepare(wl, params, args.seed, pool)
        elapsed = time.perf_counter() - start
        setups.append((import_s, elapsed * REFERENCE_PROBE_S / ((before + reference_s()) / 2)))
    run = run_pass(wl, params, args.seed, state, inputs, seconds=args.seconds)
    failed = failed_executions([run], args, lines)
    attempted = len(run.latencies)
    certified = attempted - len(failed)

    lat_ms = sorted(x * 1000.0 for x in run.corrected())
    raw_ms = statistics.median(run.latencies) * 1000.0
    setup_s = [i + p for i, p in setups]
    ops = f"n={attempted} ops"
    values = {
        "setup_s": (statistics.median(setup_s), "s",
                    f"median of {SETUPS} set-ups: " + ", ".join(
                        f"{i + p:.3f} (import {i:.3f})" for i, p in setups)),
        "ops_per_s": (certified * 1000.0 / sum(lat_ms), "1/s",
                      f"{certified} certified ops in {sum(lat_ms) / 1000:.2f} s "
                      f"(raw {run.busy_s:.2f} s)"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms", f"{ops} (raw {raw_ms:.3f} ms)"),
    }
    if attempted >= P90_MIN_OPS:
        values["latency_p90_ms"] = (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms", ops)
    else:
        lines.append(f"latency_p90_ms   not reported: {attempted} ops < {P90_MIN_OPS}")
    values["fail_ratio"] = (len(failed) / attempted, "ratio", f"{len(failed)} failed of {attempted} attempted")
    values["peak_rss_mb"] = (peak_rss_mb(), "MB", "ru_maxrss of this process")
    lines.append(f"host probe: median {statistics.median(run.refs) * 1000:.3f} ms, fastest "
                 f"{min(run.refs) * 1000:.3f} ms over {len(run.refs)} probes; times below are "
                 f"scaled to a {REFERENCE_PROBE_S * 1000:.3f} ms probe")
    for name, (value, unit, samples) in values.items():
        lines.append(f"{name:<16} {value:>14.6f} {unit:<6} {samples}")
    out_record["latencies_ms"] = [x * 1000.0 for x in run.latencies]
    out_record["probes_ms"] = [x * 1000.0 for x in run.refs]
    out_record["setups_s"] = setups
    metrics = select(spec["end_to_end"], {k: v[0] for k, v in values.items()})
    return metrics, attempted, len(failed)


def traced(wl, params, args, spec, lines, out_record) -> tuple[dict, int, int]:
    import spans

    count = max(1, math.ceil(args.seconds * params["ops_per_s"] / 2))
    state, inputs = prepare(wl, params, args.seed, count)
    plain = run_pass(wl, params, args.seed, state, inputs, count=count)
    state, inputs = prepare(wl, params, args.seed, count)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run = run_pass(wl, params, args.seed, state, inputs, count=count, tracer=tracer)
    finally:
        tracer.uninstall()

    failed = failed_executions([plain, run], args, lines)

    summary = tracer.summary()
    lines.append(f"{count} operations traced in {run.busy_s:.3f} s "
                 f"(untraced {plain.busy_s:.3f} s)")
    lines.append(f"{'span':<52} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'busy share':>10}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["busy_s"]):
        lines.append(f"{name:<52} {row['calls']:>8} {row['busy_s']:>10.4f} "
                     f"{row['self_s']:>10.4f} {row['busy_s'] / run.busy_s:>10.1%}")
    values = {m["name"]: tracer.metric(m["name"], summary) for m in spec["per_layer"]}
    values["trace.overhead_ratio"] = sum(run.corrected()) / sum(plain.corrected())
    for m in spec["per_layer"]:
        lines.append(f"{m['name']:<52} {values[m['name']]:>14.6f} {m['unit']}")
    out_record["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]
    return select(spec["per_layer"], values), 2 * count, len(failed)


def select(declared: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this runner does not compute: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def report_failures(failures, lines, limit=5) -> None:
    for i, why in failures[:limit]:
        lines.append(f"operation {i} FAILED: {why.strip()}")
    if len(failures) > limit:
        lines.append(f"... and {len(failures) - limit} more failed operations")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        import_package()
        import workloads

        wl = workloads.WORKLOADS.get(args.workload)
        if wl is None:
            raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
        params = wl.sizes[args.size]
        env = environment(args)
        lines = [f"# szegopoly benchmark, trace={args.trace}", f"# env: {json.dumps(env)}"]
        record = {"env": env}
        if args.trace:
            metrics, attempted, failed = traced(wl, params, args, spec, lines, record)
        else:
            metrics, attempted, failed = untraced(wl, params, args, spec, lines, record)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record), encoding="utf-8")
    print("\n".join(lines))
    print(f"# written: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
