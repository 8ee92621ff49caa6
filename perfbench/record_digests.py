"""Record the reference digests of exact outputs that run.py checks against.

    python3 perfbench/record_digests.py

Runs the first operations of every workload at the reference seed, without
timing, and writes each operation's digest to digests.json.  Run it only
when the exact outputs are meant to change; a run at the reference seed
whose digests differ counts every one of its operations as failed.
"""

from __future__ import annotations

import json

import run

REFERENCE_SEED = 0
# Operations recorded per workload: about three times what a 20 s run checks.
COUNTS = {
    "normal": {"szego_cold": 75, "szego_warm": 480, "dirichlet_3d": 150, "crosscheck": 3000},
    "tiny": {"szego_cold": 200, "szego_warm": 200, "dirichlet_3d": 200, "crosscheck": 200},
}


def main() -> None:
    run.import_package()
    import workloads

    out = {"seed": REFERENCE_SEED, "digests": {}}
    for size, counts in COUNTS.items():
        for name, count in counts.items():
            wl = workloads.WORKLOADS[name]
            params = wl.sizes[size]
            state, inputs = run.prepare(wl, params, REFERENCE_SEED, count)
            done = run.run_pass(wl, params, REFERENCE_SEED, state, inputs, count=count)
            if done.failures:
                raise SystemExit(f"{size}/{name}: operation failures {done.failures[:3]}")
            out["digests"].setdefault(size, {})[name] = done.digests
            print(f"{size}/{name}: {count} operations recorded", flush=True)
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(out, indent=0) + "\n", encoding="utf-8")
    print(f"written: {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
