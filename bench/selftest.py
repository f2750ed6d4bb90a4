"""Self-test of the benchmark at reduced size.

Run from the repository root:

    python3 bench/selftest.py

Every workload runs a few short episodes in both modes. The test checks
that each run passes its output checks, that each mode prints exactly the
metrics BENCHMARK.json lists, with their units, and that a corrupted output
(a truncated metrics CSV) is caught as a failed operation. Exits 1 on the
first group of failures, 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run


def _quiet(*args, **kwargs):
    pass


def _small(workload):
    return dataclasses.replace(workload, num_steps=min(workload.num_steps, 4), scored=2)


def main():
    if not run.configure():
        print(f"selftest: no evobeam sources under {run.SRC_DIR}", file=sys.stderr)
        return 2
    from evobeam import reporting

    import harness
    from workloads import WORKLOADS

    spec = json.loads((run.REPO_DIR / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from bench/workloads.py")
    workdir = run.WORK_DIR / "selftest"

    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = harness.run_workload(
                _small(workload), 0, 0.0, trace, workdir / workload.name, run.SRC_DIR, log=_quiet
            )
            label = f"{workload.name} trace={int(trace)}"
            if not result["correct"] or result["failed"] or result["attempted"] < 3:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics {sorted(units.items())} != BENCHMARK.json")
            print(f"{label}: {result['attempted']} attempted, {len(units)} metrics")

    original = reporting.write_metrics_csv

    def truncating(records, path):
        original(records, path)
        if path.name == "episode.csv":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

    reporting.write_metrics_csv = truncating
    try:
        result = harness.run_workload(
            _small(WORKLOADS["episode_default"]), 0, 0.0, False,
            workdir / "corrupt", run.SRC_DIR, log=_quiet,
        )
    finally:
        reporting.write_metrics_csv = original
    # both scored episodes and the rerun comparison must fail
    if result["correct"] or result["failed"] != result["attempted"]:
        failures.append(
            f"truncated CSV: {result['failed']} of {result['attempted']} failed, expected all"
        )
    print(f"truncated CSV: {result['failed']} of {result['attempted']} failed")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
