"""Episode benchmark for evobeam.

Run from the repository root:

    python3 bench/run.py --workload episode_default --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
the environment and the sample counts. The program is imported from src/
of the same checkout; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_DIR / "src"
WORK_DIR = REPO_DIR / ".bench_run"

# one BLAS thread: with the routing stub's server thread the process then
# holds two threads, the core count of the machine the figures come from
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure():
    """Cap BLAS threads and import evobeam from this checkout's src/.

    Must run before numpy is imported. Returns False when src/ is missing.
    """
    for name in THREAD_ENV:
        os.environ[name] = "1"
    if not (SRC_DIR / "evobeam" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC_DIR))
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not configure():
        print(f"benchmark: no evobeam sources under {SRC_DIR}", file=sys.stderr)
        return 2

    # imported only now: the thread caps must be set before numpy loads
    from harness import environment, run_workload
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(REPO_DIR, THREAD_ENV)
    print("env: " + json.dumps({**env, "workload": workload.name, "why": workload.why}))
    result = run_workload(
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        WORK_DIR / workload.name,
        SRC_DIR,
    )
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
