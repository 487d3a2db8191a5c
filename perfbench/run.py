"""stftpr benchmark: closed-loop workloads, end-to-end metrics, per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wide-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` times operations with nothing installed and prints the
end-to-end metrics; ``--trace 1`` installs span recorders (tracer.py) and
prints the per-layer metrics, writing spans and counts to
``.perfbench/trace-<workload>.json``.  ``--workload all`` runs every workload
in turn.  Timings are in reference seconds, scaled by a speed probe
(speed.py).  The last line of standard output is one JSON object.  README.md
defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stftpr benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stftpr" / "__init__.py").is_file():
        print(f"perfbench: no stftpr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one client, one thread: keep numpy's BLAS from starting worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from harness import run_workload
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), OUT)
                   for n in names}
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)

    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:14s} {metric:40s} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
