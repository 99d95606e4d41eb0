"""gsmf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``.  The
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's details and environment.  ``--trace 0`` reports the end-to-end
metrics, timed by a single timer around ``gsmf.solver.step``.  ``--trace 1``
reports the per-layer metrics from spans recorded by wrappers around the
library's public functions.  README.md explains every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    # at most two compute threads, BLAS included; set before numpy loads
    blas_threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    if not (ROOT / "src" / "gsmf" / "__init__.py").is_file():
        print(f"perfbench: no gsmf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from bench import run
    from instruments import InstrumentError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        detail, result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), ROOT, blas_threads)
    except InstrumentError as exc:
        print(f"perfbench: instrument guard failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
