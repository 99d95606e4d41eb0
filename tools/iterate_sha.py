"""Print one SHA-256 of every solve in each benchmark workload's round.

    python3 tools/iterate_sha.py [--seed N] [WORKLOAD ...]

Run from any directory; the library and the workloads are imported from the
tree this file lives in (``src/`` and ``perfbench/``).  For each workload
(all of them when none is named) it builds the instance for the seed, solves
every op of one round in order, and prints ``<workload> <sha256>``.  The hash
covers, per op, the ``repr`` of every ``IterationRecord`` that ``step``
returned, the final X and Y, and the exception of a solve that raised.  Two
trees whose lines are equal solve every op identically.

BLAS runs on two threads, set before numpy loads: sampling-map traces move
with the BLAS thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _op_digest(h, solver, inst, op):
    """Feed one op's records, final factors and any exception into h."""
    step, last_state = solver.step, None

    def recording_step(state, *args, **kwargs):
        nonlocal last_state
        last_state = state
        rec = step(state, *args, **kwargs)
        h.update(repr(rec).encode())
        return rec

    solver.step = recording_step
    try:
        result = solver.solve(inst.spec, inst.params, op.config)
        X, Y = result.X, result.Y
    except Exception as exc:  # noqa: BLE001 - a raising solve is hashed too
        h.update(f"{type(exc).__name__}: {exc}".encode())
        # the factors of the last accepted step, which step keeps in place
        X, Y = (last_state.X, last_state.Y) if last_state is not None else (None, None)
    finally:
        solver.step = step
    for W in (X, Y):
        if W is not None:
            h.update(repr(W.shape).encode())
            h.update(W.astype(float).tobytes(order="C"))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "2"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    from gsmf import solver
    from workloads import WORKLOADS

    names = args.workloads or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}")
    for name in names:
        inst = WORKLOADS[name].build(args.seed)
        h = hashlib.sha256()
        for op in inst.ops:
            h.update(op.label.encode())
            _op_digest(h, solver, inst, op)
        print(name, h.hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
