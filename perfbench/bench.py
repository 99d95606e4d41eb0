"""Run one workload: set-up, timed rounds or one traced round, and checks."""

from __future__ import annotations

import csv
import ctypes
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy
import yaml

from gsmf.solver import solve
from instruments import LAYERS, InstrumentError, Patches, StepTimer, Tracer
from workloads import SETUP_KEYS, check

# an untraced run solves at least this many rounds
MIN_ROUNDS = 2


@dataclass
class Outcome:
    """One solve, summarised from the records the step timer saw."""

    op: object
    wall_s: float
    iters: int  # accepted outer iterations
    inner: int  # line-search inner iterations over the accepted ones
    step_ms_mean: float | None  # mean step time over the accepted iterations
    last_relobj: float | None
    error: str | None
    problems: list


def solve_op(inst, op, tracer=None):
    """Solve one op; any exception fails that op only.

    The instruments stay in place for the solve alone, so the output check
    that follows runs on the plain library and is not traced.
    """
    timer = StepTimer()
    with Patches() as patches:
        timer.install(patches)
        if tracer is not None:
            tracer.install(patches, inst.spec)
        t0 = time.perf_counter()
        try:
            result, error = solve(inst.spec, inst.params, op.config), None
        except Exception as exc:  # noqa: BLE001 - a failed solve is one failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    seen, ms = timer.records, timer.step_ms
    if result is not None and len(seen) != len(result.records):
        raise InstrumentError(
            f"step timer saw {len(seen)} accepted iterations of {op.label}, "
            f"the solver returned {len(result.records)}"
        )
    outcome = Outcome(op, wall, len(seen), sum(r.inner_iterations for r in seen),
                      statistics.fmean(ms) if ms else None,
                      seen[-1].relobj if seen else None, error,
                      check(inst, op, result) if result else [])
    return outcome, ms


def run_round(set_up, tracer=None):
    """Solve every op of the workload once, each on a freshly set-up instance.

    Set-up runs before every op, so its samples spread over the whole run.
    """
    outcomes, step_ms, k = [], [], 0
    while True:
        inst = None  # drop the previous instance before building the next
        inst = set_up()
        outcome, ms = solve_op(inst, inst.ops[k], tracer)
        outcomes.append(outcome)
        step_ms += ms
        k += 1
        if k == len(inst.ops):
            return outcomes, step_ms


def _median(values):
    values = list(values)
    return float(statistics.median(values)) if values else None


def end_to_end(workload, outcomes, round_step_ms, setup_times):
    """End-to-end metrics; one with no sample at all reads None (JSON null)."""
    ok = [o for o in outcomes if o.error is None and not o.problems]
    timed = ok or outcomes  # with no success, the failed solves stand in
    ran = [o for o in outcomes if o.iters]
    # A shared host can slow by ~1.6x for seconds at a time, which makes step
    # times bimodal.  So the p50 is taken over solves of each solve's mean
    # step time, and the tail per round, then as the median over rounds.
    tail = [np.percentile(ms, workload.tail_pct) for ms in round_step_ms if ms]
    return {
        "setup_s": (_median(setup_times), "s"),
        "time_to_tol_s": (_median(o.wall_s for o in timed), "s"),
        "iters_to_tol": (statistics.median_low(o.iters for o in timed), "count"),
        "iter_ms_p50": (_median(o.step_ms_mean for o in ran), "ms"),
        "iter_ms_tail": (_median(tail), "ms"),
        "relobj_final": (_median(o.last_relobj for o in ran), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok_share": (len(ok) / len(outcomes), "1"),
    }


def per_layer(workload, outcomes, tracer, setups, overhead_pct, sweep_s):
    calls, self_s = tracer.summary()
    accepted = sum(o.iters for o in outcomes)
    failed = sum(o.error is not None for o in outcomes)
    # a refactor that bypasses a wrapper must not silently zero its metric
    for name in ("diagnostics.symmetry_gap", "diagnostics.stationarity_residual"):
        if calls.get(name, 0) != accepted:
            raise InstrumentError(f"{name} saw {calls.get(name, 0)} accepted "
                                  f"iterations, the solver returned {accepted}")
    if not accepted <= calls.get("solver.step", 0) <= accepted + failed:
        raise InstrumentError(f"solver.step span count {calls.get('solver.step', 0)} "
                              f"does not match {accepted} accepted iterations")
    silent = [name for name in workload.reaches if not calls.get(name)]
    if silent:
        raise InstrumentError(f"{workload.name} never called {', '.join(silent)}")
    inner = sum(o.inner for o in outcomes)
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.s"] = (self_s.get(name, 0.0), "s")
    out["solver.step.calls"] = (calls.get("solver.step", 0), "count")
    out["solver.step.self_s"] = (self_s.get("solver.step", 0.0), "s")
    out["solver.inner_per_iter"] = (inner / accepted, "inner/iter")
    out["solver.backtracks"] = (inner - accepted, "count")
    out["solver.accept_ratio"] = (accepted / inner, "outer/inner")
    for key in SETUP_KEYS:
        out[key] = (statistics.median(s[key] for s in setups), "s")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["cli.sweep.jobs1_s"] = (sweep_s[1], "s")
    out["cli.sweep.jobs2_s"] = (sweep_s[2], "s")
    return out


SWEEP_CONFIG = {
    "dataset": {"source": "synthetic", "n": 100, "m": 5, "seed": 10,
                "noise_t": 0.01, "symmetrize_noise": True},
    "problem": {"rank": 5, "lambda": 1.0},
    "relaxation": {"alpha": 0.6},
    "solver": {"scheme": "hierarchical", "tol": 1e-10, "max_iters": 20000, "seed": 0},
    "sweep": {"alpha": [0.6, 1.2]},
}


def time_sweep(root, jobs, problems):
    """Wall time of ``gsmf sweep`` on two alpha points of snmf-small-tol.

    The CLI runs in a child process limited to one BLAS thread, so
    ``--jobs 2`` uses at most two compute threads.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        cfg = os.path.join(tmp, "sweep.yaml")
        with open(cfg, "w") as fh:
            yaml.safe_dump(SWEEP_CONFIG, fh)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "gsmf.cli", "sweep", "--config", cfg,
             "--out", os.path.join(tmp, "out"), "--jobs", str(jobs)],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=150,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            problems.append(f"gsmf sweep --jobs {jobs} exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
            return wall
        with open(os.path.join(tmp, "out", "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 2 or any(row["failed"] != "0" for row in rows):
            problems.append(f"gsmf sweep --jobs {jobs} rows: {rows}")
    return wall


def _blas_threads_in_use():
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(blas_threads):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads_set": blas_threads,
        "blas_threads_in_use": _blas_threads_in_use(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(workload, seed, seconds, traced, root, blas_threads):
    setup_times, setups = [], []

    def set_up():
        for _ in range(workload.setup_reps):
            inst = None  # drop the previous instance before building the next
            t0 = time.perf_counter()
            inst = workload.build(seed)
            setup_times.append(time.perf_counter() - t0)
            setups.append(inst.setup_split)
        return inst

    problems = []
    if traced:
        plain, plain_ms = run_round(set_up)
        tracer = Tracer()
        outcomes, traced_ms = run_round(set_up, tracer)
        plain_s = sum(o.wall_s for o in plain)
        overhead = 100.0 * (sum(o.wall_s for o in outcomes) - plain_s) / plain_s
        sweep_s = {jobs: time_sweep(root, jobs, problems) for jobs in (1, 2)}
        metrics = per_layer(workload, outcomes, tracer, setups, overhead, sweep_s)
        outcomes = plain + outcomes
        round_step_ms = [plain_ms, traced_ms]
    else:
        outcomes, round_step_ms = [], []
        t0 = time.perf_counter()
        # rounds continue while another one of the same length still fits
        while len(round_step_ms) < MIN_ROUNDS or (
            (time.perf_counter() - t0) * (len(round_step_ms) + 1) / len(round_step_ms)
            <= seconds
        ):
            done, ms = run_round(set_up)
            outcomes += done
            round_step_ms.append(ms)
        metrics = end_to_end(workload, outcomes, round_step_ms, setup_times)

    failures = Counter(f"{o.op.label}: {o.error}" for o in outcomes if o.error)
    for message, count in sorted(failures.items()):
        print(f"perfbench: {workload.name} op {message} (x{count})", file=sys.stderr)
    problems += [f"{o.op.label}: {p}" for o in outcomes for p in o.problems]
    failed = sum(o.error is not None or bool(o.problems) for o in outcomes)
    if failed == len(outcomes):
        problems.append("no operation succeeded")
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "rounds": len(round_step_ms),
        "setups": len(setup_times),
        "iter_samples_per_round": [len(ms) for ms in round_step_ms],
        "tail_pct": workload.tail_pct,
        "ops_failed_share": failed / len(outcomes),
        "failures": dict(failures),
        "problems": problems,
        "env": environment(blas_threads),
    }
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result
