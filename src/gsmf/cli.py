"""Command-line entry point: gen-data, solve, sweep, check.

Runs are driven by a YAML config with dataset / problem / relaxation /
solver / output / sweep sections; a section or field the program does not
read is an error.  Flags override file values.  Traces go to CSV (one row
per accepted outer iteration), run summaries and the `check` report to
JSON.  Exit codes: 0 success/converged, 2 budget-limited, 1 error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from . import data, diagnostics, operators, regularizers
from .objective import ProblemSpec, RelaxationParams, f_lambda, theta, z_star
from .solver import (
    STATUS_CONVERGED,
    SolverConfig,
    solve,
)

log = logging.getLogger("gsmf")

TRACE_HEADER = (
    "iter,elapsed_sec,f_value,ref_value,relobj,sym_gap,residual,"
    "mu_bar,sigma_bar,inner_iters"
)
SWEEP_AXES = ("alpha", "lambda", "noise_t", "rank")


class ConfigFileError(ValueError):
    """A config file is missing a field or holds an inadmissible value."""


def _require(section, key, path):
    if not isinstance(section, dict) or key not in section:
        raise ConfigFileError(f"missing field `{path}`")
    return section[key]


def _check_fields(section, known, path):
    """Reject a section that is not a mapping or names a field not in ``known``."""
    if not isinstance(section, dict):
        raise ConfigFileError(f"`{path}` must be a mapping")
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigFileError(f"unknown {path} field(s): {sorted(unknown)}")
    return section


def load_config(path):
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigFileError(f"config file {path} is not a mapping")
    _check_fields(cfg, ("dataset", "problem", "relaxation", "solver", "output",
                        "sweep"), "top-level")
    _check_fields(cfg.get("output", {}), ("dir",), "output")
    return cfg


def build_recipe(cfg, seed_override=None):
    ds = _check_fields(_require(cfg, "dataset", "dataset"),
                       ("source", "n", "m", "seed", "path", "noise_t",
                        "normalize", "symmetrize_noise"), "dataset")
    source = ds.get("source", "synthetic")
    return data.DatasetRecipe(
        source=source,
        n=int(ds.get("n", 0)),
        m=int(ds.get("m", 0)),
        seed=int(seed_override if seed_override is not None else ds.get("seed", 0)),
        path=ds.get("path"),
        noise_t=float(ds.get("noise_t", 0.0)),
        normalize=bool(ds.get("normalize", True)),
        symmetrize_noise=bool(ds.get("symmetrize_noise", False)),
    )


def _regularizer(prob, key):
    try:
        return regularizers.from_config(prob.get(key, {"kind": "nonneg"}))
    except ValueError as exc:
        raise ConfigFileError(f"problem.{key}: {exc}") from exc


def build_spec(cfg, M):
    prob = _check_fields(_require(cfg, "problem", "problem"),
                         ("rank", "lambda", "psi", "phi", "map"), "problem")
    rank = int(_require(prob, "rank", "problem.rank"))
    lam = float(prob.get("lambda", 0.0))
    psi = _regularizer(prob, "psi")
    phi = _regularizer(prob, "phi")
    n = M.shape[0]
    map_cfg = _check_fields(prob.get("map", {"kind": "full"}),
                            ("kind", "omega_csv"), "problem.map")
    kind = map_cfg.get("kind", "full")
    if kind == "full":
        amap = operators.FullVectorization(n)
    elif kind == "sampling":
        omega = operators.load_omega_csv(
            _require(map_cfg, "omega_csv", "problem.map.omega_csv")
        )
        amap = operators.SymmetricSampling(n, omega)
    else:
        raise ConfigFileError(f"unknown map kind `{kind}` in problem.map.kind")
    return ProblemSpec(
        map=amap, b=amap.apply(M), psi=psi, phi=phi, lam=lam, n=n, r=rank
    )


def build_params(cfg):
    relax = _check_fields(_require(cfg, "relaxation", "relaxation"),
                          ("alpha", "beta", "gamma"), "relaxation")
    alpha = float(_require(relax, "alpha", "relaxation.alpha"))
    if "beta" in relax:
        beta = float(relax["beta"])
        return RelaxationParams(
            alpha=alpha,
            beta=beta,
            gamma=float(relax.get("gamma", operators.gamma_min(alpha, beta))),
            rho=operators.rho(alpha, beta),
        )
    return RelaxationParams.from_alpha(alpha, gamma=relax.get("gamma"))


def build_solver_config(cfg, seed_override=None):
    sol = dict(_check_fields(cfg.get("solver", {}),
                             SolverConfig.__dataclass_fields__, "solver"))
    if seed_override is not None:
        sol["seed"] = seed_override
    sol.setdefault("max_time_sec", math.inf)
    if sol.get("max_time_sec") in ("inf", None):
        sol["max_time_sec"] = math.inf
    return SolverConfig(**sol)


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_trace_csv(path, records):
    with open(path, "w", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in records:
            row = [
                r.k, r.elapsed_sec, r.f_value, r.ref_value, r.relobj,
                r.sym_gap, r.stationarity_residual, r.mu_bar, r.sigma_bar,
                r.inner_iterations,
            ]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def run_single(cfg, out_dir, seed=None, tag="run"):
    """Solve one configured instance; returns (summary dict, result)."""
    recipe = build_recipe(cfg)
    M = data.gen_data(recipe)
    spec = build_spec(cfg, M)
    params = build_params(cfg)
    config = build_solver_config(cfg, seed_override=seed)
    t0 = time.perf_counter()
    result = solve(spec, params, config)
    wall = time.perf_counter() - t0
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{tag}_trace.csv"
    write_trace_csv(trace_path, result.records)
    last = result.records[-1] if result.records else None
    summary = {
        "config": cfg,
        "status": result.status,
        "iters": last.k if last else 0,
        "elapsed_sec": last.elapsed_sec if last else 0.0,
        "f_value": last.f_value if last else f_lambda(spec, result.X, result.Y),
        "relobj": last.relobj if last else None,
        "sym_gap": last.sym_gap if last else None,
        "stationarity_residual": last.stationarity_residual if last else None,
        "wall_time_sec": wall,
        "trace": str(trace_path),
    }
    with open(out_dir / f"{tag}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=str)
        fh.write("\n")
    return summary, result


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args):
    cfg = load_config(args.config)
    recipe = build_recipe(cfg, seed_override=args.seed)
    M = data.gen_data(recipe)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "M.csv"
    data.save_matrix(path, M)
    log.info("wrote %s (%dx%d)", path, *M.shape)
    print(path)
    return 0


def cmd_solve(args):
    cfg = load_config(args.config)
    out = args.out or cfg.get("output", {}).get("dir", "out")
    summary, _ = run_single(cfg, out, seed=args.seed)
    print(json.dumps({k: v for k, v in summary.items() if k != "config"}, indent=2))
    return 0 if summary["status"] == STATUS_CONVERGED else 2


def _sweep_points(cfg):
    """The cartesian product of every named sweep axis, in SWEEP_AXES order."""
    sweep = _check_fields(_require(cfg, "sweep", "sweep"), (*SWEEP_AXES, "reps"),
                          "sweep")
    axes = [axis for axis in SWEEP_AXES if axis in sweep]
    if not axes:
        raise ConfigFileError(f"sweep section names no axis {SWEEP_AXES}")
    for axis in axes:
        if not sweep[axis]:
            raise ConfigFileError(f"sweep axis `{axis}` has an empty value list")
    return [dict(zip(axes, values))
            for values in itertools.product(*(sweep[axis] for axis in axes))]


def _apply_point(cfg, point):
    import copy

    c = copy.deepcopy(cfg)
    for key, value in point.items():
        if key == "alpha":
            c["relaxation"]["alpha"] = value
            c["relaxation"].pop("beta", None)
            c["relaxation"].pop("gamma", None)
        elif key == "lambda":
            c["problem"]["lambda"] = value
        elif key == "noise_t":
            c["dataset"]["noise_t"] = value
        elif key == "rank":
            c["problem"]["rank"] = value
    return c


def cmd_sweep(args):
    cfg = load_config(args.config)
    points = _sweep_points(cfg)
    reps = int(cfg.get("sweep", {}).get("reps", 1))
    base_seed = args.seed if args.seed is not None else cfg.get("solver", {}).get("seed", 0)
    out = Path(args.out or cfg.get("output", {}).get("dir", "out"))
    out.mkdir(parents=True, exist_ok=True)

    def run_point(idx_point):
        idx, point = idx_point
        rows = []
        for rep in range(reps):
            tag = "point%02d_rep%02d" % (idx, rep)
            try:
                summary, _ = run_single(
                    _apply_point(cfg, point), out, seed=base_seed + rep, tag=tag
                )
                rows.append(summary)
            except Exception as exc:  # noqa: BLE001 - sweep must survive bad points
                log.error("sweep point %s rep %d failed: %s", point, rep, exc)
                rows.append(None)
        return idx, point, rows

    jobs = max(1, args.jobs)
    results = []
    if jobs == 1:
        results = [run_point(ip) for ip in enumerate(points)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_point, enumerate(points)))

    table_path = out / "sweep.csv"
    with open(table_path, "w", newline="\n") as fh:
        fh.write("point,failed,mean_iter,mean_relobj,mean_time,mean_sym_gap\n")
        for _, point, rows in results:
            good = [r for r in rows if r is not None]
            label = ";".join(f"{k}={v}" for k, v in point.items())
            if not good:
                fh.write(f"{label},1,,,,\n")
                continue
            fh.write(
                "%s,%d,%s,%s,%s,%s\n"
                % (
                    label,
                    int(len(good) < len(rows)),
                    repr(float(np.mean([r["iters"] for r in good]))),
                    repr(float(np.mean([r["relobj"] for r in good]))),
                    repr(float(np.mean([r["elapsed_sec"] for r in good]))),
                    repr(float(np.mean([r["sym_gap"] for r in good]))),
                )
            )
    print(table_path)
    return 0


def _check_items(cfg):
    """The identity/property suite behind `gsmf check`."""
    items = []

    def record(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        items.append({"name": name, "passed": bool(ok), "detail": detail})

    rng = np.random.default_rng(0)

    def check_operators():
        worst = 0.0
        for amap in (
            operators.FullVectorization(6),
            operators.SymmetricSampling(
                6, operators.random_symmetric_omega(6, 0.4, rng)
            ),
        ):
            for _ in range(20):
                U = rng.standard_normal((6, 6))
                v = rng.standard_normal(amap.q)
                worst = max(worst, float(np.max(np.abs(amap.apply(amap.adjoint(v)) - v))))
                worst = max(
                    worst,
                    abs(float(amap.apply(U) @ v) - float(np.sum(U * amap.adjoint(v)))),
                )
        return worst <= 1e-12, f"max deviation {worst:.3e}"

    def check_params():
        params = build_params(cfg)
        return True, f"alpha={params.alpha}, beta={params.beta}"

    def check_spec():
        recipe = build_recipe(cfg)
        M = data.gen_data(recipe)
        spec = build_spec(cfg, M)
        return True, f"n={spec.n}, r={spec.r}, q={spec.map.q}"

    def check_relaxation_identity():
        recipe = build_recipe(cfg)
        M = data.gen_data(recipe)
        spec = build_spec(cfg, M)
        params = build_params(cfg)
        worst = 0.0
        for _ in range(10):
            X = rng.uniform(size=(spec.n, spec.r))
            Y = rng.uniform(size=(spec.n, spec.r))
            f = f_lambda(spec, X, Y)
            gap = abs(theta(spec, params, X, Y, z_star(spec, params, X, Y)) - f)
            worst = max(worst, gap / (1.0 + abs(f)))
        return worst <= 1e-10, f"max relative gap {worst:.3e}"

    def check_prox():
        reg = regularizers.L1(0.7)
        W = rng.standard_normal((5, 3))
        P = reg.prox(W, 0.9)
        base = reg.eval(P) + np.sum((P - W) ** 2) / (2 * 0.9)
        for _ in range(50):
            Q = P + 0.1 * rng.standard_normal(P.shape)
            if reg.eval(Q) + np.sum((Q - W) ** 2) / (2 * 0.9) < base - 1e-10:
                return False, "prox point is not a minimizer"
        return True, "prox optimality held on 50 perturbations"

    def check_descent_audit():
        recipe = build_recipe(cfg)
        M = data.gen_data(recipe)
        spec = build_spec(cfg, M)
        params = build_params(cfg)
        config = build_solver_config(cfg)
        config.audit = True
        config.max_iters = min(config.max_iters, 50)
        result = solve(spec, params, config)
        bad = diagnostics.descent_audit(result, spec, params, config)
        return bad == 0, f"{bad} violations over {len(result.records)} iterations"

    record("operator_identities", check_operators)
    record("relaxation_params", check_params)
    record("problem_spec", check_spec)
    record("relaxation_identity", check_relaxation_identity)
    record("prox_optimality", check_prox)
    record("descent_audit", check_descent_audit)
    return items


def cmd_check(args):
    cfg = load_config(args.config)
    items = _check_items(cfg)
    report = {"items": items, "all_passed": all(it["passed"] for it in items)}
    out = Path(args.out) if args.out else None
    text = json.dumps(report, indent=2)
    if out:
        out.mkdir(parents=True, exist_ok=True)
        (out / "check.json").write_text(text + "\n")
    print(text)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsmf",
        description="Symmetric matrix factorization via nonmonotone alternating updates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, seed=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="path to the YAML config")
        p.add_argument("--out", default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.set_defaults(func=func)
        return p

    command("gen-data", cmd_gen_data, "materialize the dataset matrix M")
    command("solve", cmd_solve, "run one solve and write trace + summary")
    p = command("sweep", cmd_sweep, "run a parameter sweep")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep points")
    command("check", cmd_check, "run the identity/property suite", seed=False)
    return parser


def main(argv=None):
    level = os.environ.get("GSMF_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
