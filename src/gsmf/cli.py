"""Command-line entry point: gen-data, solve, sweep, check.

Runs are driven by a YAML config with dataset / problem / relaxation /
solver / output / sweep sections.  One rule reads every value (:func:`_read`):
an unknown section or field is an error, a missing or null field keeps its
default, and a value reads as its default's type (a number parses a string,
an int takes ``3.0``) or, if that reading would change it (``3.9`` for an
int, ``"false"`` for a bool, ``true`` for a number), is an error naming the
field.  ``problem.psi``, ``problem.phi`` and ``problem.map`` are kinded
mappings (:func:`_read_kinded`): a ``kind`` and the fields of that kind.
Flags override file values, ``--out`` overrides ``output.dir``.
Traces go to CSV (one row per accepted outer iteration), run summaries and
the `check` report to JSON.  Exit codes: 0 success/converged, 2
budget-limited, 1 error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
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
from .objective import ProblemSpec, RelaxationParams, f_lambda
from .solver import STATUS_CONVERGED, AlgorithmInvariantError, SolverConfig, solve

log = logging.getLogger("gsmf")

TRACE_HEADER = (
    "iter,elapsed_sec,f_value,ref_value,relobj,sym_gap,residual,"
    "mu_bar,sigma_bar,inner_iters"
)
# each sweep axis sets the field of its name in this config section
SWEEP_AXES = {"alpha": "relaxation", "lambda": "problem", "noise_t": "dataset",
              "rank": "problem"}


class ConfigFileError(ValueError):
    """A config file is missing a field or holds an inadmissible value."""


# the fields each config section may set, each mapped to its default, or to
# its type when it must be set; a default of None takes any value
SECTIONS = {
    "dataset": {f.name: f.default for f in dataclasses.fields(data.DatasetRecipe)},
    "problem": {"rank": int, "lambda": 0.0, "psi": None, "phi": None, "map": None},
    "relaxation": {"alpha": float, "gamma": None},
    "solver": {f.name: f.default for f in dataclasses.fields(SolverConfig)},
    "output": {"dir": ""},
    "sweep": {**dict.fromkeys(SWEEP_AXES), "reps": 1},
}
# the fields each kind of a kinded mapping takes, as SECTIONS gives them
REGULARIZER_KINDS = {kind: {f.name: f.default for f in dataclasses.fields(cls)}
                     for kind, cls in regularizers.KINDS.items()}
MAP_KINDS = {"full": {}, "sampling": {"omega_csv": str}}


def _read(section, fields, path):
    """A config section read by the module docstring's rule."""
    unknown = sorted(set(section) - set(fields))
    if unknown:
        raise ConfigFileError(f"unknown {path or 'top-level'} field(s): {unknown}")
    values = {}
    for key, default in fields.items():
        value, name = section.get(key), f"{path}.{key}" if path else key
        kind = default if isinstance(default, type) else type(default)
        if value is None and kind is default:  # a field that must be set
            raise ConfigFileError(f"missing field `{name}`")
        if value is None or default is None:
            values[key] = default if value is None else value
            continue
        try:
            values[key] = kind(value)
            if isinstance(value, bool) != (kind is bool) or not (
                    isinstance(value, str) and kind in (int, float)
                    or values[key] == value or value != value):  # nan is nan
                raise ValueError(f"reading {kind.__name__} changes the value")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigFileError(f"`{name}`: cannot read {value!r} as "
                                  f"{kind.__name__}") from exc
    return values


def _section(cfg, name):
    return _read(cfg.get(name) or {}, SECTIONS[name], name)  # a missing section is {}


def load_config(path):
    with open(path) as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:  # its own text spans lines: made one here
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ConfigFileError(f"config file {path} is not valid YAML: "
                                  f"{problem}{where}") from None
    if not isinstance(cfg, dict):
        raise ConfigFileError(f"config file {path} is not a mapping")
    _read(cfg, dict.fromkeys(SECTIONS, {}), "")  # each section is a mapping
    return cfg


def _named(path, build, /, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError it raises made an error
    naming the config section or field ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigFileError(f"`{path}`: {exc}") from exc


def build_recipe(cfg, seed_override=None):
    ds = _section(cfg, "dataset")
    if seed_override is not None:
        ds["seed"] = seed_override
    return _named("dataset", data.DatasetRecipe, **ds)


def build_data(cfg, seed_override=None):
    """The configured target M; a file it cannot read is named by its field."""
    return _load(data.gen_data, build_recipe(cfg, seed_override), "dataset.path")


def _load(read, arg, field):
    """``read(arg)``, with a file that cannot be opened or parsed made an
    error naming ``field``; any other error of ``read`` passes unchanged."""
    try:
        return read(arg)
    except (OSError, data.MatrixFileError) as exc:
        raise ConfigFileError(f"`{field}`: {exc}") from exc


def _read_kinded(value, kinds, default, path):
    """A kinded mapping, ``{kind: ..., <the fields of that kind>}``, as
    ``(kind, fields)``: ``kind`` is ``default`` when missing or when the
    mapping is null, a bare kind name reads as ``{kind: name}``, and the
    fields are read by :func:`_read` against ``kinds[kind]``."""
    if value is None or isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict):
        raise ConfigFileError(f"`{path}`: need a kind name or a mapping, got {value!r}")
    kind = _read({"kind": value.get("kind")}, {"kind": default}, path)["kind"]
    if kind not in kinds:
        raise ConfigFileError(f"`{path}.kind`: unknown kind {kind!r}; "
                              f"choose from {sorted(kinds)}")
    return kind, _read({k: v for k, v in value.items() if k != "kind"}, kinds[kind], path)


def _regularizer(prob, key):
    path = f"problem.{key}"
    kind, fields = _read_kinded(prob[key], REGULARIZER_KINDS, "nonneg", path)
    return _named(path, regularizers.KINDS[kind], **fields)


def build_spec(cfg, M):
    prob = _section(cfg, "problem")
    psi, phi = _regularizer(prob, "psi"), _regularizer(prob, "phi")
    n = M.shape[0]
    kind, fields = _read_kinded(prob["map"], MAP_KINDS, "full", "problem.map")
    if kind == "full":
        amap = operators.FullVectorization(n)
    else:
        omega = _load(data.load_matrix, fields["omega_csv"], "problem.map.omega_csv")
        amap = _named("problem.map", operators.SymmetricSampling, n, omega)
    return _named("problem", ProblemSpec, map=amap, b=amap.apply(M), psi=psi,
                  phi=phi, lam=prob["lambda"], n=n, r=prob["rank"])


def build_params(cfg):
    relax = _section(cfg, "relaxation")
    if relax["gamma"] is not None:  # unset, gamma is its admissible minimum
        relax = _read(relax, {"alpha": float, "gamma": float}, "relaxation")
    return _named("relaxation", RelaxationParams.from_alpha, relax["alpha"],
                  gamma=relax["gamma"])


def build_solver_config(cfg, seed_override=None):
    sol = _section(cfg, "solver")
    if seed_override is not None:
        sol["seed"] = seed_override
    return _named("solver", SolverConfig, **sol)


def write_trace_csv(path, records):
    with open(path, "w", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in records:
            row = [
                r.k, r.elapsed_sec, r.f_value, r.ref_value, r.relobj,
                r.sym_gap, r.stationarity_residual, r.mu_bar, r.sigma_bar,
                r.inner_iterations,
            ]
            fh.write(",".join(map(str, row)) + "\n")


def run_single(cfg, out_dir, seed=None, tag="run"):
    """Solve one configured instance; returns (summary dict, result)."""
    spec = build_spec(cfg, build_data(cfg))
    params = build_params(cfg)
    config = build_solver_config(cfg, seed_override=seed)
    t0 = time.perf_counter()
    result = solve(spec, params, config)
    wall = time.perf_counter() - t0
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
        # None, as in diagnostics.report, when the run kept no audit snapshots
        "descent_violations": (diagnostics.descent_audit(result, spec, params, config)
                               if config.audit and result.records else None),
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


def _out_dir(args, cfg, default):
    """``--out``, else ``output.dir``, else ``default``, as a Path (or None)."""
    configured = _section(cfg, "output")["dir"]  # read also when --out is given
    out = args.out or configured or default
    return Path(out) if out else None


def cmd_gen_data(args):
    cfg = load_config(args.config)
    out = _out_dir(args, cfg, ".")
    M = build_data(cfg, seed_override=args.seed)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "M.csv"
    data.save_matrix(path, M)
    log.info("wrote %s (%dx%d)", path, *M.shape)
    print(path)
    return 0


def cmd_solve(args):
    cfg = load_config(args.config)
    summary, _ = run_single(cfg, _out_dir(args, cfg, "out"), seed=args.seed)
    print(json.dumps({k: v for k, v in summary.items() if k != "config"}, indent=2))
    return 0 if summary["status"] == STATUS_CONVERGED else 2


def _sweep_points(sweep):
    """The named sweep axes' cartesian product; each value is read as its field."""
    axes = [axis for axis in SWEEP_AXES if sweep[axis] is not None]
    if not axes:
        raise ConfigFileError(f"sweep section names no axis {tuple(SWEEP_AXES)}")
    for axis in axes:
        if not isinstance(sweep[axis], list) or not sweep[axis]:
            raise ConfigFileError(f"sweep axis `{axis}` needs a non-empty list")
        for value in sweep[axis]:
            _read({axis: value}, {axis: SECTIONS[SWEEP_AXES[axis]][axis]}, "sweep")
    return [dict(zip(axes, values))
            for values in itertools.product(*(sweep[axis] for axis in axes))]


def _apply_point(cfg, point):
    c = copy.deepcopy(cfg)
    for axis, value in point.items():
        section = c[SWEEP_AXES[axis]] = c.get(SWEEP_AXES[axis]) or {}
        if axis == "alpha":
            section.pop("gamma", None)  # its admissible minimum moves with alpha
        section[axis] = value
    return c


def cmd_sweep(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs: need at least 1 worker, got {args.jobs}")
    cfg = load_config(args.config)
    sweep = _section(cfg, "sweep")
    if sweep["reps"] < 1:
        raise ConfigFileError(f"`sweep.reps`: need at least 1 run per point, "
                              f"got {sweep['reps']}")
    points = _sweep_points(sweep)
    base_seed = build_solver_config(cfg, seed_override=args.seed).seed
    out = _out_dir(args, cfg, "out")
    out.mkdir(parents=True, exist_ok=True)

    def run_point(idx_point):
        idx, point = idx_point
        rows = []
        for rep in range(sweep["reps"]):
            tag = "point%02d_rep%02d" % (idx, rep)
            try:
                rows.append(run_single(_apply_point(cfg, point), out,
                                       seed=base_seed + rep, tag=tag)[0])
            except Exception as exc:  # noqa: BLE001 - sweep must survive bad points
                log.error("sweep point %s rep %d failed: %s", point, rep, exc)
                rows.append(None)
        return idx, point, rows

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(run_point, enumerate(points)))

    table_path = out / "sweep.csv"
    with open(table_path, "w", newline="\n") as fh:
        fh.write("point,failed,mean_iter,mean_relobj,mean_elapsed_sec,mean_sym_gap\n")
        for _, point, rows in results:
            good = [r for r in rows if r is not None]
            label = ";".join(f"{k}={v}" for k, v in point.items())
            if not good:
                fh.write(f"{label},1,,,,\n")
                continue
            means = [float(np.mean([r[key] for r in good]))
                     for key in ("iters", "relobj", "elapsed_sec", "sym_gap")]
            fh.write(",".join(map(str, [label, int(len(good) < len(rows)), *means]))
                     + "\n")
    print(table_path)
    return 0


def _check_items(cfg):
    """The identity/property suite behind `gsmf check`, on the configured problem."""
    items = []

    def record(name, fn, *built):
        try:
            for value in built:  # a failed build fails each item that reads it
                if isinstance(value, Exception):
                    raise value
            ok, detail = fn(*built)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        items.append({"name": name, "passed": bool(ok), "detail": detail})

    rng = np.random.default_rng(0)

    def built(build):
        """``build()``, or the exception it raised."""
        try:
            return build()
        except Exception as exc:  # noqa: BLE001 - reported by record
            return exc

    # each instance is built once, for every item that reads it
    spec = built(lambda: build_spec(cfg, build_data(cfg)))
    params = built(lambda: build_params(cfg))

    def check_params(params):
        return True, f"alpha={params.alpha}, beta={params.beta}"

    def check_spec(spec):
        return True, f"n={spec.n}, r={spec.r}, q={spec.map.q}"

    def check_relaxation_identity(spec, params):
        # Theta(Z*) - F is a polynomial in (X, Y): one draw exposes a defect
        X, Y = rng.uniform(size=(2, spec.n, spec.r))
        gap = diagnostics.relaxation_consistency(spec, params, X, Y)
        gap /= 1.0 + abs(f_lambda(spec, X, Y))
        return gap <= 1e-10, f"relative gap {gap:.3e}"

    def check_operators(spec):
        """``A A* = I`` and adjointness, relative to the norms, on spec's map."""
        amap = spec.map
        U, v = rng.standard_normal((spec.n, spec.n)), rng.standard_normal(amap.q)
        gap = float(amap.apply(U) @ v) - float(np.sum(U * amap.adjoint(v)))
        miss = np.linalg.norm(amap.apply(amap.adjoint(v)) - v)
        dev = (abs(gap) / np.linalg.norm(U) + miss) / np.linalg.norm(v)
        return dev <= 1e-12, (f"{type(amap).__name__} n={spec.n} q={amap.q}: "
                              f"deviation {dev:.3e}")

    def check_prox(spec):
        """Each of spec's psi and phi: its prox lands in its domain, and no
        step of Frobenius norm 0.1 from it lowers the prox objective."""
        details = []
        for reg in [spec.psi] + ([spec.phi] if spec.phi != spec.psi else []):
            W = rng.standard_normal((spec.n, spec.r))
            D = rng.standard_normal((50, spec.n, spec.r))
            D *= 0.1 / np.linalg.norm(D, axis=(1, 2), keepdims=True)
            P = reg.prox(W, 0.9)
            base, *perturbed = [reg.eval(Q) + np.sum((Q - W) ** 2) / (2 * 0.9)
                                for Q in [P, *(P + D)]]
            if not np.isfinite(base):
                return False, f"prox of {reg!r} leaves its domain"
            if min(perturbed) < base - 1e-10 * (1 + base):
                return False, f"prox of {reg!r} is not a minimizer"
            details.append(f"prox of {reg!r} is a minimizer on 50 perturbations")
        return True, "; ".join(details)

    def check_descent_audit(spec, params):
        # 50 iterations whatever the run budgets say; tol may end it sooner,
        # but not before the first
        config = dataclasses.replace(build_solver_config(cfg), audit=True,
                                     max_iters=50, max_time_sec=math.inf)
        result = solve(spec, params, config)
        bad = diagnostics.descent_audit(result, spec, params, config)
        return bad == 0, f"{bad} violations over {len(result.records)} iterations"

    record("operator_identities", check_operators, spec)
    record("relaxation_params", check_params, params)
    record("problem_spec", check_spec, spec)
    record("relaxation_identity", check_relaxation_identity, spec, params)
    record("prox_optimality", check_prox, spec)
    record("descent_audit", check_descent_audit, spec, params)
    return items


def cmd_check(args):
    cfg = load_config(args.config)
    items = _check_items(cfg)
    report = {"items": items, "all_passed": all(it["passed"] for it in items)}
    out = _out_dir(args, cfg, None)
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

    def command(name, func, summary, seed=None):  # seed: the help of --seed
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="path to the YAML config")
        p.add_argument("--out", default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None, help=seed)
        p.set_defaults(func=func)
        return p

    command("gen-data", cmd_gen_data, "materialize the dataset matrix M",
            seed="override dataset.seed, which seeds the data")
    command("solve", cmd_solve, "run one solve and write trace + summary",
            seed="override solver.seed, which seeds the start (not the data)")
    p = command("sweep", cmd_sweep, "run a parameter sweep",
                seed="override solver.seed; rep k starts from seed + k (the "
                     "data keep dataset.seed)")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep points")
    command("check", cmd_check, "run the identity/property suite")
    return parser


def main(argv=None):
    level = os.environ.get("GSMF_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # check has none
            raise ValueError(f"--seed: need a seed >= 0, got {args.seed}")
        return args.func(args)
    except (ConfigFileError, ValueError, OSError, AlgorithmInvariantError) as exc:
        log.debug("%s failed", args.command, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
