"""End-to-end acceptance checks.

Every test prints a single ``[criterion NN] name: PASS/FAIL`` line (outside
pytest's capture) so the suite doubles as a checklist, and asserts both the
numerical tolerance and the runtime budget of its criterion.
"""

import copy
import math
import time

import numpy as np
import pytest
import yaml

from gsmf import (
    DatasetRecipe,
    FullVectorization,
    RelaxationParams,
    SolverConfig,
    SymmetricSampling,
    gen_data,
    random_symmetric_omega,
    snmf_spec,
    solve,
)
from gsmf.cli import main as cli_main
from gsmf.diagnostics import (
    descent_audit,
    exact_penalty_threshold,
    relaxation_consistency,
    scheme_inclusion_residual,
    stationarity_residual,
    symmetry_gap,
)
from gsmf.objective import ProblemSpec, f_lambda, relobj, z_star
from gsmf.regularizers import Zero
from gsmf.solver import _escalations, inner_iteration_budget, spectral_norm_sq

ALPHAS = (0.2, 0.6, 0.8, 2.0)
SCHEMES = ("proximal", "prox_linear", "hierarchical")


def _run(capsys, num, name, budget_sec, body, charge_sec=0.0):
    problems = []
    t0 = time.perf_counter()
    try:
        body(problems)
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
    elapsed = time.perf_counter() - t0 + charge_sec
    if elapsed > budget_sec:
        problems.append(f"runtime {elapsed:.1f}s exceeds the {budget_sec:.0f}s budget")
    with capsys.disabled():
        status = "PASS" if not problems else "FAIL"
        print(f"[criterion {num:2d}] {name}: {status} ({elapsed:.1f}s)")
    assert not problems, f"criterion {num} ({name}): " + "; ".join(problems)


def _both_maps(n, rng, density=0.3):
    return (FullVectorization(n), SymmetricSampling(n, random_symmetric_omega(n, density, rng)))


# --------------------------------------------------------------------------
# 1-4: operator and relaxation identities
# --------------------------------------------------------------------------


def test_01_relaxation_identity(capsys):
    def body(problems):
        rng = np.random.default_rng(1)
        for amap in _both_maps(8, rng):
            spec = ProblemSpec(amap, rng.standard_normal(amap.q), Zero(), Zero(), 0.3, 8, 3)
            for alpha in ALPHAS:
                params = RelaxationParams.from_alpha(alpha)
                for _ in range(100):
                    X = rng.standard_normal((8, 3))
                    Y = rng.standard_normal((8, 3))
                    gap = relaxation_consistency(spec, params, X, Y)
                    bound = 1e-10 * (1.0 + abs(f_lambda(spec, X, Y)))
                    if gap > bound:
                        problems.append(
                            f"gap {gap:.2e} > {bound:.2e} (alpha={alpha}, {type(amap).__name__})"
                        )
                        return

    _run(capsys, 1, "exact relaxation identity", 5.0, body)


def test_02_shifted_inverse_formula(capsys):
    def body(problems):
        rng = np.random.default_rng(2)
        for amap in _both_maps(8, rng):
            for alpha in ALPHAS:
                beta = alpha / (alpha - 1.0)
                for _ in range(100):
                    W = rng.standard_normal((8, 8))
                    S = amap.shifted_inverse_apply(alpha, beta, W)
                    back = alpha * S + beta * amap.gram_apply(S)
                    err = np.max(np.abs(back - W)) / max(1.0, np.max(np.abs(W)))
                    if err > 1e-12:
                        problems.append(f"inverse error {err:.2e} (alpha={alpha})")
                        return

    _run(capsys, 2, "shifted inverse formula", 1.0, body)


def test_03_sampling_skew_identity(capsys):
    def body(problems):
        rng = np.random.default_rng(3)
        for density in (0.1, 0.5):
            amap = SymmetricSampling(8, random_symmetric_omega(8, density, rng))
            for _ in range(100):
                U = rng.standard_normal((8, 8))
                G = amap.gram_apply(U)
                err = np.max(np.abs((G - G.T) - amap.gram_apply(U - U.T)))
                if err > 1e-14:
                    problems.append(f"skew error {err:.2e} at density {density}")
                    return

    _run(capsys, 3, "sampling skew identity", 1.0, body)


def test_04_partial_isometry_and_adjoint(capsys):
    def body(problems):
        rng = np.random.default_rng(4)
        for amap in _both_maps(7, rng):
            for _ in range(100):
                v = rng.standard_normal(amap.q)
                iso = np.max(np.abs(amap.apply(amap.adjoint(v)) - v))
                U = rng.standard_normal((7, 7))
                lhs = float(amap.apply(U) @ v)
                rhs = float(np.sum(U * amap.adjoint(v)))
                if iso > 1e-12 or abs(lhs - rhs) > 1e-12:
                    problems.append(
                        f"isometry {iso:.2e} / adjoint {abs(lhs - rhs):.2e} "
                        f"({type(amap).__name__})"
                    )
                    return

    _run(capsys, 4, "partial isometry and adjoint", 1.0, body)


# --------------------------------------------------------------------------
# 5-6: line-search budget and reference monotonicity on shared seeded runs
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def seeded_runs():
    """20 seeded symmetric-factorization runs, 200 audited iterations each.

    The instances carry a small noise floor so the objective never stagnates
    to the bit; consec_required > max_iters pins each run to exactly 200
    iterations.
    """
    params = RelaxationParams.from_alpha(0.6)
    t0 = time.perf_counter()
    runs = []
    for i in range(20):
        scheme = SCHEMES[i % 3]
        rng = np.random.default_rng(200 + i)
        B = rng.uniform(size=(50, 5))
        M = B @ B.T + 0.01 * np.abs(rng.standard_normal((50, 50)))
        M = 0.5 * (M + M.T)
        kwargs = {"psi": Zero(), "phi": Zero()} if scheme == "proximal" else {}
        spec = snmf_spec(M / M.max(), 5, 1.0, **kwargs)
        config = SolverConfig(scheme=scheme, tol=1e-16, max_iters=200, seed=i,
                              consec_required=201, audit=True)
        runs.append((scheme, solve(spec, params, config), config))
    return params, runs, time.perf_counter() - t0


def test_05_inner_iteration_budget(capsys, seeded_runs):
    params, runs, solve_sec = seeded_runs

    def body(problems):
        coef = params.alpha + 2.0 * params.gamma * params.rho
        for scheme, result, config in runs:
            if len(result.records) != 200:
                problems.append(f"{scheme} run stopped after {len(result.records)} iterations")
            Y_prev = result.y0
            for rec in result.records:
                mu_max = coef * spectral_norm_sq(Y_prev) + config.c
                budget = inner_iteration_budget(mu_max, config.mu_min, config.tau)
                if not math.isnan(rec.sigma_max):
                    # once mu is capped, step also allows the sigma escalations
                    budget += _escalations(config.sigma_min, rec.sigma_max,
                                           config.tau)
                if rec.inner_iterations > budget:
                    problems.append(
                        f"{scheme} seed {config.seed} iter {rec.k}: "
                        f"{rec.inner_iterations} inner > budget {budget}"
                    )
                    return
                Y_prev = rec.y

    _run(capsys, 5, "inner-iteration budget", 60.0, body, charge_sec=solve_sec)


def test_06_reference_monotonicity(capsys, seeded_runs):
    _, runs, _ = seeded_runs

    def body(problems):
        for scheme, result, config in runs:
            R_prev = None
            for rec in result.records:
                # allow only floating-point rounding of the R recursion
                slack = 1e-12 * (1.0 + abs(rec.ref_value))
                if R_prev is not None and rec.ref_value > R_prev + slack:
                    problems.append(
                        f"{scheme} seed {config.seed} iter {rec.k}: R increased "
                        f"{R_prev!r} -> {rec.ref_value!r}"
                    )
                    return
                if rec.f_value > rec.ref_value + slack:
                    problems.append(
                        f"{scheme} seed {config.seed} iter {rec.k}: "
                        f"f {rec.f_value!r} > R {rec.ref_value!r}"
                    )
                    return
                R_prev = rec.ref_value

    _run(capsys, 6, "reference-value monotonicity", 60.0, body)


# --------------------------------------------------------------------------
# 7-8: descent audit and planted recovery
# --------------------------------------------------------------------------


def test_07_descent_audit(capsys):
    def body(problems):
        rng = np.random.default_rng(70)
        B = rng.uniform(size=(20, 3))
        M = B @ B.T + 0.01 * np.abs(rng.standard_normal((20, 20)))
        spec = snmf_spec(0.5 * (M + M.T), 3, 1.0)
        params = RelaxationParams.from_alpha(0.6)
        config = SolverConfig(audit=True, max_iters=500, tol=1e-16,
                              consec_required=501, seed=0)
        result = solve(spec, params, config)
        if len(result.records) != 500:
            problems.append(f"run stopped after {len(result.records)} iterations")
        clean = descent_audit(result, spec, params, config)
        if clean != 0:
            problems.append(f"clean run reported {clean} violations")
        corrupted = copy.deepcopy(result)
        corrupted.records[100].f_value += 1.0
        injected = descent_audit(corrupted, spec, params, config)
        if injected < 1:
            problems.append("fault injection went undetected")

    _run(capsys, 7, "descent audit", 10.0, body)


def test_08_planted_recovery(capsys):
    def body(problems):
        params = RelaxationParams.from_alpha(0.6)
        good = 0
        for i in range(5):
            rng = np.random.default_rng(100 + i)
            B = rng.uniform(size=(50, 5))
            spec = snmf_spec(B @ B.T, 5, 1.0)
            result = solve(spec, params,
                           SolverConfig(tol=1e-12, max_iters=30000, seed=i))
            ro = relobj(spec, result.X, result.Y)
            sr = stationarity_residual(spec, result.X, result.Y)
            good += ro <= 1e-6 and sr <= 1e-4
        if good < 4:
            problems.append(f"only {good}/5 seeds recovered the planted optimum")

    _run(capsys, 8, "planted-optimum recovery", 30.0, body)


# --------------------------------------------------------------------------
# 9-11: qualitative solution behavior on n=100 instances
# --------------------------------------------------------------------------


def test_09_symmetry_penalty_ordering(capsys):
    def body(problems):
        M = gen_data(DatasetRecipe(source="synthetic", n=100, m=10, seed=9,
                                   noise_t=0.001, symmetrize_noise=True))
        params = RelaxationParams.from_alpha(0.6)
        gaps = []
        for lam in (0.01, 1.0, 100.0):
            spec = snmf_spec(M, 10, lam)
            result = solve(spec, params,
                           SolverConfig(scheme="hierarchical", tol=1e-8,
                                        max_iters=40000, seed=0))
            gaps.append(symmetry_gap(result.X, result.Y))
            if lam == 100.0:
                _, satisfied = exact_penalty_threshold(spec, result.X, result.Y)
                bound = 1e-8 * float(np.sum(result.X ** 2))
                if not satisfied:
                    problems.append("penalty threshold not satisfied at lambda=100")
                elif gaps[-1] > bound:
                    problems.append(f"sym_gap {gaps[-1]:.2e} > {bound:.2e} at lambda=100")
        if not (gaps[0] > gaps[1] > gaps[2]):
            problems.append(f"gaps not strictly decreasing: {[f'{g:.2e}' for g in gaps]}")

    _run(capsys, 9, "symmetry-penalty ordering", 60.0, body)


@pytest.fixture(scope="module")
def alpha_instance():
    M = gen_data(DatasetRecipe(source="synthetic", n=100, m=5, seed=10,
                               noise_t=0.01, symmetrize_noise=True))
    return snmf_spec(M, 5, 1.0)


def test_10_alpha_insensitivity(capsys, alpha_instance):
    def body(problems):
        spec = alpha_instance
        values = []
        for alpha in (0.2, 0.4, 0.6, 0.8, 1.2, 2.0):
            result = solve(spec, RelaxationParams.from_alpha(alpha),
                           SolverConfig(scheme="hierarchical", tol=1e-10,
                                        max_iters=20000, seed=0))
            if result.status != "Converged":
                problems.append(f"alpha={alpha} ended with status {result.status}")
            values.append(relobj(spec, result.X, result.Y))
        spread = (max(values) - min(values)) / min(values)
        if spread > 0.01:
            problems.append(f"relative spread {spread:.2e} exceeds 1%")

    _run(capsys, 10, "alpha insensitivity", 120.0, body)


def test_11_line_search_mode_agreement(capsys, alpha_instance):
    def body(problems):
        spec = alpha_instance
        params = RelaxationParams.from_alpha(0.6)
        values = {}
        for mode in ("average", "max"):
            result = solve(spec, params,
                           SolverConfig(scheme="hierarchical", line_search=mode,
                                        tol=1e-10, max_iters=20000, seed=0))
            if result.status != "Converged":
                problems.append(f"{mode} mode ended with status {result.status}")
            values[mode] = relobj(spec, result.X, result.Y)
        diff = abs(values["average"] - values["max"]) / min(values.values())
        if diff > 0.01:
            problems.append(f"modes disagree by {diff:.2e} (> 1%)")

    _run(capsys, 11, "line-search mode agreement", 30.0, body)


# --------------------------------------------------------------------------
# 12-13: scheme cross-validation and determinism
# --------------------------------------------------------------------------


def test_12_scheme_cross_validation(capsys):
    def body(problems):
        rng = np.random.default_rng(21)
        B = rng.uniform(size=(20, 3))
        spec = snmf_spec(B @ B.T, 3, 1.0, psi=Zero(), phi=Zero())
        params = RelaxationParams.from_alpha(0.6)
        for scheme in SCHEMES:
            config = SolverConfig(scheme=scheme, tol=1e-15, max_iters=60000,
                                  seed=0, audit=True)
            result = solve(spec, params, config)
            resid = stationarity_residual(spec, result.X, result.Y)
            if resid > 1e-6:
                problems.append(f"{scheme}: stationarity residual {resid:.2e} > 1e-6")
            X_prev, Y_prev = result.x0, result.y0
            for rec in result.records:
                Z = z_star(spec, params, X_prev, Y_prev)
                inc = scheme_inclusion_residual(spec, params, scheme, X_prev, Y_prev,
                                                Z, rec.x, rec.y, rec.mu_bar,
                                                rec.sigma_bar)
                if inc > 1e-8:
                    problems.append(f"{scheme} iter {rec.k}: inclusion residual "
                                    f"{inc:.2e} > 1e-8")
                    break
                X_prev, Y_prev = rec.x, rec.y

    _run(capsys, 12, "scheme cross-validation", 30.0, body)


def test_13_trace_determinism(capsys, tmp_path):
    def body(problems):
        config = {
            "dataset": {"source": "synthetic", "n": 20, "m": 3, "seed": 7,
                        "noise_t": 0.01},
            "problem": {"rank": 3, "lambda": 1.0,
                        "psi": {"kind": "nonneg"}, "phi": {"kind": "nonneg"}},
            "relaxation": {"alpha": 0.6},
            "solver": {"tol": 1e-16, "max_iters": 50, "seed": 0},
        }
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(config))
        traces = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cli_main(["solve", "--config", str(cfg_path), "--out", str(out)])
            traces.append((out / "run_trace.csv").read_bytes())
        if traces[0] != traces[1]:
            problems.append("repeated runs produced different trace files")
        if len(traces[0].splitlines()) != 51:
            problems.append("trace does not contain one row per iteration")

    _run(capsys, 13, "trace determinism", 10.0, body)
