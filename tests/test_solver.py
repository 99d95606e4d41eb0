import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gsmf import diagnostics
from gsmf.data import DatasetRecipe, gen_data
from gsmf.objective import (
    ProblemSpec,
    RelaxationParams,
    f_lambda,
    relobj,
    snmf_spec,
    z_star,
)
from gsmf.operators import DimensionMismatchError, SymmetricSampling, random_symmetric_omega
from gsmf.regularizers import NonnegIndicator, Zero
from gsmf.solver import (
    AlgorithmInvariantError,
    ConfigError,
    STATUS_CONVERGED,
    STATUS_ITER_LIMIT,
    STATUS_TIME_LIMIT,
    SolverConfig,
    _escalations,
    init_state,
    inner_iteration_budget,
    solve,
    spectral_norm_sq,
    step,
    update_u,
    update_v,
)


def planted(n, r, seed, lam=1.0, psi=None, phi=None):
    rng = np.random.default_rng(seed)
    B = rng.uniform(size=(n, r))
    return snmf_spec(B @ B.T, r, lam, psi=psi, phi=phi), B


# --------------------------------------------------------------------------
# configuration validation
# --------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="scheme"):
        SolverConfig(scheme="newton")
    with pytest.raises(ConfigError, match="line_search"):
        SolverConfig(line_search="armijo")
    with pytest.raises(ConfigError, match="tau"):
        SolverConfig(tau=1.0)
    with pytest.raises(ConfigError, match="sigma"):
        SolverConfig(sigma_min=10.0, sigma_max0=1.0)
    with pytest.raises(ConfigError, match="c must"):
        SolverConfig(c=0.0)
    for line_search in ("average", "max"):
        for p_const in (0.0, 1.5):
            with pytest.raises(ConfigError, match="p_const"):
                SolverConfig(line_search=line_search, p_const=p_const)
        with pytest.raises(ConfigError, match="window"):
            SolverConfig(line_search=line_search, window=0)
    with pytest.raises(ConfigError, match="tol"):
        SolverConfig(tol=0.0)
    with pytest.raises(ConfigError, match="^max_iters must be >= 0, got -3$"):
        SolverConfig(max_iters=-3)
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        SolverConfig(seed=-1)
    assert SolverConfig(max_iters=0).max_iters == 0


@pytest.mark.parametrize("field", ["window", "consec_required", "max_iters", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "3", None])
def test_config_rejects_a_non_integer_count(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("value", ["no", "false", 0, 1, 1.0, None])
def test_config_rejects_a_non_bool_audit(value):
    # a truthy non-bool would turn the audit on, and every record keeps X, Y
    with pytest.raises(ConfigError, match=f"^audit must be a bool, got {value!r}$"):
        SolverConfig(audit=value)


def test_config_accepts_a_numpy_bool_audit():
    assert SolverConfig(audit=np.True_).audit is True
    assert SolverConfig(audit=np.False_).audit is False


@pytest.mark.parametrize("field", ["window", "consec_required", "max_iters", "seed"])
def test_config_accepts_numpy_integers(field):
    value = getattr(SolverConfig(**{field: np.int64(3)}), field)
    assert type(value) is int and value == 3


_FLOAT_FIELDS = ("p_const", "mu_min", "sigma_min", "sigma_max0", "tau", "c", "tol",
                 "max_time_sec")
_NO_LIMIT = ("sigma_max0", "max_time_sec", "tol")  # inf means "no limit"


@pytest.mark.parametrize("field, value", [
    *((f, math.nan) for f in _FLOAT_FIELDS),
    *((f, math.inf) for f in _FLOAT_FIELDS if f not in _NO_LIMIT),
    ("tol", "1e-9"),
])
def test_config_rejects_a_non_finite_number(field, value):
    rule = f"^{field} must be (a real number|finite), got"
    with pytest.raises(ConfigError, match=rule):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("line_search", "armijo"), ("p_const", 5.0),
                                          ("tol", "1e-9")])
def test_config_is_frozen_and_replace_checks_again(field, value):
    config = SolverConfig(max_iters=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)
    with pytest.raises(ConfigError, match=f"^(unknown )?{field}"):
        dataclasses.replace(config, **{field: value})


@pytest.mark.parametrize("value", [-1.0, -1e-300, -math.inf])
def test_config_rejects_a_negative_time_limit(value):
    rule = f"^max_time_sec must be >= 0, got {value!r}$"
    with pytest.raises(ConfigError, match=rule):
        SolverConfig(max_time_sec=value)


@pytest.mark.parametrize("field", _NO_LIMIT)
def test_config_accepts_inf_as_no_limit(field):
    assert getattr(SolverConfig(**{field: math.inf}), field) == math.inf


def test_proximal_scheme_needs_zero_regularizer():
    spec, _ = planted(6, 2, 0)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="proximal", max_iters=2)
    with pytest.raises(ConfigError, match="proximal"):
        solve(spec, params, config)


# --------------------------------------------------------------------------
# spectral norm and the inner-iteration budget
# --------------------------------------------------------------------------


def test_spectral_norm_sq_matches_dense_solver():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    inputs = [rng.standard_normal(shape) for shape in ((7, 3), (20, 5), (4, 4))]
    inputs += [
        # columns [a, -a]: the Gram matrix [[5, -5], [-5, 5]] has spectrum {0, 10}
        np.array([[1.0, -1.0], [2.0, -2.0]]),
        # repeated top eigenvalue: A^T A = diag(4, 4, 1)
        Q * np.array([2.0, 2.0, 1.0]),
    ]
    for A in inputs:
        want = float(np.linalg.norm(A, 2)) ** 2
        assert spectral_norm_sq(A) == pytest.approx(want, rel=1e-12)
    assert spectral_norm_sq(inputs[3]) == pytest.approx(10.0, rel=1e-14)
    assert spectral_norm_sq(inputs[4]) == pytest.approx(4.0, rel=1e-14)
    assert spectral_norm_sq(np.zeros((5, 2))) == 0.0


def test_inner_iteration_budget_hand_value():
    # floor(log(100)/log(4) + 2) = 5, so the budget is 2*5 + 2 = 12
    assert inner_iteration_budget(100.0, 1.0, 4.0) == 12
    assert inner_iteration_budget(1.0, 1.0, 4.0) == 2 * 2 + 2
    # degenerate mu_max below mu_min still yields a positive budget
    assert inner_iteration_budget(0.5, 1.0, 4.0) >= 4


# --------------------------------------------------------------------------
# block updates
# --------------------------------------------------------------------------


def test_prox_linear_updates_are_fixed_at_tight_split():
    # with Z = X Y^T the linearized gradient vanishes, so U = X (lam = 0)
    rng = np.random.default_rng(1)
    M = rng.uniform(size=(6, 6))
    spec = snmf_spec(0.5 * (M + M.T), 2, 0.0, psi=Zero(), phi=Zero())
    params = RelaxationParams.from_alpha(0.6)
    X = rng.uniform(size=(6, 2))
    Y = rng.uniform(size=(6, 2))
    Z = X @ Y.T
    U = update_u("prox_linear", spec, params, X, Y, Z, mu=1.3)
    assert np.allclose(U, X, rtol=0, atol=1e-14)
    V = update_v("prox_linear", spec, params, U, Y, U @ Y.T, sigma=0.7)
    assert np.allclose(V, Y, rtol=0, atol=1e-14)


def test_hierarchical_column_update_matches_grid_search():
    # n=2, r=1 instance solved against a dense 2-D grid oracle
    M = np.eye(2)
    spec = snmf_spec(M, 1, 0.0)
    params = RelaxationParams.from_alpha(2.0)
    x = np.array([[1.0], [0.0]])
    y = np.array([[1.0], [0.0]])
    Z = z_star(spec, params, x, y)
    mu = 1.0
    U = update_u("hierarchical", spec, params, x, y, Z, mu)

    def col_objective(u):
        # (alpha/2)||u y^T - Z||^2 + (mu/2)||u - x||^2 over u >= 0
        P = np.outer(u, y[:, 0]) - Z
        return params.alpha / 2 * np.sum(P * P) + mu / 2 * np.sum((u - x[:, 0]) ** 2)

    grid = np.linspace(0.0, 2.0, 401)
    best, best_val = None, math.inf
    for a in grid:
        for b in grid:
            val = col_objective(np.array([a, b]))
            if val < best_val:
                best, best_val = np.array([a, b]), val
    assert np.max(np.abs(U[:, 0] - best)) <= 5e-3  # grid resolution
    assert col_objective(U[:, 0]) <= best_val + 1e-12


def test_v_update_matches_closed_form_column_formula():
    rng = np.random.default_rng(2)
    spec, B = planted(5, 2, 7, lam=0.4)
    params = RelaxationParams.from_alpha(0.6)
    Y = rng.uniform(size=(5, 2))
    U = rng.uniform(size=(5, 2))
    Z = z_star(spec, params, U, Y)
    sigma = 1.7
    V = update_v("hierarchical", spec, params, U, Y, Z, sigma)
    a, lam = params.alpha, spec.lam
    Gu = U.T @ U
    Vref = Y.copy()
    for i in range(2):
        others = Vref @ Gu[:, i] - Vref[:, i] * Gu[i, i]
        q = Z.T @ U[:, i] - others
        w = (a * q + lam * U[:, i] + sigma * Y[:, i]) / (a * Gu[i, i] + lam + sigma)
        Vref[:, i] = np.maximum(w, 0.0)
    assert np.allclose(V, Vref, rtol=1e-12, atol=1e-14)


def test_all_schemes_satisfy_their_inclusion():
    rng = np.random.default_rng(3)
    params = RelaxationParams.from_alpha(0.6)
    spec, _ = planted(8, 3, 11, lam=0.5, psi=Zero(), phi=Zero())
    X = rng.uniform(size=(8, 3))
    Y = rng.uniform(size=(8, 3))
    Z = z_star(spec, params, X, Y)
    for scheme in ("proximal", "prox_linear", "hierarchical"):
        U = update_u(scheme, spec, params, X, Y, Z, mu=2.0)
        V = update_v(scheme, spec, params, U, Y, Z, sigma=3.0)
        resid = diagnostics.scheme_inclusion_residual(
            spec, params, scheme, X, Y, Z, U, V, 2.0, 3.0
        )
        assert resid <= 1e-8


@pytest.mark.parametrize("scheme", ["prox_linear", "hierarchical"])
def test_single_block_updates_form_only_their_products(monkeypatch, scheme):
    # each public update forms the one n-by-n product its block reads (Z Y
    # or Z^T U) and no Gram cache of the full map
    from gsmf import solver as solver_mod

    spec, B = planted(12, 3, 4)
    params = RelaxationParams.from_alpha(0.6)
    rng = np.random.default_rng(5)
    X, Y = rng.uniform(size=(12, 3)), rng.uniform(size=(12, 3))
    Z = z_star(spec, params, X, Y)
    mul_thin, products = solver_mod._mul_thin, []

    def spy_mul_thin(A, W):
        products.append(W)
        return mul_thin(A, W)

    def no_cache(*args):
        raise AssertionError("a single-block update built a Gram cache")

    monkeypatch.setattr(solver_mod, "_mul_thin", spy_mul_thin)
    monkeypatch.setattr(solver_mod, "GramCache", no_cache)
    U = update_u(scheme, spec, params, X, Y, Z, mu=2.0)
    update_v(scheme, spec, params, U, Y, Z, sigma=3.0)
    assert len(products) == 2
    assert np.array_equal(products[0], Y) and np.array_equal(products[1], U)


def test_update_rejects_a_scheme_the_problem_does_not_admit():
    spec, B = planted(4, 2, 0)  # nonnegative regularizers
    params = RelaxationParams.from_alpha(0.6)
    Z = z_star(spec, params, B, B)
    for update in (update_u, update_v):
        with pytest.raises(ConfigError, match="unknown scheme 'newton'"):
            update("newton", spec, params, B, B, Z, 1.0)
        with pytest.raises(ConfigError, match="proximal"):
            update("proximal", spec, params, B, B, Z, 1.0)


def test_update_rejects_nonpositive_parameters():
    spec, B = planted(4, 2, 0)
    params = RelaxationParams.from_alpha(0.6)
    Z = z_star(spec, params, B, B)
    with pytest.raises(ValueError, match="mu"):
        update_u("prox_linear", spec, params, B, B, Z, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        update_v("prox_linear", spec, params, B, B, Z, -1.0)
    # Z_k is required and n-by-n
    for bad in (None, Z[:3]):
        with pytest.raises(DimensionMismatchError, match="4x4 matrix"):
            update_u("prox_linear", spec, params, B, B, bad, 1.0)
        with pytest.raises(DimensionMismatchError, match="4x4 matrix"):
            update_v("prox_linear", spec, params, B, B, bad, 1.0)


@pytest.mark.parametrize("alpha", [1e-16, 1e-15, math.nextafter(1.0, 2.0),
                                   math.nextafter(1.0, 0.0), 1e150, -1e8, -0.5])
@pytest.mark.parametrize("scheme", ["hierarchical", "prox_linear"])
def test_solve_runs_at_an_admissible_boundary_alpha(alpha, scheme):
    # numpy warnings are errors in tier-1, so this also checks that none is raised
    spec = snmf_spec(gen_data(DatasetRecipe(n=30, m=3, seed=1)), 3, 1.0)
    result = solve(spec, RelaxationParams.from_alpha(alpha),
                   SolverConfig(scheme=scheme, max_iters=50))
    assert 0 < len(result.records) <= 50


@pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("alpha", [-0.01, -0.5, -1.5, -10.0])
def test_hierarchical_solves_at_a_negative_alpha(lam, alpha):
    """A column curvature alpha G_ii + lam + mu <= 0 below the caps is a
    rejected trial that raises mu; at the caps it is positive, so the run
    keeps its budget and its descent guarantee."""
    spec = snmf_spec(gen_data(DatasetRecipe(n=30, m=3, seed=1)), 3, lam)
    params = RelaxationParams.from_alpha(alpha)
    config = SolverConfig(scheme="hierarchical", max_iters=300, audit=True)
    result = solve(spec, params, config)
    assert len(result.records) == 300 or result.status == STATUS_CONVERGED
    assert diagnostics.descent_audit(result, spec, params, config) == 0


def test_step_raises_at_a_block_rejected_at_its_cap(monkeypatch):
    # at its cap a column curvature is at least lam + c > 0; should a block
    # still be rejected there, raising mu further cannot help
    from gsmf import solver as solver_mod

    monkeypatch.setattr(solver_mod, "_block", lambda *args, **kwargs: None)
    spec = snmf_spec(gen_data(DatasetRecipe(n=12, m=3, seed=1)), 3, 1.0)
    with pytest.raises(AlgorithmInvariantError, match="at its cap$"):
        solve(spec, RelaxationParams.from_alpha(0.6),
              SolverConfig(scheme="hierarchical", max_iters=1))


def test_hierarchical_update_raises_at_a_nonpositive_curvature():
    # the caller of the public update picks mu, so its curvature is an error
    spec, B = planted(4, 2, 0, lam=0.0)
    params = RelaxationParams.from_alpha(-0.5)
    Z = z_star(spec, params, B, B)
    with pytest.raises(AlgorithmInvariantError, match="nonpositive column curvature"):
        update_u("hierarchical", spec, params, B, B, Z, 1e-3)


@pytest.mark.parametrize("update, name", [(update_u, "mu"), (update_v, "sigma")])
@pytest.mark.parametrize("step, rule", [
    (math.nan, "a real number"), ("2", "a real number"), (True, "a real number"),
    (math.inf, "finite"),
])
def test_update_names_a_bad_step(update, name, step, rule):
    spec, B = planted(4, 2, 0)
    params = RelaxationParams.from_alpha(0.6)
    Z = z_star(spec, params, B, B)
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {step!r}$"):
        update("prox_linear", spec, params, B, B, Z, step)


# --------------------------------------------------------------------------
# single steps
# --------------------------------------------------------------------------


def test_step_from_exact_stationary_point_accepts_immediately():
    spec, B = planted(10, 3, 5, lam=1.0, psi=Zero(), phi=Zero())
    config = SolverConfig(scheme="proximal")
    state = init_state(spec, config, X0=B, Y0=B)
    rec = step(state, spec, RelaxationParams.from_alpha(0.6), config)
    assert rec.inner_iterations == 1
    assert np.max(np.abs(state.X - B)) <= 1e-10
    assert np.max(np.abs(state.Y - B)) <= 1e-10


def test_step_satisfies_acceptance_and_descent_bound():
    spec, _ = planted(20, 3, 1)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(audit=True, max_iters=40)
    result = solve(spec, params, config)
    assert diagnostics.descent_audit(result, spec, params, config) == 0


def test_average_mode_reference_is_monotone_and_dominates_f():
    spec, _ = planted(15, 3, 2)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(max_iters=100, tol=1e-16)
    state = init_state(spec, config)
    prev_R = state.R
    for _ in range(100):
        rec = step(state, spec, params, config)
        slack = 1e-9 * (1.0 + abs(prev_R))
        assert rec.ref_value <= prev_R + slack
        assert rec.f_value <= rec.ref_value + slack
        prev_R = rec.ref_value


def budget_bound(rec, config):
    """Most inner iterations an audited step may take: the mu-only budget,
    plus the sigma escalations from sigma_min once mu reached its cap."""
    bound = inner_iteration_budget(rec.mu_max, config.mu_min, config.tau)
    if not math.isnan(rec.sigma_max):
        bound += _escalations(config.sigma_min, rec.sigma_max, config.tau)
    return bound


def test_inner_iterations_respect_budget():
    spec, _ = planted(15, 3, 4)
    params = RelaxationParams.from_alpha(0.2)
    config = SolverConfig(max_iters=60, audit=True)
    state = init_state(spec, config)
    coef = params.alpha + 2.0 * params.gamma * params.rho
    for _ in range(60):
        mu_max = coef * spectral_norm_sq(state.Y) + config.c
        rec = step(state, spec, params, config)
        assert rec.mu_max == mu_max
        assert rec.inner_iterations <= budget_bound(rec, config)


def test_max_mode_reference_matches_windowed_max():
    spec, _ = planted(12, 3, 6)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(line_search="max", window=3, max_iters=50, tol=1e-16)
    state = init_state(spec, config)
    fvals = [state.f_value]
    for _ in range(50):
        rec = step(state, spec, params, config)
        fvals.append(rec.f_value)
        assert rec.ref_value == max(fvals[-(config.window + 1):])


@pytest.mark.parametrize("p_const", [0.2, 1.0])
def test_average_mode_reference_matches_the_rule(p_const):
    spec, _ = planted(12, 3, 6)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(line_search="average", p_const=p_const, max_iters=50,
                          tol=1e-16)
    state = init_state(spec, config)
    R_prev = state.R
    for _ in range(50):
        rec = step(state, spec, params, config)
        assert rec.ref_value == (1.0 - p_const) * R_prev + p_const * rec.f_value
        R_prev = rec.ref_value


def test_average_mode_reference_is_a_python_float_for_a_numpy_p_const():
    # a float32 p_const would carry every R in float32
    spec, _ = planted(12, 3, 6)
    config = SolverConfig(line_search="average", p_const=np.float32(0.2), max_iters=20)
    result = solve(spec, RelaxationParams.from_alpha(0.6), config)
    assert result.records
    assert all(type(rec.ref_value) is float for rec in result.records)


# --------------------------------------------------------------------------
# full solves
# --------------------------------------------------------------------------


def test_solve_planted_instance_reaches_relobj_tolerance():
    spec, _ = planted(20, 3, 3, lam=1.0)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(tol=1e-12, max_iters=5000, seed=0)
    result = solve(spec, params, config)
    assert result.status == STATUS_CONVERGED
    assert relobj(spec, result.X, result.Y) <= 1e-6


def test_solve_lambda_zero_planted_instance():
    spec, _ = planted(20, 3, 8, lam=0.0)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(tol=1e-12, max_iters=5000, seed=1)
    result = solve(spec, params, config)
    assert result.status == STATUS_CONVERGED
    assert relobj(spec, result.X, result.Y) <= 1e-6


def test_solve_step_sizes_vanish_before_termination():
    spec, _ = planted(20, 3, 9)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(tol=1e-12, max_iters=5000, audit=True)
    result = solve(spec, params, config)
    assert result.status == STATUS_CONVERGED
    a, b = result.records[-2], result.records[-1]
    move = np.linalg.norm(b.x - a.x) + np.linalg.norm(b.y - a.y)
    assert move <= 1e-6


def test_solve_infinite_tol_converges_after_consec_required():
    spec, _ = planted(10, 2, 10)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(tol=math.inf, consec_required=3)
    result = solve(spec, params, config)
    assert result.status == STATUS_CONVERGED
    assert len(result.records) == 3


def test_solve_iteration_limit_status():
    spec, _ = planted(10, 2, 11)
    params = RelaxationParams.from_alpha(0.6)
    result = solve(spec, params, SolverConfig(max_iters=5, tol=1e-16))
    assert result.status == STATUS_ITER_LIMIT
    assert len(result.records) == 5


def test_sampling_solve_keeps_one_z_at_a_time():
    n = 600
    rng = np.random.default_rng(0)
    amap = SymmetricSampling(n, random_symmetric_omega(n, 0.02, rng))
    spec = ProblemSpec(amap, rng.uniform(size=amap.q), NonnegIndicator(),
                       NonnegIndicator(), 1.0, n, 5)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="prox_linear", max_iters=5, tol=1e-16)
    tracemalloc.start()
    try:
        result = solve(spec, params, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == 5
    arrays = peak / (n * n * 8)
    assert arrays < 1.5, f"the solve peaked at {arrays:.2f} n-by-n arrays"


@pytest.mark.parametrize("scheme", ["hierarchical", "prox_linear"])
def test_full_map_solve_holds_no_n_by_n_array_beyond_the_target(scheme):
    n = 600
    spec, _ = planted(n, 5, 0)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme=scheme, max_iters=5, tol=1e-16)
    tracemalloc.start()
    try:
        result = solve(spec, params, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == 5
    arrays = peak / (n * n * 8)
    assert arrays < 0.5, f"the solve peaked at {arrays:.2f} n-by-n arrays"


@pytest.mark.parametrize("zero_column_in_x0", [False, True])
@pytest.mark.parametrize("scheme", ["hierarchical", "prox_linear"])
@pytest.mark.parametrize("kind", ["full", "sampling"])
def test_zero_y0_starts_at_a_mu_cap_below_mu_min(kind, scheme, zero_column_in_x0):
    # with Y0 = 0, mu_max = c = 1e-4 lies below mu_min = 1
    n, r = 12, 3
    rng = np.random.default_rng(31)
    B = rng.uniform(size=(n, r))
    if kind == "full":
        spec = snmf_spec(B @ B.T, r, 1.0)
    else:
        amap = SymmetricSampling(n, random_symmetric_omega(n, 0.5, rng))
        spec = ProblemSpec(amap, amap.apply(B @ B.T), NonnegIndicator(),
                           NonnegIndicator(), 1.0, n, r)
    X0 = rng.uniform(size=(n, r))
    if zero_column_in_x0:
        X0[:, 1] = 0.0
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme=scheme, audit=True, max_iters=30, tol=1e-16)
    result = solve(spec, params, config, X0=X0, Y0=np.zeros((n, r)))
    first = result.records[0]
    assert first.mu_max == config.c < config.mu_min
    assert first.mu_bar == first.mu_max
    assert first.inner_iterations <= budget_bound(first, config)
    assert len(result.records) == 30
    assert diagnostics.descent_audit(result, spec, params, config) == 0


def test_solve_time_limit_zero_stops_immediately():
    spec, _ = planted(10, 2, 12)
    params = RelaxationParams.from_alpha(0.6)
    result = solve(spec, params, SolverConfig(max_time_sec=0.0))
    assert result.status == STATUS_TIME_LIMIT
    assert len(result.records) == 0


def test_solve_is_deterministic():
    spec, _ = planted(12, 3, 13)
    params = RelaxationParams.from_alpha(0.6)
    runs = []
    for _ in range(2):
        result = solve(spec, params, SolverConfig(max_iters=30, seed=42, tol=1e-16))
        runs.append(result)
    assert np.array_equal(runs[0].X, runs[1].X)
    assert np.array_equal(runs[0].Y, runs[1].Y)
    for a, b in zip(runs[0].records, runs[1].records):
        assert a.f_value == b.f_value
        assert a.ref_value == b.ref_value
        assert a.mu_bar == b.mu_bar
        assert a.sigma_bar == b.sigma_bar
        assert a.inner_iterations == b.inner_iterations


def test_init_state_rejects_nonfinite_x0():
    spec, B = planted(6, 2, 14)
    X0 = B.copy()
    X0[3, 1] = np.nan
    with pytest.raises(ValueError, match="^X0 has non-finite entries"):
        init_state(spec, SolverConfig(), X0=X0, Y0=B)


def test_init_state_rejects_nonfinite_y0():
    spec, B = planted(6, 2, 14)
    Y0 = B.copy()
    Y0[0, 0] = -np.inf
    with pytest.raises(ValueError, match="^Y0 has non-finite entries"):
        init_state(spec, SolverConfig(), X0=B, Y0=Y0)


def test_infeasible_start_is_rejected():
    spec, B = planted(6, 2, 14)
    params = RelaxationParams.from_alpha(0.6)
    with pytest.raises(ValueError, match="infeasible"):
        solve(spec, params, SolverConfig(), X0=-B, Y0=B)


def test_max_line_search_converges_comparably():
    spec, _ = planted(20, 3, 15)
    params = RelaxationParams.from_alpha(0.6)
    avg = solve(spec, params, SolverConfig(tol=1e-12, max_iters=5000, seed=3))
    mx = solve(
        spec, params,
        SolverConfig(line_search="max", window=3, tol=1e-12, max_iters=5000, seed=3),
    )
    assert avg.status == STATUS_CONVERGED and mx.status == STATUS_CONVERGED
    assert relobj(spec, mx.X, mx.Y) <= 1e-6


def test_generic_sampling_map_path():
    from gsmf.operators import SymmetricSampling, random_symmetric_omega
    from gsmf.objective import ProblemSpec

    rng = np.random.default_rng(16)
    B = rng.uniform(size=(12, 2))
    M = B @ B.T
    amap = SymmetricSampling(12, random_symmetric_omega(12, 0.6, rng))
    spec = ProblemSpec(amap, amap.apply(M), NonnegIndicator(), NonnegIndicator(),
                       lam=1.0, n=12, r=2)
    params = RelaxationParams.from_alpha(0.6)
    result = solve(spec, params, SolverConfig(tol=1e-12, max_iters=5000, seed=2))
    assert result.status == STATUS_CONVERGED
    assert relobj(spec, result.X, result.Y) <= 1e-5


def test_budget_violation_raises_invariant_error():
    # sabotage: a kernel whose objective is always huge can never be accepted
    from gsmf.solver import _Kernel

    spec, _ = planted(8, 2, 17, psi=Zero(), phi=Zero())
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="proximal")

    class BrokenKernel(_Kernel):
        def objective(self, U, V):
            self.f_err = 0.0
            return 1e30

    state = init_state(spec, config)
    with pytest.raises(AlgorithmInvariantError, match="budget"):
        step(state, spec, params, config, _kernel=BrokenKernel(spec, params, config))


def test_prox_linear_budget_covers_sigma_escalations():
    # once ||Y||^2 collapses, mu_max < mu_min caps mu at once; the budget
    # must then cover the sigma escalations to sigma_max (about six here),
    # not just the mu-only budget of 4
    from gsmf.data import DatasetRecipe, gen_data

    M = gen_data(DatasetRecipe("synthetic", n=500, m=10, seed=1, noise_t=0.01,
                               symmetrize_noise=True))
    spec = snmf_spec(M, 10, 1.0)
    params = RelaxationParams.from_alpha(0.6)
    beyond_mu_budget = 0
    for seed in range(8):
        config = SolverConfig(scheme="prox_linear", max_iters=30, seed=seed,
                              audit=True)
        result = solve(spec, params, config)
        assert result.status == STATUS_ITER_LIMIT
        assert len(result.records) == 30
        assert max(rec.inner_iterations for rec in result.records) > 4
        for rec in result.records:
            assert rec.inner_iterations <= budget_bound(rec, config)
            beyond_mu_budget += rec.inner_iterations > inner_iteration_budget(
                rec.mu_max, config.mu_min, config.tau)
    # the sigma term is what covers these steps, so the bound is not vacuous
    assert beyond_mu_budget > 0


@pytest.mark.parametrize("sampling", [False, True])
@pytest.mark.parametrize("scheme, alpha, mu_min, backtracks", [
    ("hierarchical", 0.6, 1.0, False),
    ("hierarchical", 0.2, 1.0, True),
    ("prox_linear", 0.6, 10.0, False),
    ("prox_linear", 0.6, 1.0, True),
])
def test_shared_kernel_reuse_matches_fresh_steps(scheme, alpha, mu_min, backtracks,
                                                 sampling):
    # solve keeps one kernel and reuses the product formed at the accepted
    # pair (M V on the full map, the misfit operator G on the sampling map)
    # in the next step; step without _kernel forms every product afresh
    from gsmf.solver import _Kernel

    params = RelaxationParams.from_alpha(alpha)
    if sampling:
        spec = _sampling_spec(NonnegIndicator())
    else:
        rng = np.random.default_rng(20)
        B = rng.uniform(size=(25, 3))
        spec = snmf_spec(B @ B.T + 0.1 * rng.uniform(size=(25, 25)), 3, 1.0)
    config = SolverConfig(scheme=scheme, max_iters=40, tol=1e-16,
                          consec_required=41, seed=1, mu_min=mu_min,
                          sigma_min=mu_min)
    result = solve(spec, params, config)
    state = init_state(spec, config)
    fresh = [step(state, spec, params, config) for _ in range(40)]
    assert result.records == fresh
    assert np.array_equal(result.X, state.X) and np.array_equal(result.Y, state.Y)
    inner = [rec.inner_iterations for rec in fresh]
    assert (max(inner) > 1) == backtracks

    kern = _Kernel(spec, params, config)
    state = init_state(spec, config)
    step(state, spec, params, config, _kernel=kern)
    X, Y, held = kern._accepted
    assert X is state.X and Y is state.Y
    if sampling:
        G = spec.map.misfit_operator(state.X, state.Y, spec.b)
        assert np.array_equal(held.toarray(), G.toarray())
    else:
        assert np.array_equal(held, kern.cache.M @ state.Y)


@pytest.mark.parametrize("sampling", [False, True])
def test_sigma_only_retries_reuse_the_u_product(monkeypatch, sampling):
    # once mu is at its cap only sigma escalates and U stays the same, so
    # update_v forms M^T U (or G^T U on the sampling map, for the misfit
    # operator G) once per U, not once per retry
    from gsmf import operators, solver as solver_mod
    from gsmf.data import DatasetRecipe, gen_data
    from gsmf.objective import ProblemSpec

    n = 60 if sampling else 40
    M = gen_data(DatasetRecipe("synthetic", n=n, m=3, seed=1, noise_t=0.01,
                               symmetrize_noise=True))
    if sampling:
        amap = operators.SymmetricSampling(n, operators.random_symmetric_omega(
            n, 0.5, np.random.default_rng(2)))
        spec = ProblemSpec(amap, amap.apply(M), NonnegIndicator(),
                           NonnegIndicator(), 1.0, n=n, r=3)
    else:
        spec = snmf_spec(M, 3, 1.0)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="prox_linear", max_iters=30, seed=0)

    kernel = solver_mod._Kernel
    update_u, update_v = kernel.update_u, kernel.update_v
    us, v_calls, u_products = [], [0], [0]

    def spy_update_u(self, mu):
        us.append(update_u(self, mu))
        return us[-1]

    def spy_update_v(self, U, sigma):
        v_calls[0] += 1
        return update_v(self, U, sigma)

    if sampling:
        class SpyG:
            """The misfit operator G, counting ``G.T @ U`` for the block's U."""

            def __init__(self, G, transposed=False):
                self.G, self.transposed = G, transposed

            def __matmul__(self, W):
                u_products[0] += self.transposed and any(W is U for U in us)
                return self.G @ W

            @property
            def T(self):
                return SpyG(self.G.T, True)

        begin_outer = kernel.begin_outer

        def spy_begin_outer(self, X, Y):
            begin_outer(self, X, Y)
            self.G = SpyG(self.G)

        monkeypatch.setattr(kernel, "begin_outer", spy_begin_outer)
    else:
        mul_thin = solver_mod._mul_thin

        def spy_mul_thin(operand, W):
            u_products[0] += any(W is U for U in us)
            return mul_thin(operand, W)

        monkeypatch.setattr(solver_mod, "_mul_thin", spy_mul_thin)
    monkeypatch.setattr(kernel, "update_u", spy_update_u)
    monkeypatch.setattr(kernel, "update_v", spy_update_v)
    reused = solve(spec, params, config)
    assert v_calls[0] > len(us)  # some retries escalated sigma alone
    assert u_products[0] == len(us)

    def fresh_update_v(self, U, sigma):
        self._U = None
        return update_v(self, U, sigma)

    monkeypatch.setattr(kernel, "update_v", fresh_update_v)
    fresh = solve(spec, params, config)
    assert reused.records == fresh.records
    assert np.array_equal(reused.X, fresh.X) and np.array_equal(reused.Y, fresh.Y)


def test_sampling_solve_forms_one_misfit_per_candidate(monkeypatch):
    # the objective forms each candidate's misfit once, and the residual of
    # the accepted pair builds its sparse products from that same vector
    from gsmf import operators, solver as solver_mod
    from gsmf.data import DatasetRecipe, gen_data
    from gsmf.objective import ProblemSpec

    n = 60
    M = gen_data(DatasetRecipe("synthetic", n=n, m=3, seed=1, noise_t=0.01,
                               symmetrize_noise=True))
    amap = operators.SymmetricSampling(n, operators.random_symmetric_omega(
        n, 0.5, np.random.default_rng(2)))
    spec = ProblemSpec(amap, amap.apply(M), NonnegIndicator(), NonnegIndicator(),
                       1.0, n=n, r=3)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="prox_linear", max_iters=30, seed=0)

    misfit, calls = amap.misfit, [0]

    def counting_misfit(*args, **kwargs):
        calls[0] += 1
        return misfit(*args, **kwargs)

    monkeypatch.setattr(amap, "misfit", counting_misfit)
    kept = solve(spec, params, config)
    inner = sum(rec.inner_iterations for rec in kept.records)
    assert inner > len(kept.records)  # some candidates were rejected
    # one per candidate, one for the start's objective and one for the first
    # step's misfit operator; later steps reuse the accepted candidate's
    assert calls[0] == inner + 2

    gradients = solver_mod._Kernel.gradients

    def fresh_gradients(self, U, V):
        self._misfit = None
        return gradients(self, U, V)

    monkeypatch.setattr(solver_mod._Kernel, "gradients", fresh_gradients)
    fresh = solve(spec, params, config)
    assert kept.records == fresh.records
    assert np.array_equal(kept.X, fresh.X) and np.array_equal(kept.Y, fresh.Y)


def test_sampling_solve_builds_the_misfit_operator_once_per_accepted_pair(monkeypatch):
    # G serves every Z^T U of a step, however many U the backtracking
    # tries: the first step builds it at the start pair, and the residual
    # builds it at each accepted (U, V), which the next step reuses
    from gsmf.solver import _Kernel

    spec = _sampling_spec(NonnegIndicator())
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="prox_linear", max_iters=30, seed=0)
    misfit_operator, update_u = spec.map.misfit_operator, _Kernel.update_u
    builds, us = [0], [0]

    def counting_misfit_operator(*args, **kwargs):
        builds[0] += 1
        return misfit_operator(*args, **kwargs)

    def counting_update_u(self, mu):
        us[0] += 1
        return update_u(self, mu)

    monkeypatch.setattr(spec.map, "misfit_operator", counting_misfit_operator)
    monkeypatch.setattr(_Kernel, "update_u", counting_update_u)
    result = solve(spec, params, config)
    assert us[0] > len(result.records)  # some steps tried more than one U
    assert builds[0] == len(result.records) + 1


def _sampling_spec(reg):
    n = 60
    M = gen_data(DatasetRecipe("synthetic", n=n, m=3, seed=1, noise_t=0.01,
                               symmetrize_noise=True))
    amap = SymmetricSampling(n, random_symmetric_omega(n, 0.5, np.random.default_rng(2)))
    return ProblemSpec(amap, amap.apply(M), reg, reg, 1.0, n=n, r=3)


@pytest.mark.parametrize("scheme", ["proximal", "prox_linear", "hierarchical"])
def test_sampling_kernel_v_block_matches_the_dense_z(scheme):
    # the kernel reads Z^T U from the misfit; the public update_v from Z
    from gsmf.solver import _Kernel

    spec = _sampling_spec(Zero())
    params = RelaxationParams.from_alpha(0.6)
    rng = np.random.default_rng(7)
    X, Y = rng.uniform(size=(60, 3)), rng.uniform(size=(60, 3))
    kern = _Kernel(spec, params, SolverConfig(scheme=scheme))
    kern.begin_outer(X, Y)
    U = kern.update_u(2.0)
    got = kern.update_v(U, 3.0)
    want = update_v(scheme, spec, params, U, Y, z_star(spec, params, X, Y), 3.0)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_sampling_solve_forms_one_dense_product_per_step(monkeypatch):
    # Z Y is the one n-by-n times n-by-r product of a sampling-map step;
    # Z^T U comes from the sparse misfit
    from gsmf import solver as solver_mod

    spec = _sampling_spec(NonnegIndicator())
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="prox_linear", max_iters=30, seed=0)
    mul_thin, begin_outer = solver_mod._mul_thin, solver_mod._Kernel.begin_outer
    ys, operands = [], []

    def spy_begin_outer(self, X, Y):
        ys.append(Y)
        return begin_outer(self, X, Y)

    def spy_mul_thin(A, W):
        operands.append(W)
        return mul_thin(A, W)

    monkeypatch.setattr(solver_mod._Kernel, "begin_outer", spy_begin_outer)
    monkeypatch.setattr(solver_mod, "_mul_thin", spy_mul_thin)
    result = solve(spec, params, config)
    assert sum(rec.inner_iterations for rec in result.records) > 30
    assert len(operands) == len(ys) == 30
    assert all(W is Y for W, Y in zip(operands, ys))
