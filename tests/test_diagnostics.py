import copy
import dataclasses
import logging
import math

import numpy as np
import pytest

from gsmf.diagnostics import (
    charged_move,
    descent_audit,
    exact_penalty_threshold,
    gradients,
    relaxation_consistency,
    report,
    scheme_inclusion_residual,
    spectral_norm_sq,
    stationarity_residual,
    symmetry_gap,
)
from gsmf.objective import (
    ProblemSpec,
    RelaxationParams,
    f_lambda,
    relobj,
    snmf_spec,
    theta,
    z_star,
)
from gsmf.operators import (
    DimensionMismatchError,
    FullVectorization,
    SymmetricSampling,
    random_symmetric_omega,
)
from gsmf.regularizers import L1, NonnegIndicator, Zero
from gsmf.solver import (
    ConfigError,
    SolveResult,
    SolverConfig,
    init_state,
    solve,
    step,
    update_u,
    update_v,
)


def planted(n, r, seed, lam=1.0):
    rng = np.random.default_rng(seed)
    B = rng.uniform(size=(n, r))
    return snmf_spec(B @ B.T, r, lam), B


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    spec, _ = planted(6, 2, 1, lam=0.7)
    X = rng.uniform(0.1, 1.0, size=(6, 2))
    Y = rng.uniform(0.1, 1.0, size=(6, 2))
    gx, gy = gradients(spec, X, Y)
    h = 1e-6
    for idx in ((0, 0), (3, 1), (5, 0)):
        E = np.zeros_like(X)
        E[idx] = h
        want = (f_lambda(spec, X + E, Y) - f_lambda(spec, X - E, Y)) / (2 * h)
        assert gx[idx] == pytest.approx(want, rel=1e-5, abs=1e-7)
        want = (f_lambda(spec, X, Y + E) - f_lambda(spec, X, Y - E)) / (2 * h)
        assert gy[idx] == pytest.approx(want, rel=1e-5, abs=1e-7)


def test_stationarity_zero_at_planted_interior_optimum():
    spec, B = planted(8, 3, 2, lam=1.0)
    assert np.all(B > 0)
    assert stationarity_residual(spec, B, B) <= 1e-10


def test_projection_absorbs_blocked_coordinates():
    # at a zero entry with positive partial gradient, the prox-gradient
    # component is 0 - max(0 - g, 0) = 0 for the nonnegative indicator
    M = np.array([[-1.0, 0.0], [0.0, 0.0]])
    spec = snmf_spec(M, 1, 0.0)
    X = np.zeros((2, 1))
    Y = np.array([[1.0], [0.0]])
    gx, _ = gradients(spec, X, Y)
    assert gx[0, 0] > 0  # pushes the zero entry toward infeasibility
    rx = X - spec.psi.prox(X - gx, 1.0)
    assert rx[0, 0] == 0.0
    assert stationarity_residual(spec, X, Y) == pytest.approx(
        float(np.linalg.norm(X - np.maximum(X - gx, 0.0)))
        + float(np.linalg.norm(Y - np.maximum(Y - gradients(spec, X, Y)[1], 0.0)))
    )


def test_random_point_has_positive_residual_and_no_descent_at_solution():
    spec, _ = planted(10, 3, 4, lam=1.0)
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(10, 3))
    Y = rng.uniform(size=(10, 3))
    assert stationarity_residual(spec, X, Y) > 1e-3

    params = RelaxationParams.from_alpha(0.6)
    result = solve(spec, params, SolverConfig(tol=1e-13, max_iters=10000, seed=0))
    Xs, Ys = result.X, result.Y
    fs = f_lambda(spec, Xs, Ys)
    eps = 1e-5
    for _ in range(1000):
        dx = rng.standard_normal(Xs.shape)
        dy = rng.standard_normal(Ys.shape)
        # project onto the feasible cone: frozen zero coordinates move up only
        dx[Xs <= 0] = np.abs(dx[Xs <= 0])
        dy[Ys <= 0] = np.abs(dy[Ys <= 0])
        scale = eps / (np.linalg.norm(dx) + np.linalg.norm(dy))
        f_trial = f_lambda(spec, Xs + scale * dx, Ys + scale * dy)
        assert f_trial >= fs - 1e-9


def test_symmetry_gap_examples():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((4, 2))
    assert symmetry_gap(X, X) == 0.0
    assert symmetry_gap(np.array([[1.0]]), np.array([[3.0]])) == 4.0
    Y = rng.standard_normal((4, 2))
    naive = sum(
        (X[i, j] - Y[i, j]) ** 2 for i in range(4) for j in range(2)
    )
    assert symmetry_gap(X, Y) == pytest.approx(naive, rel=1e-14)
    with pytest.raises(ValueError, match="mismatch"):
        symmetry_gap(X, np.zeros((3, 2)))


def test_penalty_threshold_at_origin():
    spec, _ = planted(6, 2, 7, lam=1.0)
    M = spec.map.adjoint(spec.b)
    Z0 = np.zeros((6, 2))
    threshold, satisfied = exact_penalty_threshold(spec, Z0, Z0)
    want = -float(np.linalg.eigvalsh(M)[0]) / 2.0
    assert threshold == pytest.approx(want, rel=1e-9, abs=1e-12)
    # M = B B^T is PSD with positive smallest eigenvalue only if full rank;
    # either way the planted lambda = 1 > threshold <= 0 is satisfied
    assert satisfied


def test_penalty_threshold_identity_instance():
    spec = snmf_spec(np.eye(3), 3, 1.0)
    threshold, satisfied = exact_penalty_threshold(spec, np.eye(3), np.eye(3))
    assert threshold == pytest.approx(0.0, abs=1e-9)
    assert satisfied


@pytest.mark.parametrize("draw", ["uniform", "standard_normal"])
@pytest.mark.parametrize("kind", ["full", "sampling"])
def test_penalty_threshold_matches_dense_oracle(kind, draw):
    rng = np.random.default_rng(8)
    n = 7 if kind == "full" else 30
    spec, _ = planted(n, 3, 9, lam=0.5)
    M = spec.map.adjoint(spec.b)
    mask = np.ones((n, n))
    if kind == "sampling":
        # the oracle masks X Y^T and M by Omega densely
        amap = SymmetricSampling(n, random_symmetric_omega(n, 0.3, rng))
        mask = amap.adjoint(np.ones(amap.q))
        spec = ProblemSpec(amap, amap.apply(M), spec.psi, spec.phi, spec.lam, n, 3)
    X = getattr(rng, draw)(size=(n, 3))
    Y = getattr(rng, draw)(size=(n, 3))
    threshold, _ = exact_penalty_threshold(spec, X, Y)
    want = 0.5 * (np.linalg.norm(mask * (X @ Y.T), 2)
                  - np.linalg.eigvalsh(mask * M)[0])
    assert threshold == pytest.approx(want, rel=1e-8)
    assert exact_penalty_threshold(spec, X, Y)[0] == threshold  # to the last bit


@pytest.mark.parametrize("kind", ["full", "sampling"])
def test_penalty_threshold_of_a_factor_orthogonal_to_the_ones_vector(kind):
    # ||u u^T||_2 = 2 for u = (1, -1, 0, ...): a power iteration started at
    # the ones vector, orthogonal to u, reads 0 and certifies lambda = 0.3
    n = 6
    u = np.array([[1.0, -1.0, 0.0, 0.0, 0.0, 0.0]]).T
    spec = snmf_spec(np.eye(n), 1, 0.3, psi=Zero(), phi=Zero())
    if kind == "sampling":
        amap = SymmetricSampling(n, [(i, j) for j in range(1, n + 1)
                                     for i in range(1, n + 1)])
        spec = ProblemSpec(amap, amap.apply(np.eye(n)), Zero(), Zero(), 0.3, n, 1)
    threshold, satisfied = exact_penalty_threshold(spec, u, u)
    assert threshold == pytest.approx(0.5, abs=1e-12)
    assert satisfied is False


@pytest.mark.parametrize("n, x, y, want", [
    (1, -2.0, 3.0, 0.5 * (6.0 - 0.5)),  # ARPACK needs k < n: one entry
    (5, 0.0, 0.0, -0.25),  # ARPACK cannot start on a zero operator
])
def test_penalty_threshold_on_sampling_maps_arpack_does_not_run_on(n, x, y, want):
    amap = SymmetricSampling(n, [(i, i) for i in range(1, n + 1)])
    spec = ProblemSpec(amap, np.full(n, 0.5), Zero(), Zero(), 0.1, n, 1)
    threshold, _ = exact_penalty_threshold(spec, np.full((n, 1), x), np.full((n, 1), y))
    assert threshold == pytest.approx(want, abs=1e-15)


def test_penalty_threshold_preconditions():
    spec, B = planted(5, 2, 10)
    bad = ProblemSpec(spec.map, spec.b, NonnegIndicator(), L1(0.5), 1.0, 5, 2)
    with pytest.raises(ValueError, match="Psi = Phi"):
        exact_penalty_threshold(bad, B, B)
    amap = SymmetricSampling(3, [(2, 1), (1, 2)])
    asym = ProblemSpec(amap, np.array([1.0, 2.0]), Zero(), Zero(), 0.0, 3, 1)
    with pytest.raises(ValueError, match="symmetric"):
        exact_penalty_threshold(asym, np.ones((3, 1)), np.ones((3, 1)))


def test_relaxation_consistency_small_on_random_points():
    rng = np.random.default_rng(11)
    omega = random_symmetric_omega(6, 0.4, rng)
    for amap in (FullVectorization(6), SymmetricSampling(6, omega)):
        spec = ProblemSpec(amap, rng.standard_normal(amap.q), Zero(), Zero(),
                           0.3, 6, 2)
        for alpha in (0.6, 2.0):
            params = RelaxationParams.from_alpha(alpha)
            X = rng.standard_normal((6, 2))
            Y = rng.standard_normal((6, 2))
            f = f_lambda(spec, X, Y)
            assert relaxation_consistency(spec, params, X, Y) <= 1e-10 * (1 + abs(f))


def test_relaxation_identity_holds_to_roundoff_for_a_float32_alpha():
    # beta computed in float32 breaks 1/alpha + 1/beta = 1 by ~1e-7
    rng = np.random.default_rng(11)
    omega = random_symmetric_omega(6, 0.4, rng)
    params = RelaxationParams.from_alpha(np.float32(0.6))
    for amap in (FullVectorization(6), SymmetricSampling(6, omega)):
        spec = ProblemSpec(amap, rng.standard_normal(amap.q), Zero(), Zero(),
                           0.3, 6, 2)
        for _ in range(5):
            X = rng.standard_normal((6, 2))
            Y = rng.standard_normal((6, 2))
            gap = relaxation_consistency(spec, params, X, Y)
            assert gap <= 1e-14 * f_lambda(spec, X, Y)


def test_relaxation_consistency_exact_zero_in_trivial_case():
    amap = FullVectorization(4)
    spec = ProblemSpec(amap, np.zeros(16), Zero(), Zero(), 0.0, 4, 2)
    params = RelaxationParams.from_alpha(2.0)
    Z0 = np.zeros((4, 2))
    assert relaxation_consistency(spec, params, Z0, Z0) == 0.0


def test_descent_audit_clean_run_and_fault_injection():
    spec, _ = planted(12, 3, 12)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(audit=True, max_iters=60, tol=1e-16)
    result = solve(spec, params, config)
    assert descent_audit(result, spec, params, config) == 0

    corrupted = copy.deepcopy(result)
    corrupted.records[10].f_value += 1.0
    assert descent_audit(corrupted, spec, params, config) >= 1


def test_charged_move_drops_the_rounding_of_the_blocks():
    # quarters, so that X + 1 - X is exactly 1
    rng = np.random.default_rng(3)
    X, Y = rng.integers(1, 4, size=(8, 2)) / 4, rng.integers(1, 4, size=(8, 2)) / 4
    # one ulp per entry is rounding, which charges nothing
    U, V = np.nextafter(X, 2.0), np.nextafter(Y, 2.0)
    move2, dU2, dV2 = charged_move(X, Y, U, V)
    assert move2 == 0.0 and 0 < dU2 and 0 < dV2
    # a move of 4 charges 16 less a few ulps of it
    move2, dU2, dV2 = charged_move(X, Y, X + 1.0, Y)
    assert (dU2, dV2) == (16.0, 0.0)
    assert 16.0 * (1 - 1e-13) < move2 < 16.0


def _at_both_caps(result, params, config, k):
    """``result`` with record k marked as accepted with mu and sigma at
    their caps, ``coef ||Y_prev||^2 + c`` and ``coef ||x||^2 + c``."""
    coef = params.alpha + 2.0 * params.gamma * params.rho
    rec = result.records[k]
    y_prev = result.records[k - 1].y if k else result.y0
    mu = coef * spectral_norm_sq(y_prev) + config.c
    sigma = coef * spectral_norm_sq(rec.x) + config.c
    records = list(result.records)
    records[k] = dataclasses.replace(rec, mu_bar=mu, mu_max=mu, sigma_bar=sigma,
                                     sigma_max=sigma)
    return dataclasses.replace(result, records=records)


def test_descent_audit_checks_sufficient_descent_at_both_caps():
    # at both caps the step must lower f by c/2 (dU^2 + dV^2), which the
    # nonmonotone acceptance test alone does not ask
    spec, _ = planted(12, 3, 12)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="prox_linear", audit=True, max_iters=60, tol=1e-16)
    result = solve(spec, params, config)
    assert descent_audit(result, spec, params, config) == 0
    f = [f_lambda(spec, result.x0, result.y0)] + [r.f_value for r in result.records]
    prev = [(result.x0, result.y0)] + [(r.x, r.y) for r in result.records]
    rise = max(range(len(result.records)), key=lambda k: f[k + 1] - f[k])
    assert f[rise + 1] - f[rise] > 1e-6 * (1.0 + f[rise])  # accepted, f went up
    assert descent_audit(_at_both_caps(result, params, config, rise),
                         spec, params, config) == 1
    margin = [f[k] - f[k + 1] - config.c / 2.0 * (
        np.sum((r.x - prev[k][0]) ** 2) + np.sum((r.y - prev[k][1]) ** 2))
        for k, r in enumerate(result.records)]
    fall = max(range(len(result.records)), key=margin.__getitem__)
    assert margin[fall] > 1e-6 * (1.0 + f[fall])
    assert descent_audit(_at_both_caps(result, params, config, fall),
                         spec, params, config) == 0


def test_descent_audit_replays_the_max_reference():
    # max mode: R is the largest of the last window + 1 values, so a step
    # that raised f is accepted against it
    spec, _ = planted(12, 3, 12)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="prox_linear", line_search="max", audit=True,
                          max_iters=60, tol=1e-16)
    result = solve(spec, params, config)
    f = [r.f_value for r in result.records]
    assert any(b > a for a, b in zip(f, f[1:]))
    assert descent_audit(result, spec, params, config) == 0


def test_descent_audit_single_step_from_stationary_point():
    rng = np.random.default_rng(13)
    B = rng.uniform(size=(8, 2))
    spec = snmf_spec(B @ B.T, 2, 1.0, psi=Zero(), phi=Zero())
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(scheme="proximal", audit=True, max_iters=1)
    result = solve(spec, params, config, X0=B, Y0=B)
    assert len(result.records) == 1
    assert descent_audit(result, spec, params, config) == 0


def test_descent_audit_requires_snapshots():
    spec, _ = planted(8, 2, 14)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(max_iters=5, tol=1e-16)
    result = solve(spec, params, config)
    with pytest.raises(ValueError, match="audit"):
        descent_audit(result, spec, params, config)


def test_report_aggregates_all_certificates():
    spec, _ = planted(10, 2, 15)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(audit=True, max_iters=200, tol=1e-12)
    result = solve(spec, params, config)
    rep = report(spec, params, result, config=config)
    d = rep.to_dict()
    assert d["descent_violations"] == 0
    assert d["stationarity_residual"] >= 0.0
    assert d["sym_gap"] >= 0.0
    assert d["relaxation_gap"] <= 1e-10 * (1 + abs(result.records[-1].f_value))
    assert math.isfinite(d["penalty_threshold"])


def test_report_leaves_the_descent_audit_it_did_not_run_as_none():
    spec, _ = planted(10, 2, 15)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(audit=True, max_iters=5)
    audited = solve(spec, params, config)
    plain = solve(spec, params, SolverConfig(max_iters=5))
    # no config, or no snapshots: the audit did not run
    assert report(spec, params, plain).descent_violations is None
    assert report(spec, params, audited).descent_violations is None
    assert report(spec, params, plain, config=config).descent_violations is None
    assert report(spec, params, audited, config=config).descent_violations == 0


def test_residual_decreases_along_iterates():
    spec, _ = planted(20, 3, 16)
    params = RelaxationParams.from_alpha(0.6)
    config = SolverConfig(tol=1e-12, max_iters=5000)
    result = solve(spec, params, config)
    assert result.records[-1].stationarity_residual <= 1e-4
    early = np.mean([r.stationarity_residual for r in result.records[:5]])
    assert result.records[-1].stationarity_residual < early


def _dense_residual(spec, X, Y):
    # the reference formula: forms G = A*(A(X Y^T) - b) as an n-by-n matrix
    G = spec.map.adjoint(spec.map.apply(X @ Y.T) - spec.b)
    D = spec.lam * (X - Y)
    rx = X - spec.psi.prox(X - (G @ Y + D), 1.0)
    ry = Y - spec.phi.prox(Y - (G.T @ X - D), 1.0)
    return float(np.linalg.norm(rx)) + float(np.linalg.norm(ry))


@pytest.mark.parametrize("kind", ["full", "sampling"])
@pytest.mark.parametrize("scheme", ["prox_linear", "hierarchical"])
def test_recorded_residual_matches_dense_oracle(kind, scheme):
    rng = np.random.default_rng(18)
    B = rng.uniform(size=(30, 3))
    M = B @ B.T + 0.05 * rng.standard_normal((30, 30))
    M = 0.5 * (M + M.T)
    if kind == "full":
        spec = snmf_spec(M, 3, 1.0)
    else:
        amap = SymmetricSampling(30, random_symmetric_omega(30, 0.3, rng))
        spec = ProblemSpec(amap, amap.apply(M), NonnegIndicator(),
                           NonnegIndicator(), lam=1.0, n=30, r=3)
    params = RelaxationParams.from_alpha(0.6)
    result = solve(spec, params, SolverConfig(scheme=scheme, max_iters=25,
                                              audit=True, seed=3))
    assert len(result.records) == 25
    for rec in result.records:
        want = _dense_residual(spec, rec.x, rec.y)
        assert rec.stationarity_residual == pytest.approx(want, rel=1e-10)
        assert stationarity_residual(spec, rec.x, rec.y) == pytest.approx(
            want, rel=1e-10)


def test_report_logs_why_penalty_threshold_is_missing(caplog):
    rng = np.random.default_rng(19)
    M = rng.uniform(size=(8, 8))  # not symmetric, so A*(b) is not either
    spec = snmf_spec(M, 2, 1.0)
    params = RelaxationParams.from_alpha(0.6)
    result = solve(spec, params, SolverConfig(max_iters=5))
    with caplog.at_level(logging.WARNING, logger="gsmf"):
        rep = report(spec, params, result)
    assert math.isnan(rep.penalty_threshold) and rep.penalty_satisfied is None
    warnings = [r for r in caplog.records if r.name == "gsmf"]
    assert len(warnings) == 1
    assert warnings[0].levelno == logging.WARNING
    assert "A*(b) must be symmetric" in warnings[0].getMessage()


# --------------------------------------------------------------------------
# integer factors
# --------------------------------------------------------------------------

_PARAMS = RelaxationParams.from_alpha(0.6)


def _report(spec, X, Y):
    result = SolveResult(X=X, Y=Y, records=[], status="IterLimit", x0=X, y0=Y)
    return report(spec, _PARAMS, result)


def _blocks(spec, X, Y):
    Z = z_star(spec, _PARAMS, X.astype(float), Y.astype(float))
    U = update_u("prox_linear", spec, _PARAMS, X, Y, Z, 2.0)
    return U, update_v("prox_linear", spec, _PARAMS, U, Y, Z, 2.0)


# every public function that takes the factors X, Y, as f(spec, X, Y)
FACTOR_ENTRY_POINTS = {
    "check_shapes": lambda spec, X, Y: spec.check_shapes(X, Y),
    "f_lambda": f_lambda,
    "theta": lambda spec, X, Y: theta(spec, _PARAMS, X, Y, np.ones((spec.n, spec.n))),
    "z_star": lambda spec, X, Y: z_star(spec, _PARAMS, X, Y),
    "relobj": relobj,
    "gradients": gradients,
    "stationarity_residual": stationarity_residual,
    "symmetry_gap": lambda spec, X, Y: symmetry_gap(X, Y),
    "exact_penalty_threshold": exact_penalty_threshold,
    "relaxation_consistency": lambda spec, X, Y: relaxation_consistency(
        spec, _PARAMS, X, Y),
    "scheme_inclusion_residual": lambda spec, X, Y: scheme_inclusion_residual(
        spec, _PARAMS, "prox_linear", X, Y, np.ones((spec.n, spec.n)), X, Y, 2.0, 2.0),
    "report": _report,
    "update_u_update_v": _blocks,
    "init_state": lambda spec, X, Y: init_state(spec, SolverConfig(), X, Y).f_value,
    "solve": lambda spec, X, Y: solve(spec, _PARAMS, SolverConfig(max_iters=3), X, Y).X,
}


def _leaves(value):
    """The numbers in a result, as a flat list of float arrays."""
    if isinstance(value, (tuple, list)):
        return [leaf for v in value for leaf in _leaves(v)]
    if hasattr(value, "to_dict"):
        return _leaves(list(value.to_dict().values()))
    return [np.asarray(value, dtype=float)]


@pytest.mark.parametrize("kind", ["full", "sampling"])
@pytest.mark.parametrize("name", sorted(FACTOR_ENTRY_POINTS))
def test_integer_factors_give_the_value_of_float_factors(kind, name):
    n, r = 8, 2
    rng = np.random.default_rng(30)
    B = rng.uniform(size=(n, r))
    M = B @ B.T
    if kind == "full":
        spec = snmf_spec(M, r, 1.0)
    else:
        amap = SymmetricSampling(n, random_symmetric_omega(n, 0.5, rng))
        spec = ProblemSpec(amap, amap.apply(M), NonnegIndicator(), NonnegIndicator(),
                           1.0, n=n, r=r)
    X = rng.integers(0, 3, size=(n, r))
    Y = rng.integers(0, 3, size=(n, r))
    fn = FACTOR_ENTRY_POINTS[name]
    want = _leaves(fn(spec, X.astype(float), Y.astype(float)))
    got = _leaves(fn(spec, X, Y))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        assert np.array_equal(g, w, equal_nan=True)


# --------------------------------------------------------------------------
# misshapen inputs
# --------------------------------------------------------------------------


def _spec_8x2(kind):
    rng = np.random.default_rng(30)
    B = rng.uniform(size=(8, 2))
    if kind == "full":
        return snmf_spec(B @ B.T, 2, 1.0)
    amap = SymmetricSampling(8, random_symmetric_omega(8, 0.5, rng))
    return ProblemSpec(amap, amap.apply(B @ B.T), NonnegIndicator(), NonnegIndicator(),
                       1.0, n=8, r=2)


_Z8 = np.ones((8, 8))


def _inclusion(spec, X, Y, U, V, Z=_Z8, scheme="prox_linear"):
    return scheme_inclusion_residual(spec, _PARAMS, scheme, X, Y, Z, U, V, 2.0, 2.0)


# the block updates called directly with a valid Z, so that the check under
# test is their own (the table's update_u_update_v row goes through z_star),
# and the oracle with misshapen candidate blocks
_DIRECT_ENTRY_POINTS = {
    "update_u": lambda spec, X, Y: update_u("prox_linear", spec, _PARAMS, X, Y, _Z8, 2.0),
    "update_v": lambda spec, X, Y: update_v("prox_linear", spec, _PARAMS, X, Y, _Z8, 2.0),
    "scheme_inclusion_residual_UV": lambda spec, X, Y: _inclusion(
        spec, np.ones((8, 2)), np.ones((8, 2)), X, Y),
}
_MISSHAPEN_ENTRY_POINTS = {**FACTOR_ENTRY_POINTS, **_DIRECT_ENTRY_POINTS}
# the two blocks' names in each signature, where they are not X and Y
_BLOCK_NAMES = {
    "update_u": ("X_k", "Y_k"),
    "update_v": ("U", "Y_k"),
    "scheme_inclusion_residual_UV": ("U", "V"),
    "init_state": ("X0", "Y0"),
    "solve": ("X0", "Y0"),
}


@pytest.mark.parametrize("kind", ["full", "sampling"])
@pytest.mark.parametrize("bad", [0, 1])
@pytest.mark.parametrize("name", sorted(_MISSHAPEN_ENTRY_POINTS))
def test_misshapen_factors_are_named(kind, bad, name):
    spec = _spec_8x2(kind)
    blocks = [np.ones((8, 2)), np.ones((8, 2))]
    blocks[bad] = np.ones((8, 3))
    block = _BLOCK_NAMES.get(name, ("X", "Y"))[bad]
    # symmetry_gap takes no spec, so it can only say that the two differ
    message = ("shape mismatch" if name == "symmetry_gap"
               else rf"^{block} has shape \(8, 3\), expected \(8, 2\)$")
    with pytest.raises(ValueError, match=message):
        _MISSHAPEN_ENTRY_POINTS[name](spec, *blocks)


@pytest.mark.parametrize("kind", ["full", "sampling"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda spec, B, Z: theta(spec, _PARAMS, B, B, Z), id="theta"),
    pytest.param(lambda spec, B, Z: _inclusion(spec, B, B, B, B, Z),
                 id="scheme_inclusion_residual"),
])
def test_a_misshapen_z_is_a_dimension_mismatch(kind, call):
    spec = _spec_8x2(kind)
    with pytest.raises(DimensionMismatchError,
                       match=r"^Z has shape \(5, 5\), expected a 8x8 matrix$"):
        call(spec, np.ones((8, 2)), np.ones((5, 5)))


def test_scheme_inclusion_residual_rejects_a_scheme_the_problem_does_not_admit():
    spec = _spec_8x2("full")  # nonnegative regularizers
    B = np.ones((8, 2))
    with pytest.raises(ConfigError, match="unknown scheme 'newton'"):
        _inclusion(spec, B, B, B, B, scheme="newton")
    with pytest.raises(ConfigError, match="proximal"):
        _inclusion(spec, B, B, B, B, scheme="proximal")
