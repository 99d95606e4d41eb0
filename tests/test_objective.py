import math
import tracemalloc

import numpy as np
import pytest

from gsmf.objective import (
    GramCache,
    ProblemSpec,
    RelaxationParams,
    f_lambda,
    relobj,
    snmf_objective_cached,
    snmf_spec,
    theta,
    z_star,
)
from gsmf.operators import FullVectorization, SymmetricSampling, random_symmetric_omega
from gsmf.regularizers import NonnegIndicator, Zero


def naive_objective(spec, X, Y):
    """Term-by-term reference evaluator, written independently of f_lambda."""
    total = spec.psi.eval(X) + spec.phi.eval(Y)
    v = spec.map.apply(np.asarray(X) @ np.asarray(Y).T)
    for i in range(spec.map.q):
        total += 0.5 * (v[i] - spec.b[i]) ** 2
    for i in range(spec.n):
        for j in range(spec.r):
            total += 0.5 * spec.lam * (X[i, j] - Y[i, j]) ** 2
    return total


def test_problem_spec_validation():
    amap = FullVectorization(3)
    b = np.zeros(9)
    with pytest.raises(ValueError, match="rank"):
        ProblemSpec(amap, b, Zero(), Zero(), 0.0, n=3, r=4)
    with pytest.raises(ValueError, match="lambda"):
        ProblemSpec(amap, b, Zero(), Zero(), -1.0, n=3, r=2)
    with pytest.raises(ValueError, match="shape"):
        ProblemSpec(amap, np.zeros(4), Zero(), Zero(), 0.0, n=3, r=2)


def test_problem_spec_rejects_nonfinite_b():
    M = np.eye(3)
    M[1, 2] = np.nan
    with pytest.raises(ValueError, match="^b has non-finite entries"):
        snmf_spec(M, 2, 0.0)
    amap = FullVectorization(3)
    b = np.zeros(9)
    b[4] = np.inf
    with pytest.raises(ValueError, match="^b has non-finite entries"):
        ProblemSpec(amap, b, Zero(), Zero(), 0.0, n=3, r=2)


def test_problem_spec_rejects_rank_below_one():
    with pytest.raises(ValueError, match="rank r=0 must be >= 1"):
        snmf_spec(np.eye(3), 0, 0.0)
    with pytest.raises(ValueError, match="rank r=-1 must be >= 1"):
        ProblemSpec(FullVectorization(3), np.zeros(9), Zero(), Zero(), 0.0, n=3, r=-1)


def test_relaxation_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        RelaxationParams(alpha=0.6, gamma=0.0)
    with pytest.raises(ValueError, match="alpha"):
        RelaxationParams.from_alpha(1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            RelaxationParams.from_alpha(bad)
        with pytest.raises(ValueError, match="must be finite"):
            RelaxationParams.from_alpha(0.6, gamma=bad)


def test_from_alpha_derives_consistent_scalars():
    for alpha in (0.2, 0.6, 0.8, 2.0):
        p = RelaxationParams.from_alpha(alpha)
        assert abs(1.0 / p.alpha + 1.0 / p.beta - 1.0) <= 1e-12
        assert p.rho >= 1.0
        assert p.gamma >= 0.0
        # with 1/alpha + 1/beta = 1, alpha + beta = alpha * beta
        assert p.alpha + p.beta == pytest.approx(p.alpha * p.beta, rel=1e-12)


def test_f_lambda_zero_at_exact_factorization():
    rng = np.random.default_rng(0)
    B = rng.uniform(size=(6, 2))
    spec = snmf_spec(B @ B.T, 2, 1.0)
    assert f_lambda(spec, B, B) == pytest.approx(0.0, abs=1e-12)


def test_f_lambda_at_origin_is_half_b_norm_sq():
    rng = np.random.default_rng(1)
    M = rng.uniform(size=(5, 5))
    M = 0.5 * (M + M.T)
    spec = snmf_spec(M, 2, 0.0)
    Z0 = np.zeros((5, 2))
    assert f_lambda(spec, Z0, Z0) == pytest.approx(0.5 * float(spec.b @ spec.b))


def test_f_lambda_matches_naive_oracle():
    rng = np.random.default_rng(2)
    omega = random_symmetric_omega(6, 0.4, rng)
    for amap in (FullVectorization(6), SymmetricSampling(6, omega)):
        spec = ProblemSpec(amap, rng.standard_normal(amap.q), NonnegIndicator(),
                           NonnegIndicator(), 0.7, n=6, r=3)
        X = rng.uniform(size=(6, 3))
        Y = rng.uniform(size=(6, 3))
        f = f_lambda(spec, X, Y)
        assert f == pytest.approx(naive_objective(spec, X, Y), rel=1e-12)


def test_f_lambda_infinite_when_infeasible():
    spec = snmf_spec(np.eye(3), 2, 1.0)
    X = -np.ones((3, 2))
    assert f_lambda(spec, X, np.ones((3, 2))) == math.inf


def test_f_lambda_invariant_under_joint_column_permutation():
    rng = np.random.default_rng(3)
    M = rng.uniform(size=(6, 6))
    spec = snmf_spec(0.5 * (M + M.T), 4, 0.3)
    X = rng.uniform(size=(6, 4))
    Y = rng.uniform(size=(6, 4))
    perm = rng.permutation(4)
    assert f_lambda(spec, X, Y) == pytest.approx(
        f_lambda(spec, X[:, perm], Y[:, perm]), rel=1e-13
    )


def test_theta_reduces_when_split_is_tight():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(4, 2))
    Y = rng.uniform(size=(4, 2))
    Z = X @ Y.T
    amap = FullVectorization(4)
    spec = ProblemSpec(amap, amap.apply(Z), Zero(), Zero(), 0.8, n=4, r=2)
    params = RelaxationParams.from_alpha(2.0)
    want = 0.5 * 0.8 * float(np.sum((X - Y) ** 2))
    assert theta(spec, params, X, Y, Z) == pytest.approx(want, rel=1e-12)


def test_theta_hand_reduction_alpha_beta_two():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 2))
    Y = rng.standard_normal((4, 2))
    amap = FullVectorization(4)
    spec = ProblemSpec(amap, np.zeros(16), Zero(), Zero(), 0.0, n=4, r=2)
    params = RelaxationParams.from_alpha(2.0)
    got = theta(spec, params, X, Y, np.zeros((4, 4)))
    assert got == pytest.approx(float(np.sum((X @ Y.T) ** 2)), rel=1e-12)


def test_z_star_full_map_alpha_two():
    rng = np.random.default_rng(6)
    M = rng.uniform(size=(5, 5))
    spec = snmf_spec(0.5 * (M + M.T), 2, 0.0)
    params = RelaxationParams.from_alpha(2.0)
    X = rng.uniform(size=(5, 2))
    Y = rng.uniform(size=(5, 2))
    want = 0.5 * X @ Y.T + 0.5 * spec.map.adjoint(spec.b)
    assert np.allclose(z_star(spec, params, X, Y), want, rtol=1e-13, atol=0)


def test_z_star_full_map_alpha_point_six():
    rng = np.random.default_rng(7)
    M = rng.uniform(size=(5, 5))
    spec = snmf_spec(0.5 * (M + M.T), 2, 0.0)
    params = RelaxationParams.from_alpha(0.6)
    X = rng.uniform(size=(5, 2))
    Y = rng.uniform(size=(5, 2))
    want = -(2.0 / 3.0) * X @ Y.T + (5.0 / 3.0) * spec.map.adjoint(spec.b)
    assert np.allclose(z_star(spec, params, X, Y), want, rtol=1e-12, atol=1e-13)


def test_z_star_fixed_point_when_b_matches_product():
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(5, 2))
    Y = rng.uniform(size=(5, 2))
    amap = FullVectorization(5)
    spec = ProblemSpec(amap, amap.apply(X @ Y.T), Zero(), Zero(), 0.0, n=5, r=2)
    for alpha in (0.2, 0.6, 2.0):
        params = RelaxationParams.from_alpha(alpha)
        assert np.allclose(z_star(spec, params, X, Y), X @ Y.T,
                           rtol=1e-12, atol=1e-13)


def test_z_star_satisfies_stationarity_equation():
    rng = np.random.default_rng(9)
    omega = random_symmetric_omega(6, 0.4, rng)
    for amap in (FullVectorization(6), SymmetricSampling(6, omega)):
        spec = ProblemSpec(amap, rng.standard_normal(amap.q), Zero(), Zero(),
                           0.0, n=6, r=2)
        for alpha in (0.2, 0.6, 0.8, 2.0):
            params = RelaxationParams.from_alpha(alpha)
            X = rng.standard_normal((6, 2))
            Y = rng.standard_normal((6, 2))
            Z = z_star(spec, params, X, Y)
            grad = params.alpha * (Z - X @ Y.T) + params.beta * amap.adjoint(
                amap.apply(Z) - spec.b
            )
            assert np.linalg.norm(grad) <= 1e-10 * (1.0 + np.linalg.norm(Z))


def test_z_star_matches_gram_formula_oracle():
    # z* = P - c A*A(P) + c A*(b) with P = X Y^T and c = beta/(alpha+beta)
    rng = np.random.default_rng(11)
    omega = random_symmetric_omega(30, 0.3, rng)
    for amap in (FullVectorization(30), SymmetricSampling(30, omega)):
        spec = ProblemSpec(amap, rng.standard_normal(amap.q), Zero(), Zero(),
                           0.0, n=30, r=4)
        for alpha in (0.2, 0.6, 0.8, 2.0):
            params = RelaxationParams.from_alpha(alpha)
            c = params.beta / (params.alpha + params.beta)
            X = rng.standard_normal((30, 4))
            Y = rng.standard_normal((30, 4))
            P = X @ Y.T
            want = P - c * amap.gram_apply(P) + c * amap.adjoint(spec.b)
            got = z_star(spec, params, X, Y)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_sampling_map_objective_needs_no_dense_memory():
    # n^2 bytes is one n-by-n boolean mask; X Y^T alone would be 8 n^2
    n, r = 4000, 5
    rng = np.random.default_rng(18)
    omega = random_symmetric_omega(n, 0.0005, rng)
    tracemalloc.start()
    try:
        amap = SymmetricSampling(n, omega)
        ctor_peak = tracemalloc.get_traced_memory()[1]
        spec = ProblemSpec(amap, rng.uniform(size=amap.q), NonnegIndicator(),
                           NonnegIndicator(), 1.0, n=n, r=r)
        X, Y = rng.uniform(size=(n, r)), rng.uniform(size=(n, r))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        f_lambda(spec, X, Y)
        f_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ctor_peak < n * n // 4
    assert f_peak < n * n // 4


def test_z_star_on_sampling_map_needs_one_dense_array():
    # Z is one n-by-n array of 8 n^2 bytes; the correction on Omega must
    # not scatter A*(v) into a second one
    n, r = 2000, 5
    rng = np.random.default_rng(19)
    amap = SymmetricSampling(n, random_symmetric_omega(n, 0.001, rng))
    spec = ProblemSpec(amap, rng.uniform(size=amap.q), Zero(), Zero(), 1.0,
                       n=n, r=r)
    X, Y = rng.uniform(size=(n, r)), rng.uniform(size=(n, r))
    params = RelaxationParams.from_alpha(0.6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        Z = z_star(spec, params, X, Y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert Z.shape == (n, n)
    assert peak < 1.2 * 8 * n * n


def test_relaxation_identity_over_grid():
    rng = np.random.default_rng(10)
    omega = random_symmetric_omega(6, 0.4, rng)
    for amap in (FullVectorization(6), SymmetricSampling(6, omega)):
        spec = ProblemSpec(amap, rng.standard_normal(amap.q), Zero(), Zero(),
                           0.4, n=6, r=2)
        for alpha in (0.2, 0.6, 0.8, 2.0):
            params = RelaxationParams.from_alpha(alpha)
            for _ in range(25):
                X = rng.standard_normal((6, 2))
                Y = rng.standard_normal((6, 2))
                f = f_lambda(spec, X, Y)
                gap = abs(theta(spec, params, X, Y, z_star(spec, params, X, Y)) - f)
                assert gap <= 1e-10 * (1.0 + abs(f))


def test_relobj_examples():
    rng = np.random.default_rng(11)
    B = rng.uniform(size=(5, 2))
    spec = snmf_spec(B @ B.T, 2, 1.0)
    assert relobj(spec, B, B) == pytest.approx(0.0, abs=1e-9)
    Z0 = np.zeros((5, 2))
    assert relobj(spec, Z0, Z0) == pytest.approx(1.0, rel=1e-12)


def test_relobj_matches_direct_formula():
    rng = np.random.default_rng(12)
    M = rng.uniform(size=(5, 5))
    spec = snmf_spec(0.5 * (M + M.T), 2, 0.5)
    X = rng.uniform(size=(5, 2))
    Y = rng.uniform(size=(5, 2))
    want = math.sqrt(2.0 * f_lambda(spec, X, Y)) / np.linalg.norm(spec.b)
    assert relobj(spec, X, Y) == pytest.approx(want, rel=1e-14)


def test_relobj_errors():
    spec = snmf_spec(np.eye(3), 2, 1.0)
    with pytest.raises(ValueError, match="infinite"):
        relobj(spec, -np.ones((3, 2)), np.ones((3, 2)))
    zspec = snmf_spec(np.zeros((3, 3)), 2, 1.0, psi=Zero(), phi=Zero())
    with pytest.raises(ZeroDivisionError):
        relobj(zspec, np.zeros((3, 2)), np.zeros((3, 2)))


def test_snmf_objective_cached_matches_f_lambda():
    rng = np.random.default_rng(13)
    M = rng.uniform(size=(30, 30))
    M = 0.5 * (M + M.T)
    spec = snmf_spec(M, 4, 0.9)
    cache = GramCache(M)
    for _ in range(10):
        U = rng.uniform(size=(30, 4))
        V = rng.uniform(size=(30, 4))
        cache.refresh(U, V, M.T @ U)
        got = snmf_objective_cached(cache, spec, U, V, spec.lam)
        want = f_lambda(spec, U, V)
        assert got == pytest.approx(want, rel=1e-10)


def test_snmf_objective_cached_zero_at_planted_pair():
    rng = np.random.default_rng(14)
    U = rng.uniform(size=(8, 3))
    M = U @ U.T
    spec = snmf_spec(M, 3, 1.0)
    cache = GramCache(M)
    cache.refresh(U, U, M.T @ U)
    assert snmf_objective_cached(cache, spec, U, U, 1.0) == pytest.approx(
        0.0, abs=1e-10
    )


def test_snmf_objective_cached_rank_one_reduction():
    rng = np.random.default_rng(15)
    u = rng.uniform(size=(6, 1))
    v = rng.uniform(size=(6, 1))
    M = rng.uniform(size=(6, 6))
    M = 0.5 * (M + M.T)
    spec = snmf_spec(M, 1, 0.0, psi=Zero(), phi=Zero())
    cache = GramCache(M)
    cache.refresh(u, v, M.T @ u)
    got = snmf_objective_cached(cache, spec, u, v, 0.0)
    assert got == pytest.approx(0.5 * float(np.sum((u @ v.T - M) ** 2)), rel=1e-12)


def test_gram_cache_products_match_recomputation():
    rng = np.random.default_rng(17)
    M = rng.uniform(size=(7, 7))
    cache = GramCache(M)
    U = rng.uniform(size=(7, 3))
    V = rng.uniform(size=(7, 3))
    cache.refresh(U, V, M.T @ U)
    assert np.allclose(cache.UtU, U.T @ U, rtol=1e-12)
    assert np.allclose(cache.VtV, V.T @ V, rtol=1e-12)
    assert np.allclose(cache.UtV, U.T @ V, rtol=1e-12)
    assert cache.normM2 == pytest.approx(float(np.sum(M * M)), rel=1e-14)
