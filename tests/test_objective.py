import math
import re
import tracemalloc

import numpy as np
import pytest

from gsmf import operators
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
from gsmf.operators import (
    DimensionMismatchError,
    FullVectorization,
    SymmetricSampling,
    random_symmetric_omega,
)
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
    with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
        snmf_spec(np.eye(3), 0, 0.0)
    with pytest.raises(ValueError, match="^r must be >= 1, got -1$"):
        ProblemSpec(FullVectorization(3), np.zeros(9), Zero(), Zero(), 0.0, n=3, r=-1)


@pytest.mark.parametrize("field, value, message", [
    ("lam", math.nan, "lambda must be a real number, got nan$"),
    ("lam", math.inf, "lambda must be finite, got inf$"),
    ("lam", True, "lambda must be a real number, got True"),
    ("lam", "1", "lambda must be a real number, got '1'"),
    ("lam", None, "lambda must be a real number, got None"),
    ("r", 2.5, "r must be an integer"),
    ("r", 2.0, "r must be an integer"),
    ("r", True, "r must be an integer"),
    ("n", 3.0, "n must be an integer"),
    # snmf_spec passes lambda to ProblemSpec as it is given
    ("snmf_spec lam", "1", "lambda must be a real number, got '1'$"),
    ("snmf_spec lam", True, "lambda must be a real number, got True$"),
])
def test_problem_spec_rejects_an_unusable_value(field, value, message):
    fields = dict(map=FullVectorization(3), b=np.zeros(9), psi=Zero(), phi=Zero(),
                  lam=1.0, n=3, r=2)
    with pytest.raises(ValueError, match=f"^{message}"):
        if field == "snmf_spec lam":
            snmf_spec(np.eye(3), 2, value)
        else:
            ProblemSpec(**{**fields, field: value})


def test_snmf_spec_rejects_a_fractional_rank():
    with pytest.raises(ValueError, match="^r must be an integer, got 2.5"):
        snmf_spec(np.eye(3), 2.5, 1.0)


def test_problem_spec_accepts_numpy_integers():
    spec = snmf_spec(np.eye(3), np.int64(2), 1.0)
    assert spec.r == 2
    spec = ProblemSpec(FullVectorization(3), np.zeros(9), Zero(), Zero(), 1.0,
                       n=np.int32(3), r=np.int64(2))
    assert (spec.n, spec.r) == (3, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: RelaxationParams(0.6, gamma=True), "gamma must be a real number, got True"),
    (lambda: RelaxationParams("0.6", gamma=0.0), "alpha must be a real number"),
    (lambda: RelaxationParams.from_alpha(0.6, gamma=True),
     "gamma must be a real number, got True"),
    (lambda: RelaxationParams.from_alpha(0.6, gamma="1"),
     "gamma must be a real number, got '1'"),
    (lambda: RelaxationParams.from_alpha("0.6"), "alpha must be a real number, got '0.6'"),
    (lambda: RelaxationParams.from_alpha(True), "alpha must be a real number, got True"),
])
def test_relaxation_params_reject_a_non_number(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


def test_relaxation_params_accept_numpy_numbers():
    params = RelaxationParams.from_alpha(np.float64(2.0), gamma=np.int64(1))
    assert params == RelaxationParams.from_alpha(2.0, gamma=1.0)
    assert type(params.gamma) is float


def test_relaxation_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        RelaxationParams(alpha=0.6, gamma=0.0)
    with pytest.raises(ValueError, match="alpha"):
        RelaxationParams.from_alpha(1.0)
    for bad, rule in ((math.nan, "a real number"), (math.inf, "finite"),
                      (-math.inf, "finite")):
        with pytest.raises(ValueError, match=f"^alpha must be {rule}, got {bad}$"):
            RelaxationParams.from_alpha(bad)
        with pytest.raises(ValueError, match=f"^gamma must be {rule}, got {bad}$"):
            RelaxationParams.from_alpha(0.6, gamma=bad)


def test_from_alpha_derives_consistent_scalars():
    for alpha in (0.2, 0.6, 0.8, 2.0):
        p = RelaxationParams.from_alpha(alpha)
        assert abs(1.0 / p.alpha + 1.0 / p.beta - 1.0) <= 1e-12
        assert p.rho >= 1.0
        assert p.gamma >= 0.0
        # with 1/alpha + 1/beta = 1, alpha + beta = alpha * beta
        assert p.alpha + p.beta == pytest.approx(p.alpha * p.beta, rel=1e-12)


# unchecked, each builds and solve then raises ZeroDivisionError or OverflowError
@pytest.mark.parametrize("alpha, why", [
    (1e-17, "alpha + beta rounds to 0"), (1e-300, "alpha + beta rounds to 0"),
    (5e-324, "alpha + beta rounds to 0"), (-5e-324, "alpha + beta rounds to 0"),
    (1.4e154, "rho overflows"), (1e300, "rho overflows"), (-1e300, "rho overflows"),
])
def test_relaxation_params_rejects_an_alpha_solve_cannot_use(alpha, why):
    with pytest.raises(ValueError, match="^" + re.escape(f"alpha={alpha!r} is out of "
                                                         f"range: {why}") + "$"):
        RelaxationParams.from_alpha(alpha)


def test_relaxation_params_rejects_a_gamma_whose_cap_curvature_overflows():
    # unchecked, it builds and solve then raises OverflowError
    with pytest.raises(ValueError, match=r"^gamma=1e\+308 is out of range: coef "
                                         "overflows$"):
        RelaxationParams(alpha=0.6, gamma=1e308)


def test_relaxation_params_builds_at_the_largest_alpha_rho_admits():
    assert RelaxationParams.from_alpha(1e154).rho == 1.0


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


@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("n, rows", [(1, 8), (7, 8), (8, 8), (9, 8), (19, 8), (400, None)])
def test_full_map_blocked_misfit_matches_dense_oracle(monkeypatch, n, rows, lam):
    # blocks of 8 rows put n below, at and just past one block, and past two;
    # rows=None keeps the module's block size, which must split the n rows
    if rows is None:
        assert operators._MISFIT_BLOCK // n < n, "the block must split n rows"
    else:
        monkeypatch.setattr(operators, "_MISFIT_BLOCK", rows * n)
    rng = np.random.default_rng(n)
    # M is not symmetric: a transposed block of b.reshape(n, n) would show
    M = rng.standard_normal((n, n))
    r = min(3, n)
    spec = snmf_spec(M, r, lam)
    X = rng.uniform(size=(n, r))
    Y = rng.uniform(size=(n, r))
    want = (0.5 * float(np.sum((X @ Y.T - M) ** 2))
            + 0.5 * lam * float(np.sum((X - Y) ** 2)))
    assert f_lambda(spec, X, Y) == pytest.approx(want, rel=1e-12)
    assert f_lambda(spec, -X, Y) == math.inf


def test_full_map_objective_holds_no_n_by_n_array():
    # beyond the target b, f_lambda and relobj hold one row block of the misfit
    n = 600
    rng = np.random.default_rng(20)
    spec = snmf_spec(rng.uniform(size=(n, n)), 5, 1.0)
    X, Y = rng.uniform(size=(n, 5)), rng.uniform(size=(n, 5))
    for objective in (f_lambda, relobj):
        tracemalloc.start()
        try:
            objective(spec, X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = peak / (n * n * 8)
        assert arrays < 0.5, f"{objective.__name__} peaked at {arrays:.2f} n-by-n arrays"


def test_f_lambda_is_a_python_float_for_a_numpy_lambda():
    # a float32 lambda would carry the objective in float32
    rng = np.random.default_rng(2)
    spec = ProblemSpec(FullVectorization(4), rng.standard_normal(16), Zero(), Zero(),
                       np.float32(1.0), n=4, r=2)
    f = f_lambda(spec, rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    assert type(f) is float


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


def _z_star_problem(kind, n=7, r=2):
    rng = np.random.default_rng(20)
    amap = (FullVectorization(n) if kind == "full"
            else SymmetricSampling(n, random_symmetric_omega(n, 0.4, rng)))
    spec = ProblemSpec(amap, rng.standard_normal(amap.q), Zero(), Zero(), 0.0,
                       n=n, r=r)
    return spec, rng.standard_normal((n, r)), rng.standard_normal((n, r))


@pytest.mark.parametrize("kind", ["full", "sampling"])
def test_z_star_writes_into_out(kind):
    spec, X, Y = _z_star_problem(kind)
    params = RelaxationParams.from_alpha(0.6)
    out = np.full((7, 7), np.nan)
    assert z_star(spec, params, X, Y, out=out) is out
    assert out.tobytes() == z_star(spec, params, X, Y).tobytes()


@pytest.mark.parametrize("shape", [(7, 6), (6, 7), (49,), (7, 7, 1)])
@pytest.mark.parametrize("kind", ["full", "sampling"])
def test_z_star_rejects_an_out_that_is_not_n_by_n(kind, shape):
    spec, X, Y = _z_star_problem(kind)
    with pytest.raises(DimensionMismatchError,
                       match=rf"^out has shape \({shape[0]},.*expected a 7x7 matrix$"):
        z_star(spec, RelaxationParams.from_alpha(0.6), X, Y, out=np.zeros(shape))


def test_z_star_into_out_on_sampling_map_needs_no_dense_array():
    # the sampling kernel writes every Z after the first into one array
    n, r = 2000, 5
    rng = np.random.default_rng(19)
    amap = SymmetricSampling(n, random_symmetric_omega(n, 0.001, rng))
    spec = ProblemSpec(amap, rng.uniform(size=amap.q), Zero(), Zero(), 1.0,
                       n=n, r=r)
    X, Y = rng.uniform(size=(n, r)), rng.uniform(size=(n, r))
    params = RelaxationParams.from_alpha(0.6)
    out = np.empty((n, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z_star(spec, params, X, Y, out=out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * 8 * n * n
    assert out.tobytes() == z_star(spec, params, X, Y).tobytes()


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
        cache.refresh(V, M.T @ U, U.T @ U)
        got = snmf_objective_cached(cache, spec, U, V)
        want = f_lambda(spec, U, V)
        assert got == pytest.approx(want, rel=1e-10)


def test_snmf_objective_cached_zero_at_planted_pair():
    rng = np.random.default_rng(14)
    U = rng.uniform(size=(8, 3))
    M = U @ U.T
    spec = snmf_spec(M, 3, 1.0)
    cache = GramCache(M)
    cache.refresh(U, M.T @ U, U.T @ U)
    assert snmf_objective_cached(cache, spec, U, U) == pytest.approx(
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
    cache.refresh(v, M.T @ u, u.T @ u)
    got = snmf_objective_cached(cache, spec, u, v)
    assert got == pytest.approx(0.5 * float(np.sum((u @ v.T - M) ** 2)), rel=1e-12)


def test_snmf_objective_cached_symmetry_term_near_symmetric_pairs():
    # V = U + 1e-7 noise: the symmetry term is ~1e-12 of tr(U^T U), where the
    # trace form tr(U^T U) - 2 tr(U^T V) + tr(V^T V) keeps two or three digits
    n, r = 200, 7
    for seed in range(5):
        rng = np.random.default_rng(seed)
        U = rng.uniform(size=(n, r))
        V = U + 1e-7 * rng.standard_normal((n, r))
        M = U @ U.T
        cache = GramCache(M)
        cache.refresh(V, M.T @ U, U.T @ U)
        with_lam, without = (
            snmf_objective_cached(cache, snmf_spec(M, r, lam, psi=Zero(), phi=Zero()),
                                  U, V)
            for lam in (100.0, 0.0)
        )
        want = 50.0 * float(np.sum((U - V) ** 2))
        assert with_lam - without == pytest.approx(want, rel=1e-12, abs=0)


def test_gram_cache_products_match_recomputation():
    rng = np.random.default_rng(17)
    M = rng.uniform(size=(7, 7))
    cache = GramCache(M)
    U = rng.uniform(size=(7, 3))
    V = rng.uniform(size=(7, 3))
    cache.refresh(V, M.T @ U, U.T @ U)
    assert np.allclose(cache.UtU, U.T @ U, rtol=1e-12)
    assert np.allclose(cache.VtV, V.T @ V, rtol=1e-12)
    assert cache.tr_gram == pytest.approx(np.trace(U.T @ U @ V.T @ V), rel=1e-12)
    assert cache.tr_cross == pytest.approx(np.trace(U.T @ M @ V), rel=1e-12)
    assert cache.normM2 == pytest.approx(float(np.sum(M * M)), rel=1e-14)
