"""Property tests: each map's misfit, misfit operator and in-place adjoint
correction against the dense oracle; the adjoint identity, the partial
isometry, the relaxation identity Theta(X, Y, z*(X, Y)) = F(X, Y), and each
map's apply on C-, F- and non-contiguous matrices."""

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gsmf.objective import (  # noqa: E402
    ProblemSpec,
    RelaxationParams,
    f_lambda,
    theta,
    z_star,
)
from gsmf.operators import (  # noqa: E402
    FullVectorization,
    SymmetricSampling,
    random_symmetric_omega,
)
from gsmf.regularizers import Zero  # noqa: E402

sizes = st.integers(min_value=1, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _assert_matches_oracle(amap, rng, r):
    n = amap.n
    X, Y = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    b = rng.standard_normal(amap.q)
    misfit = amap.misfit(X, Y, b)
    assert misfit.shape == (amap.q,)
    np.testing.assert_allclose(misfit, amap.apply(X @ Y.T) - b,
                               rtol=1e-12, atol=1e-12)
    G = amap.misfit_operator(X, Y, b)
    got = G @ Y, G.T @ X
    dense = amap.adjoint(misfit)  # the oracle: G formed from the adjoint
    for g, w in zip(got, (dense @ Y, dense.T @ X)):
        assert g.shape == w.shape == (n, r)
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
    # a caller's misfit gives the products of the one the map forms
    G = amap.misfit_operator(X, Y, b, misfit=misfit)
    for g, w in zip((G @ Y, G.T @ X), got):
        assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=sizes, r=st.integers(min_value=1, max_value=4), seed=seeds)
def test_full_map_misfit_operator_matches_dense_oracle(n, r, seed):
    _assert_matches_oracle(FullVectorization(n), np.random.default_rng(seed), r)


@settings(max_examples=60, deadline=None)
@given(n=sizes, r=st.integers(min_value=1, max_value=4), seed=seeds,
       density=st.floats(min_value=0.05, max_value=1.0))
def test_sampling_map_misfit_operator_matches_dense_oracle(n, r, seed, density):
    rng = np.random.default_rng(seed)
    amap = SymmetricSampling(n, random_symmetric_omega(n, density, rng))
    _assert_matches_oracle(amap, rng, r)


def _assert_subtract_adjoint_exact(amap, rng):
    Z = rng.standard_normal((amap.n, amap.n))
    v = rng.standard_normal(amap.q)
    want = Z - amap.adjoint(v)
    amap.subtract_adjoint(Z, v)
    assert Z.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=sizes, seed=seeds)
def test_full_map_subtract_adjoint_is_exact(n, seed):
    _assert_subtract_adjoint_exact(FullVectorization(n), np.random.default_rng(seed))


@settings(max_examples=60, deadline=None)
@given(n=sizes, seed=seeds, density=st.floats(min_value=0.05, max_value=1.0))
def test_sampling_map_subtract_adjoint_is_exact(n, seed, density):
    rng = np.random.default_rng(seed)
    amap = SymmetricSampling(n, random_symmetric_omega(n, density, rng))
    _assert_subtract_adjoint_exact(amap, rng)


def _layout(Z, layout):
    """Z in C order, in F order, or as a strided view into a larger array."""
    if layout == "F":
        return np.asfortranarray(Z)
    if layout == "strided":
        n = Z.shape[0]
        base = np.zeros((2 * n, 3 * n))
        base[1::2, ::3] = Z
        return base[1::2, ::3]
    return Z


@settings(max_examples=60, deadline=None)
@given(n=sizes, seed=seeds, density=st.floats(min_value=0.05, max_value=1.0),
       layout=st.sampled_from(["C", "F", "strided"]))
def test_sampling_flat_index_matches_fancy_index(n, seed, density, layout):
    # apply and subtract_adjoint must equal the 2-D fancy index on Omega for
    # any layout
    rng = np.random.default_rng(seed)
    omega = random_symmetric_omega(n, density, rng)
    rows = np.array([i - 1 for i, _ in omega])
    cols = np.array([j - 1 for _, j in omega])
    amap = SymmetricSampling(n, omega)
    Z = _layout(rng.standard_normal((n, n)), layout)
    v = rng.standard_normal(amap.q)
    assert amap.apply(Z).tobytes() == Z[rows, cols].tobytes()
    want = Z.copy()
    want[rows, cols] -= v
    base = Z.base.copy() if layout == "strided" else None
    amap.subtract_adjoint(Z, v)
    assert Z.tobytes() == want.tobytes()
    if base is not None:  # the view's writes land in its base, and only there
        base[1::2, ::3] = want
        assert np.array_equal(Z.base, base)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_sampling_apply_allocates_no_n_by_n_array(layout):
    n = 1000
    rng = np.random.default_rng(2)
    amap = SymmetricSampling(n, random_symmetric_omega(n, 0.01, rng))
    Z = _layout(rng.standard_normal((n, n)), layout)
    tracemalloc.start()
    try:
        amap.apply(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * n * n, f"apply peaked at {peak} bytes"


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_full_apply_views_an_f_contiguous_matrix(layout):
    n = 5
    Z = _layout(np.random.default_rng(1).standard_normal((n, n)), layout)
    b = FullVectorization(n).apply(Z)
    assert np.array_equal(b, Z.flatten(order="F"))
    assert np.shares_memory(b, Z) == (layout == "F")


def _map(kind, n, density, rng):
    if kind == "full":
        return FullVectorization(n)
    return SymmetricSampling(n, random_symmetric_omega(n, density, rng))


maps = st.sampled_from(["full", "sampling"])
densities = st.floats(min_value=0.05, max_value=1.0)
# every alpha outside {0, 1} is admissible; keep clear of both so that
# beta = alpha / (alpha - 1) stays moderate
alphas = st.one_of(st.floats(-5.0, -0.1), st.floats(0.1, 0.9), st.floats(1.1, 5.0))


@settings(max_examples=60, deadline=None)
@given(kind=maps, n=sizes, r=st.integers(min_value=1, max_value=4), seed=seeds,
       density=densities, alpha=alphas, lam=st.floats(0.0, 2.0))
def test_theta_at_z_star_equals_objective(kind, n, r, seed, density, alpha, lam):
    rng = np.random.default_rng(seed)
    amap = _map(kind, n, density, rng)
    r = min(r, n)
    spec = ProblemSpec(amap, rng.standard_normal(amap.q), Zero(), Zero(), lam,
                       n=n, r=r)
    params = RelaxationParams.from_alpha(alpha)
    X, Y = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    f = f_lambda(spec, X, Y)
    got = theta(spec, params, X, Y, z_star(spec, params, X, Y))
    assert abs(got - f) <= 1e-10 * (1.0 + abs(f))


@settings(max_examples=60, deadline=None)
@given(kind=maps, n=sizes, r=st.integers(min_value=1, max_value=4), seed=seeds,
       density=densities)
def test_misfit_operator_times_any_block_matches_dense_oracle(kind, n, r, seed,
                                                              density):
    # G and G^T on blocks other than the factors, against G formed densely
    # from the adjoint of the misfit
    rng = np.random.default_rng(seed)
    amap = _map(kind, n, density, rng)
    X, Y = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    b, W = rng.standard_normal(amap.q), rng.standard_normal((n, r))
    G = amap.misfit_operator(X, Y, b)
    dense = amap.adjoint(amap.apply(X @ Y.T) - b)
    for got, want in ((G @ W, dense @ W), (G.T @ W, dense.T @ W)):
        assert got.shape == (n, r)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["full", "sampling"])
def test_misfit_operator_allocates_no_n_by_n_array(kind):
    n = 1000
    rng = np.random.default_rng(3)
    amap = _map(kind, n, 0.01, rng)
    X, Y, W = (rng.standard_normal((n, 10)) for _ in range(3))
    b = rng.standard_normal(amap.q)
    # as the solver does; the sampling misfit's row gathers are O(|Omega| r),
    # on the order of the bound at this density, and the full map reads none
    misfit = amap.misfit(X, Y, b) if kind == "sampling" else None
    tracemalloc.start()
    try:
        G = amap.misfit_operator(X, Y, b, misfit=misfit)
        products = G @ W, G.T @ W
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * n * n, f"the misfit operator peaked at {peak} bytes"
    assert all(P.shape == (n, 10) for P in products)


@settings(max_examples=60, deadline=None)
@given(kind=maps, n=sizes, seed=seeds, density=densities)
def test_adjoint_identity_and_partial_isometry(kind, n, seed, density):
    rng = np.random.default_rng(seed)
    amap = _map(kind, n, density, rng)
    U = rng.standard_normal((n, n))
    v = rng.standard_normal(amap.q)
    # <A(U), v> = <U, A*(v)>, and A A* is the identity
    lhs, rhs = float(amap.apply(U) @ v), float(np.sum(U * amap.adjoint(v)))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(U).sum() * np.abs(v).max())
    assert np.array_equal(amap.apply(amap.adjoint(v)), v)
