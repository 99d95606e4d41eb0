"""Property tests: each map's misfit, misfit products and in-place adjoint
correction against the dense oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gsmf.operators import (  # noqa: E402
    FullVectorization,
    LinearMap,
    SymmetricSampling,
    random_symmetric_omega,
)

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
    got = amap.misfit_products(X, Y, b)
    want = LinearMap.misfit_products(amap, X, Y, b)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (n, r)
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
    # a caller's misfit gives the products of the one the map forms
    for g, w in zip(amap.misfit_products(X, Y, b, misfit=misfit), got):
        assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=sizes, r=st.integers(min_value=1, max_value=4), seed=seeds)
def test_full_map_misfit_products_match_dense_oracle(n, r, seed):
    _assert_matches_oracle(FullVectorization(n), np.random.default_rng(seed), r)


@settings(max_examples=60, deadline=None)
@given(n=sizes, r=st.integers(min_value=1, max_value=4), seed=seeds,
       density=st.floats(min_value=0.05, max_value=1.0))
def test_sampling_map_misfit_products_match_dense_oracle(n, r, seed, density):
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
    # apply and subtract_adjoint gather and scatter through one C-order flat
    # index; they must equal the 2-D fancy index on Omega for any layout
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
