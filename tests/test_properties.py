"""Property tests: each map's misfit products against the dense oracle."""

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
    got = amap.misfit_products(X, Y, b)
    want = LinearMap.misfit_products(amap, X, Y, b)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (n, r)
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


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
