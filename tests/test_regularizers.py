import math

import numpy as np
import pytest

from gsmf.regularizers import L1, NonnegIndicator, NonnegPlusL1, Zero, from_config

ALL = [Zero(), NonnegIndicator(), L1(0.5), NonnegPlusL1(0.3)]


def test_eval_examples():
    assert NonnegIndicator().eval(np.array([[1.0, 0.0], [2.0, 3.0]])) == 0.0
    assert NonnegIndicator().eval(np.array([[-1.0, 0.0], [2.0, 3.0]])) == math.inf
    assert L1(0.5).eval(np.array([[1.0, -2.0], [0.0, 3.0]])) == pytest.approx(3.0)
    assert Zero().eval(np.ones((4, 4))) == 0.0
    assert NonnegPlusL1(2.0).eval(np.array([[1.0, 3.0]])) == pytest.approx(8.0)
    assert NonnegPlusL1(2.0).eval(np.array([[1.0, -3.0]])) == math.inf


def test_prox_examples():
    W = np.array([[-1.0, 2.0]])
    assert Zero().prox(W, 0.7).tolist() == W.tolist()
    assert NonnegIndicator().prox(W, 1.0).tolist() == [[0.0, 2.0]]
    assert L1(1.0).prox(np.array([[3.0, -0.5]]), 1.0).tolist() == [[2.0, 0.0]]


def test_l1_prox_matches_grid_search_oracle():
    reg = L1(0.8)
    t = 0.6
    for w in (-2.5, -0.3, 0.0, 0.2, 4.0):
        grid = np.linspace(-6, 6, 240001)
        obj = 0.8 * np.abs(grid) + (grid - w) ** 2 / (2 * t)
        best = grid[np.argmin(obj)]
        got = float(reg.prox(np.array([[w]]), t)[0, 0])
        assert abs(got - best) <= 1e-4


def test_nonneg_plus_l1_prox_matches_grid_search_oracle():
    reg = NonnegPlusL1(0.8)
    t = 0.6
    grid = np.linspace(0, 6, 120001)
    for w in (-2.5, 0.2, 4.0):
        obj = 0.8 * grid + (grid - w) ** 2 / (2 * t)
        best = grid[np.argmin(obj)]
        got = float(reg.prox(np.array([[w]]), t)[0, 0])
        assert abs(got - best) <= 1e-4


def test_prox_column_examples():
    assert NonnegIndicator().prox_column(0, np.array([-1.0, 2.0]), 1.0).tolist() == [0.0, 2.0]
    assert Zero().prox_column(2, np.array([5.0, -5.0]), 0.1).tolist() == [5.0, -5.0]


def test_prox_column_stacks_to_full_prox():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((6, 4))
    for reg in ALL:
        full = reg.prox(W, 0.37)
        cols = np.column_stack(
            [reg.prox_column(i, W[:, i], 0.37) for i in range(4)]
        )
        assert np.allclose(full, cols, rtol=0, atol=1e-15)


def test_prox_rejects_nonpositive_step():
    for reg in ALL:
        with pytest.raises(ValueError, match="positive"):
            reg.prox(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError, match="positive"):
            reg.prox(np.zeros((2, 2)), -1.0)


def test_prox_optimality_under_random_perturbations():
    rng = np.random.default_rng(1)
    for reg in ALL:
        W = rng.standard_normal((5, 3))
        t = float(rng.uniform(0.1, 2.0))
        P = reg.prox(W, t)
        base = reg.eval(P) + float(np.sum((P - W) ** 2)) / (2 * t)
        for _ in range(50):
            Q = P + 0.2 * rng.standard_normal(P.shape)
            other = reg.eval(Q) + float(np.sum((Q - W) ** 2)) / (2 * t)
            assert other >= base - 1e-10


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(2)
    for reg in ALL:
        for _ in range(20):
            W1 = rng.standard_normal((4, 4))
            W2 = rng.standard_normal((4, 4))
            d_out = np.linalg.norm(reg.prox(W1, 0.5) - reg.prox(W2, 0.5))
            d_in = np.linalg.norm(W1 - W2)
            assert d_out <= d_in + 1e-12


def test_prox_lands_in_domain():
    rng = np.random.default_rng(3)
    for reg in ALL:
        for _ in range(20):
            W = 3.0 * rng.standard_normal((4, 4))
            assert math.isfinite(reg.eval(reg.prox(W, 0.8)))


def test_kappa_and_separability_defaults():
    for reg in ALL:
        assert reg.kappa == 0.0
        assert reg.column_separable


def test_from_config():
    assert from_config("zero") == Zero()
    assert from_config({"kind": "nonneg"}) == NonnegIndicator()
    assert from_config({"kind": "l1", "weight": 0.5}) == L1(0.5)
    assert from_config({"kind": "nonneg_l1", "weight": 2.0}) == NonnegPlusL1(2.0)
    with pytest.raises(ValueError, match="unknown regularizer"):
        from_config({"kind": "scad"})
    assert from_config({"kind": "l1"}) == L1(1.0)
    with pytest.raises(ValueError, match="mapping"):
        from_config(["l1"])
    with pytest.raises(ValueError, match="weight must be a number"):
        from_config({"kind": "l1", "weight": True})


def test_from_config_rejects_misspelled_weight():
    with pytest.raises(ValueError, match="wieght"):
        from_config({"kind": "l1", "wieght": 2})


def test_from_config_rejects_weight_on_unweighted_kind():
    with pytest.raises(ValueError, match="weight"):
        from_config({"kind": "nonneg", "weight": 2})
