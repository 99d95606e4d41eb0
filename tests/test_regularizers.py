import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gsmf.regularizers import (  # noqa: E402
    KINDS,
    L1,
    NonnegIndicator,
    NonnegPlusL1,
    Zero,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
weights = st.floats(min_value=0.0, max_value=10.0)
# one instance of every registered kind, each of its fields drawn
ALL = st.tuples(*(
    st.builds(cls, **{f.name: weights for f in dataclasses.fields(cls)})
    for cls in KINDS.values()))


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


@settings(max_examples=30, deadline=None)
@given(regs=ALL, seed=seeds)
def test_prox_column_stacks_to_full_prox(regs, seed):
    W = np.random.default_rng(seed).standard_normal((6, 4))
    for reg in regs:
        full = reg.prox(W, 0.37)
        cols = np.column_stack(
            [reg.prox_column(i, W[:, i], 0.37) for i in range(4)]
        )
        assert np.allclose(full, cols, rtol=0, atol=1e-15)


@settings(max_examples=10, deadline=None)
@given(regs=ALL)
def test_prox_rejects_nonpositive_step(regs):
    for reg in regs:
        with pytest.raises(ValueError, match="positive"):
            reg.prox(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError, match="positive"):
            reg.prox(np.zeros((2, 2)), -1.0)


@settings(max_examples=30, deadline=None)
@given(regs=ALL, seed=seeds)
def test_prox_optimality_under_random_perturbations(regs, seed):
    rng = np.random.default_rng(seed)
    for reg in regs:
        W = rng.standard_normal((5, 3))
        t = float(rng.uniform(0.1, 2.0))
        P = reg.prox(W, t)
        base = reg.eval(P) + float(np.sum((P - W) ** 2)) / (2 * t)
        for _ in range(50):
            Q = P + 0.2 * rng.standard_normal(P.shape)
            other = reg.eval(Q) + float(np.sum((Q - W) ** 2)) / (2 * t)
            assert other >= base - 1e-10


@settings(max_examples=30, deadline=None)
@given(regs=ALL, seed=seeds)
def test_firm_nonexpansiveness(regs, seed):
    rng = np.random.default_rng(seed)
    for reg in regs:
        for _ in range(20):
            W1 = rng.standard_normal((4, 4))
            W2 = rng.standard_normal((4, 4))
            d_out = np.linalg.norm(reg.prox(W1, 0.5) - reg.prox(W2, 0.5))
            d_in = np.linalg.norm(W1 - W2)
            assert d_out <= d_in + 1e-12


@settings(max_examples=30, deadline=None)
@given(regs=ALL, seed=seeds)
def test_prox_lands_in_domain(regs, seed):
    rng = np.random.default_rng(seed)
    for reg in regs:
        for _ in range(20):
            W = 3.0 * rng.standard_normal((4, 4))
            assert math.isfinite(reg.eval(reg.prox(W, 0.8)))


@settings(max_examples=10, deadline=None)
@given(regs=ALL)
def test_kappa_and_separability_defaults(regs):
    for reg in regs:
        assert reg.kappa == 0.0
        assert reg.column_separable


def test_kinds_compare_by_their_fields():
    assert L1() == L1(1.0) == L1(1) and L1(0.5) != L1(1.0)
    assert NonnegPlusL1(2) == NonnegPlusL1(2.0) != L1(2.0)
    assert Zero() == Zero() != NonnegIndicator()
    assert type(L1(np.float32(0.5)).weight) is float


@pytest.mark.parametrize("cls", [L1, NonnegPlusL1])
@pytest.mark.parametrize("weight, rule", [
    (math.nan, "a real number"), (math.inf, "finite"), (-math.inf, ">= 0"),
    (-1.0, ">= 0"), (True, "a real number"), ("2", "a real number"),
])
def test_weight_is_checked_at_construction(cls, weight, rule):
    with pytest.raises(ValueError) as exc:
        cls(weight)
    assert str(exc.value) == f"weight must be {rule}, got {weight!r}"
