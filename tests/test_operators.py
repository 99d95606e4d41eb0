import math
import tracemalloc

import numpy as np
import pytest

from gsmf import operators
from gsmf.data import load_matrix
from gsmf.operators import (
    DimensionMismatchError,
    FullVectorization,
    SymmetricSampling,
    _mul_thin,
    gamma_min,
    random_symmetric_omega,
    rho,
)

OMEGA_2x2 = [(2, 1), (1, 2)]


def test_full_vectorization_is_column_major():
    amap = FullVectorization(2)
    U = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert amap.apply(U).tolist() == [1.0, 3.0, 2.0, 4.0]


def test_sampling_apply_follows_omega_order():
    amap = SymmetricSampling(2, OMEGA_2x2)
    U = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert amap.apply(U).tolist() == [3.0, 2.0]


def test_apply_zero_matrix_gives_zero_vector():
    for amap in (FullVectorization(3), SymmetricSampling(2, OMEGA_2x2)):
        assert np.all(amap.apply(np.zeros((amap.n, amap.n))) == 0.0)


def test_full_adjoint_inverts_vectorization():
    amap = FullVectorization(2)
    got = amap.adjoint(np.array([1.0, 3.0, 2.0, 4.0]))
    assert got.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_sampling_adjoint_scatters_onto_omega():
    amap = SymmetricSampling(2, OMEGA_2x2)
    got = amap.adjoint(np.array([3.0, 2.0]))
    assert got.tolist() == [[0.0, 2.0], [3.0, 0.0]]


def test_adjoint_zero_vector_gives_zero_matrix():
    for amap in (FullVectorization(3), SymmetricSampling(2, OMEGA_2x2)):
        assert np.all(amap.adjoint(np.zeros(amap.q)) == 0.0)


def test_gram_apply_full_is_identity():
    amap = FullVectorization(3)
    U = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(amap.gram_apply(U), U)


def test_gram_apply_sampling_masks_to_support():
    amap = SymmetricSampling(2, OMEGA_2x2)
    U = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert amap.gram_apply(U).tolist() == [[0.0, 2.0], [3.0, 0.0]]


def test_gram_apply_matches_composition_inner_product():
    rng = np.random.default_rng(0)
    omega = random_symmetric_omega(5, 0.4, rng)
    for amap in (FullVectorization(5), SymmetricSampling(5, omega)):
        U = rng.standard_normal((5, 5))
        lhs = float(amap.apply(U) @ amap.apply(U))
        rhs = float(np.sum(U * amap.gram_apply(U)))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_shifted_inverse_full_scales_uniformly():
    amap = FullVectorization(2)
    W = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(amap.shifted_inverse_apply(2.0, 2.0, W), 0.25 * W,
                       rtol=0, atol=1e-15)


def test_shifted_inverse_sampling_splits_by_support():
    amap = SymmetricSampling(2, OMEGA_2x2)
    W = np.full((2, 2), 4.0)
    got = amap.shifted_inverse_apply(2.0, 2.0, W)
    # entries on the sampled positions shrink by 1/4, the rest by 1/2
    assert got.tolist() == [[2.0, 1.0], [1.0, 2.0]]


def test_shifted_inverse_alpha_one_beta_zero_is_identity():
    amap = FullVectorization(3)
    W = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(amap.shifted_inverse_apply(1.0, 0.0, W), W)


def test_shifted_inverse_rejects_singular_shift():
    amap = FullVectorization(2)
    W = np.zeros((2, 2))
    with pytest.raises(ZeroDivisionError):
        amap.shifted_inverse_apply(0.0, 1.0, W)
    with pytest.raises(ZeroDivisionError):
        amap.shifted_inverse_apply(2.0, -2.0, W)


def test_inverse_identity_on_parameter_grid():
    rng = np.random.default_rng(1)
    omega = random_symmetric_omega(6, 0.5, rng)
    for amap in (FullVectorization(6), SymmetricSampling(6, omega)):
        for alpha in (0.2, 0.6, 2.0):
            beta = alpha / (alpha - 1.0)
            W = rng.standard_normal((6, 6))
            S = amap.shifted_inverse_apply(alpha, beta, W)
            back = alpha * S + beta * amap.gram_apply(S)
            assert np.max(np.abs(back - W)) <= 1e-12 * max(1.0, np.max(np.abs(W)))


def test_rho_values():
    assert rho(2.0, 2.0) == 1.0
    assert rho(0.2, -0.25) == pytest.approx(16.0, rel=1e-14)
    assert rho(1.0, 0.0) == 1.0


def test_rho_rejects_zero_sum_and_is_at_least_one():
    with pytest.raises(ZeroDivisionError):
        rho(1.0, -1.0)
    for a, b in ((0.5, 7.0), (-3.0, 1.0), (2.0, 2.0)):
        assert rho(a, b) >= 1.0


def test_gamma_min_values():
    assert gamma_min(2.0, 2.0) == 0.0
    assert gamma_min(0.6, -1.5) == pytest.approx(0.9, abs=1e-15)
    assert gamma_min(0.2, -0.25) == pytest.approx(0.05, abs=1e-15)


def test_gamma_min_makes_shifted_gram_psd():
    for a in (0.2, 0.6, 2.0, -1.5):
        b = a / (a - 1.0)
        g = gamma_min(a, b)
        # eigenvalues of (a+g) I + b A*A are a+g and a+b+g
        assert a + g >= -1e-15
        assert a + b + g >= -1e-15


def test_adjoint_identity_many_random_pairs():
    rng = np.random.default_rng(2)
    omega = random_symmetric_omega(7, 0.3, rng)
    for amap in (FullVectorization(7), SymmetricSampling(7, omega)):
        for _ in range(100):
            U = rng.standard_normal((7, 7))
            v = rng.standard_normal(amap.q)
            lhs = float(amap.apply(U) @ v)
            rhs = float(np.sum(U * amap.adjoint(v)))
            assert abs(lhs - rhs) <= 1e-12


def test_partial_isometry_exact():
    rng = np.random.default_rng(3)
    omega = random_symmetric_omega(7, 0.3, rng)
    for amap in (FullVectorization(7), SymmetricSampling(7, omega)):
        for _ in range(100):
            v = rng.standard_normal(amap.q)
            assert np.array_equal(amap.apply(amap.adjoint(v)), v)


def test_skew_identity_on_symmetric_omega():
    rng = np.random.default_rng(4)
    for density in (0.1, 0.5):
        amap = SymmetricSampling(8, random_symmetric_omega(8, density, rng))
        for _ in range(100):
            U = rng.standard_normal((8, 8))
            G = amap.gram_apply(U)
            lhs = G - G.T
            rhs = amap.gram_apply(U - U.T)
            assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_dimension_mismatch_reports_shapes():
    amap = FullVectorization(3)
    with pytest.raises(DimensionMismatchError, match="3x3"):
        amap.apply(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError, match="length 9"):
        amap.adjoint(np.zeros(4))


@pytest.mark.parametrize("build, message", [
    (lambda: FullVectorization(2.5), "n must be an integer, got 2.5"),
    (lambda: FullVectorization(2.0), "n must be an integer, got 2.0"),
    (lambda: FullVectorization(True), "n must be an integer, got True"),
    (lambda: FullVectorization("3"), "n must be an integer, got '3'"),
    (lambda: FullVectorization(0), "n must be >= 1, got 0"),
    (lambda: SymmetricSampling(2.5, OMEGA_2x2), "n must be an integer, got 2.5"),
    (lambda: SymmetricSampling(0, OMEGA_2x2), "n must be >= 1, got 0"),
    (lambda: random_symmetric_omega(4.0, 0.5, np.random.default_rng(0)),
     "n must be an integer, got 4.0"),
    (lambda: random_symmetric_omega(4, math.nan, np.random.default_rng(0)),
     "density must be a real number, got nan"),
    (lambda: random_symmetric_omega(4, 2, np.random.default_rng(0)),
     "density must be <= 1, got 2"),
    (lambda: random_symmetric_omega(4, -0.1, np.random.default_rng(0)),
     "density must be >= 0, got -0.1"),
    (lambda: random_symmetric_omega(4, True, np.random.default_rng(0)),
     "density must be a real number, got True"),
    (lambda: random_symmetric_omega(4, "0.5", np.random.default_rng(0)),
     "density must be a real number, got '0.5'"),
])
def test_map_inputs_are_checked_at_the_boundary(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_maps_accept_numpy_integers():
    assert FullVectorization(np.int64(3)).n == 3
    assert type(SymmetricSampling(np.int32(2), OMEGA_2x2).n) is int
    omega = random_symmetric_omega(np.int64(4), np.float64(1.0), np.random.default_rng(0))
    assert len(omega) == 16


def test_omega_validation_rejects_bad_sets():
    with pytest.raises(ValueError, match="sorted"):
        SymmetricSampling(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricSampling(3, [(1, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        SymmetricSampling(2, [(2, 1), (2, 1), (1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        SymmetricSampling(2, [(3, 1), (1, 3)])
    with pytest.raises(ValueError, match="nonempty"):
        SymmetricSampling(2, [])


def _validate_pairwise(n, omega):
    """Reference: the pair-at-a-time validation, in the constructor's order."""
    pairs = []
    for entry in omega:
        try:
            i, j = entry
            whole = float(i).is_integer() and float(j).is_integer()
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"Omega entry {entry!r} is not a pair of integer indices")
        pairs.append((int(i), int(j)))
    if not pairs:
        raise ValueError("Omega must be nonempty")
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"index pair {(i, j)} out of range for n={n}")
    if len(set(pairs)) != len(pairs):
        raise ValueError("Omega contains duplicate pairs")
    if pairs != sorted(pairs, key=lambda p: (p[1], p[0])):
        raise ValueError("Omega must be sorted lexicographically, column index first")
    have = set(pairs)
    for i, j in pairs:
        if (j, i) not in have:
            raise ValueError(f"Omega is not symmetric: ({i},{j}) without ({j},{i})")


@pytest.mark.parametrize("n, omega, message", [
    (2, [], "nonempty"),
    (2, [(3, 1), (1, 3)], r"\(3, 1\) out of range"),
    (3, [(1, 1), (2, 1), (4, 1), (0, 2), (1, 4)], r"\(4, 1\) out of range"),
    (3, [(1, 1), (1, 0)], r"\(1, 0\) out of range"),
    (2, [(2, 1), (2, 1), (1, 2)], "duplicate"),
    (3, [(1, 2), (2, 1), (1, 2)], "duplicate"),  # also unsorted
    (3, [(5, 5), (1, 1), (1, 1)], "out of range"),  # also duplicate
    (2, [(1, 2), (2, 1)], "sorted"),
    (3, [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (3, 3), (2, 2)], "sorted"),
    (3, [(1, 2)], r"\(1,2\) without \(2,1\)"),
    (3, [(1, 1), (3, 1), (3, 2), (1, 3)], r"\(3,2\) without \(2,3\)"),
    (3, [(2, 1), (3, 1), (1, 2), (2, 3)], r"\(3,1\) without \(1,3\)"),
    (4, [(1, 1), (2, 1), (1, 2), (4, 2), (3, 3), (1, 4), (2, 4)],
     r"\(1,4\) without \(4,1\)"),
    (2, [(1.5, 2)], r"\(1.5, 2\) is not a pair of integer indices"),
    (2, [(1, 1), (2, float("nan"))], "not a pair of integer"),
    (2, [(float("inf"), 1)], "not a pair of integer"),
    (2, [(3, 1), (1, 2.5)], r"\(1, 2.5\) is not a pair"),  # also out of range
    (2, [(1, 2, 3)], r"\(1, 2, 3\) is not a pair"),
    (2, [(1, 1), (1,)], r"\(1,\) is not a pair"),
    (2, [(1, 1), 2], "2 is not a pair"),
    (2, [(1, None)], r"None\) is not a pair"),
    (2, [("a", 1)], "is not a pair"),
])
def test_omega_validation_matches_pairwise_reference(n, omega, message):
    # the same check fires, with the same first offender, as the pair loop
    with pytest.raises(ValueError) as want:
        _validate_pairwise(n, omega)
    with pytest.raises(ValueError, match=message) as got:
        SymmetricSampling(n, omega)
    assert str(got.value) == str(want.value)
    # and on the same Omega as one array, where numpy can hold it as one
    try:
        omega = np.array(omega)
    except ValueError:  # ragged
        return
    with pytest.raises(ValueError) as want:
        _validate_pairwise(n, omega)
    with pytest.raises(ValueError) as got:
        SymmetricSampling(n, omega)
    assert str(got.value) == str(want.value)


def test_omega_accepts_integral_values_of_any_type():
    amap = SymmetricSampling(3, iter([(2.0, np.int64(1)), (np.int32(1), 2), (3, 3)]))
    assert amap.q == 3
    U = np.arange(9.0).reshape(3, 3)
    assert amap.apply(U).tolist() == [U[1, 0], U[0, 1], U[2, 2]]


def test_sampling_map_from_array_equals_map_from_list():
    rng = np.random.default_rng(4)
    n, r = 40, 3
    omega = random_symmetric_omega(n, 0.2, rng)
    from_array = SymmetricSampling(n, omega)
    from_list = SymmetricSampling(n, omega.tolist())
    U = rng.standard_normal((n, n))
    X, Y = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    b = rng.standard_normal(from_array.q)
    assert from_array.apply(U).tobytes() == from_list.apply(U).tobytes()
    assert (from_array.misfit(X, Y, b).tobytes()
            == from_list.misfit(X, Y, b).tobytes())


def _gather_misfit(omega, X, Y, b):
    """Reference misfit: whole |Omega|-by-r gathers of X's and Y's rows."""
    omega = np.asarray(omega)
    return np.einsum("ij,ij->i", X.take(omega[:, 0] - 1, axis=0),
                     Y.take(omega[:, 1] - 1, axis=0)) - b


@pytest.mark.parametrize("n, density", [(1, 1.0), (30, 0.3), (300, 0.3)])
@pytest.mark.parametrize("r", [1, 3])
def test_sampling_misfit_matches_whole_gathers_across_blocks(monkeypatch, n,
                                                             density, r):
    rng = np.random.default_rng(n + r)
    omega = random_symmetric_omega(n, density, rng)
    amap = SymmetricSampling(n, omega)
    X, Y = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    b = rng.standard_normal(amap.q)
    want = _gather_misfit(omega, X, Y, b)
    q = amap.q
    assert np.array_equal(amap.misfit(X, Y, b), want)  # the module's block
    # pairs per block: more than |Omega| (one short block), a divisor of
    # |Omega| (whole blocks), and |Omega| - 1 (a last block of one pair)
    for pairs in {q + 1, q // 2 if q % 2 == 0 else 1, 1, q - 1} - {0}:
        # a block size that is not a multiple of r rounds down to whole pairs
        monkeypatch.setattr(operators, "_GATHER_BLOCK", pairs * r + r - 1)
        assert np.array_equal(amap.misfit(X, Y, b), want), pairs


def test_sampling_misfit_holds_no_omega_by_r_array():
    # the gathers are a block of Omega each: peak memory is the length-|Omega|
    # output and two blocks, not the two |Omega|-by-r gathers of the whole
    n, r = 1500, 10
    rng = np.random.default_rng(3)
    amap = SymmetricSampling(n, random_symmetric_omega(n, 0.01, rng))
    X, Y = rng.uniform(size=(n, r)), rng.uniform(size=(n, r))
    b = rng.uniform(size=amap.q)
    amap.misfit(X, Y, b)  # warm: first-call allocations are not the misfit's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        amap.misfit(X, Y, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * amap.q * r * 8


def test_omega_csv_roundtrip_through_load_matrix(tmp_path):
    path = tmp_path / "omega.csv"
    path.write_text("# pairs\n2,1\n\n1,2\n")
    assert load_matrix(path).tolist() == [[2, 1], [1, 2]]
    SymmetricSampling(2, load_matrix(path))
    # the pairs are read as floats, so the map's own check names a fraction
    path.write_text("1,1\n1.5,2\n")
    with pytest.raises(ValueError, match=r"Omega entry .*1\.5.* is not a pair"):
        SymmetricSampling(2, load_matrix(path))


def _pairs(omega):
    """A drawn (k, 2) Omega as the list of tuples the references return."""
    return [tuple(pair) for pair in omega.tolist()]


def _pairwise_omega(n, density, rng):
    """Reference draw: one rng.random() per pair i <= j, in row order."""
    pairs = set()
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if rng.random() < density:
                pairs.update({(i, j), (j, i)})
    return sorted(pairs or {(1, 1)}, key=lambda p: (p[1], p[0]))


@pytest.mark.parametrize("n, density", [(1, 0.5), (2, 0.9), (6, 0.4), (50, 0.1),
                                        (300, 0.01), (5, 0.0), (7, 1.0)])
def test_random_symmetric_omega_matches_pairwise_draw(n, density):
    for seed in range(3):
        got = random_symmetric_omega(n, density, np.random.default_rng(seed))
        want = _pairwise_omega(n, density, np.random.default_rng(seed))
        assert _pairs(got) == want
        assert np.issubdtype(got.dtype, np.integer) and got.shape == (len(want), 2)


def _row_loop_omega(n, density, rng):
    """Reference draw: one rng.random(n - i) call per row i of the triangle."""
    upper = [np.flatnonzero(rng.random(n - i) < density) + i for i in range(n)]
    rows = np.repeat(np.arange(1, n + 1), [len(js) for js in upper])
    cols = np.concatenate(upper) + 1
    off = rows != cols
    rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
    if rows.size == 0:
        return [(1, 1)]
    order = np.lexsort((rows, cols))
    return list(zip(rows[order].tolist(), cols[order].tolist()))


@pytest.mark.parametrize("n, density", [(1500, 0.01), (400, 0.2), (700, 0.0)])
def test_random_symmetric_omega_matches_row_loop_across_blocks(n, density):
    # n(n+1)/2 uniforms span several draw blocks at these sizes
    assert n * (n + 1) // 2 > operators._DRAW_BLOCK
    for seed in range(3):
        got = random_symmetric_omega(n, density, np.random.default_rng([seed, 1]))
        assert _pairs(got) == _row_loop_omega(n, density,
                                              np.random.default_rng([seed, 1]))


@pytest.mark.parametrize("block", [1, 7, 50, operators._DRAW_BLOCK])
def test_random_symmetric_omega_small_blocks_match_pairwise_draw(monkeypatch, block):
    # blocks end inside rows, and a row can span several of them
    monkeypatch.setattr(operators, "_DRAW_BLOCK", block)
    for n, density in ((1, 0.5), (30, 0.3), (45, 0.05)):
        got = random_symmetric_omega(n, density, np.random.default_rng(n))
        assert _pairs(got) == _pairwise_omega(n, density, np.random.default_rng(n))


def test_random_symmetric_omega_is_valid():
    rng = np.random.default_rng(5)
    omega = random_symmetric_omega(10, 0.2, rng)
    amap = SymmetricSampling(10, omega)  # constructor enforces the contract
    assert amap.q == len(omega)
    with pytest.raises(ValueError, match="n must be >= 1"):
        random_symmetric_omega(0, 0.5, rng)


@pytest.mark.parametrize("n, r", [(1, 1), (20, 3), (60, 4), (100, 10), (300, 5),
                                  (500, 20)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_mul_thin_matches_matmul(n, r, order):
    # F order covers the transposed views (M^T, Z^T) the kernel passes
    rng = np.random.default_rng(n + r)
    A = np.asarray(rng.standard_normal((n, n)), order=order)
    W = rng.standard_normal((n, r))
    got, want = _mul_thin(A, W), A @ W
    assert got.shape == (n, r) and got.flags.c_contiguous
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    # W with one live column: the whole product, the same bits as unskipped
    # (over the live column alone BLAS would take its gemv path)
    W[:, 1:] = 0.0
    assert np.array_equal(_mul_thin(A, W), (W.T @ A.T).T)
    # an all-zero W: the product is skipped, and its zeros equal A @ W
    W = np.zeros((n, r))
    got = _mul_thin(A, W)
    assert got.shape == (n, r) and got.flags.c_contiguous
    assert np.array_equal(got, A @ W)


def test_mul_thin_reads_no_a_for_an_all_zero_operand():
    class Unreadable:
        """An n-by-n operand that fails when read."""

        @property
        def T(self):
            raise AssertionError("A was read")

    W = np.zeros((7, 3))
    W[2, 1] = -0.0  # a negative zero is zero too
    got = _mul_thin(Unreadable(), W)
    assert got.shape == (7, 3) and got.dtype == float and got.flags.c_contiguous
    assert not got.any() and not np.signbit(got).any()
    assert not np.shares_memory(got, W)
    # one nonzero entry, and the product is formed
    W[2, 1] = 1e-300
    with pytest.raises(AssertionError, match="A was read"):
        _mul_thin(Unreadable(), W)
