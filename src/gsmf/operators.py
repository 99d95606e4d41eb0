"""Linear measurement maps on n-by-n matrices and their closed-form algebra.

Both maps provided here are partial isometries (``A A* = I`` on the
measurement space), which makes ``A* A`` an orthogonal projection with
eigenvalues in {0, 1}.  That structure gives closed forms for the shifted
inverse ``(alpha I + beta A* A)^{-1}`` and for the scalars ``rho`` and
``gamma`` consumed by the relaxation.
"""

from __future__ import annotations

import numpy as np

from . import _checks


# uniforms per rng.random call of random_symmetric_omega (512 KB of float64)
_DRAW_BLOCK = 1 << 16
# entries per row block of FullVectorization.misfit_norm_sq (1 MB of float64)
_MISFIT_BLOCK = 1 << 17
# entries per factor gather of SymmetricSampling.misfit (128 KB of float64,
# near glibc's default mmap threshold)
_GATHER_BLOCK = 1 << 14


class DimensionMismatchError(ValueError):
    """An input matrix or vector does not match the map's shapes."""


def _mul_thin(A, W):
    """``A @ W`` for n-by-n A and n-by-r W as ``(W^T A^T)^T``: with the thin
    operand on the left OpenBLAS runs it up to 2x faster, A in C or F order.

    An all-zero W gives C-contiguous zeros without reading A, which is exact
    for a finite A (BLAS starts each sum at +0.0).  Only a wholly zero W is
    skipped: a product over W's nonzero columns alone takes another BLAS path
    and can differ in the last bits."""
    if not W.any():
        return np.zeros(W.shape)
    return np.ascontiguousarray((W.T @ A.T).T)


class LinearMap:
    """Base class for linear maps R^{n x n} -> R^q with A A* = I_q.

    Subclasses implement ``apply``, ``adjoint`` and ``misfit_operator``;
    everything else is derived.  Instances are immutable after construction.
    The misfit methods take float factors X, Y and assume them finite: the
    public functions read them once, in ``ProblemSpec.check_blocks``, and a
    dense Z in ``ProblemSpec.check_z``.
    """

    n: int
    q: int

    def apply(self, U):
        raise NotImplementedError

    def adjoint(self, v):
        raise NotImplementedError

    def gram_apply(self, U):
        """Compute ``A* A (U)``."""
        self._check_matrix(U)
        return self.adjoint(self.apply(U))

    def subtract_adjoint(self, Z, v):
        """``Z -= A*(v)`` in place."""
        Z -= self.adjoint(v)

    def misfit(self, X, Y, b):
        """The misfit ``A(X Y^T) - b``: on the sampling map, a solve's data
        term and the values of its ``misfit_operator``."""
        return self.apply(X @ Y.T) - b

    def misfit_norm_sq(self, X, Y, b):
        """The squared misfit ``||A(X Y^T) - b||^2``, the data term of the
        objective; this version forms the whole misfit."""
        m = self.misfit(X, Y, b)
        return float(m @ m)

    def misfit_operator(self, X, Y, b, misfit=None):
        """The misfit ``G = A*(A(X Y^T) - b)`` as an operator on n-by-r
        blocks: ``G @ Y`` and ``G.T @ X`` are the gradients of
        ``1/2 ||A(X Y^T) - b||^2``.  ``misfit`` may supply ``misfit(X, Y, b)``."""
        raise NotImplementedError

    def shifted_inverse_apply(self, alpha, beta, W):
        """Apply ``(alpha I + beta A* A)^{-1}`` to ``W``.

        Uses the closed form ``(1/alpha) I - beta / (alpha (alpha + beta)) A* A``,
        valid because ``A A* = I`` makes ``A* A`` idempotent.
        """
        if alpha * (alpha + beta) == 0:
            raise ZeroDivisionError(
                "alpha * (alpha + beta) must be nonzero, got "
                f"alpha={alpha}, beta={beta}"
            )
        self._check_matrix(W, "W")
        return W / alpha - (beta / (alpha * (alpha + beta))) * self.gram_apply(W)

    def _check_matrix(self, U, name="U"):
        U = np.asarray(U)
        if U.shape != (self.n, self.n):
            raise DimensionMismatchError(
                f"{name} has shape {U.shape}, expected a {self.n}x{self.n} matrix"
            )
        return U

    def _check_vector(self, v):
        v = np.asarray(v)
        if v.shape != (self.q,):
            raise DimensionMismatchError(
                f"expected a vector of length {self.q}, got shape {v.shape}"
            )
        return v


class FullVectorization(LinearMap):
    """Column-major vectorization of an n-by-n matrix; q = n^2."""

    def __init__(self, n):
        self.n = _checks.integer("n", n, 1)
        self.q = self.n * self.n

    def apply(self, U):
        """``vec_F(U)``: a view of an F-contiguous U (so the b of an F-order
        target M shares M's memory), a copy of any other layout."""
        U = self._check_matrix(U)
        return U.ravel(order="F")

    def adjoint(self, v):
        v = self._check_vector(v)
        return v.reshape((self.n, self.n), order="F")

    def misfit_norm_sq(self, X, Y, b):
        """``||Y X^T - B||_F^2`` with ``B = b.reshape(n, n)`` (C order, so B is
        M^T), summed over row blocks of about 1 MB: O(n * block) memory, no
        n-by-n temporary.  It adds in another order than the whole-misfit
        dot, so the two can differ in the last bits."""
        n = self.n
        B = self._check_vector(b).reshape(n, n)
        rows = min(n, max(1, _MISFIT_BLOCK // n))
        buf = np.empty((rows, n))  # one block, reused: no allocation per block
        total = 0.0
        for s in range(0, n, rows):
            R = np.matmul(Y[s:s + rows], X.T, out=buf[:min(rows, n - s)])
            R -= B[s:s + rows]
            total += float(np.vdot(R, R))
        return total

    def misfit_operator(self, X, Y, b, misfit=None):
        """``G = X Y^T - M`` with ``M = A*(b)``, applied through the Gram
        identity; it needs no misfit, so a given one is ignored."""
        return _LowRankMinus(X, Y, self.adjoint(b))


class _LowRankMinus:
    """``X Y^T - M`` on n-by-r blocks: ``G @ W = X (Y^T W) - M W``, no n-by-n
    array.  ``G.T`` is the same form with X and Y swapped and M transposed,
    so ``G.T @ X`` forms ``X^T X`` with syrk, as the plain expression does."""

    def __init__(self, X, Y, M):
        self.X, self.Y, self.M = X, Y, M

    def __matmul__(self, W):
        return self.X @ (self.Y.T @ W) - _mul_thin(self.M, W)

    @property
    def T(self):
        return _LowRankMinus(self.Y, self.X, self.M.T)


class SymmetricSampling(LinearMap):
    """Sampling map that reads the entries of U indexed by a symmetric Omega.

    Omega is an array-like of 1-based (row, col) pairs: the (k, 2) integer
    array of :func:`random_symmetric_omega`, the float array that
    ``load_matrix`` reads from a two-column file, or any iterable of pairs.
    It must contain (j, i) whenever it contains (i, j), hold no duplicates,
    and be sorted lexicographically with the column index taking priority
    over the row index.  A set violating any of these is rejected rather
    than repaired.
    The map keeps Omega as index arrays: the 0-based rows and columns for
    the factor reads of ``misfit`` and a non-C-order ``apply``, the column
    pointers of ``misfit_operator``, and the C-order flat index ``i n + j``
    for ``apply``, ``adjoint`` and ``subtract_adjoint``.
    """

    def __init__(self, n, omega):
        self.n = n = _checks.integer("n", n, 1)
        if not isinstance(omega, np.ndarray):
            omega = list(omega)
        if len(omega) == 0:
            raise ValueError("Omega must be nonempty")
        # every check is one array operation on Omega read as a (k, 2) float
        # array; the Python loop of _first_malformed runs on error only
        try:
            ij = np.asarray(omega, dtype=float)
            whole = (ij.ndim == 2 and ij.shape[1] == 2 and np.all(np.isfinite(ij))
                     and np.all(np.trunc(ij) == ij))
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"Omega entry {_first_malformed(omega)!r} is not "
                             "a pair of integer indices")
        out = np.flatnonzero(((ij < 1) | (ij > n)).any(axis=1))
        if out.size:
            i, j = omega[out[0]]
            raise ValueError(f"index pair {(int(i), int(j))} out of range for n={n}")
        rows = ij[:, 0].astype(np.intp) - 1
        cols = ij[:, 1].astype(np.intp) - 1
        # column-first key: a valid Omega is strictly increasing in it
        key = cols * n + rows
        if not np.all(key[1:] > key[:-1]):
            if np.unique(key).size != key.size:
                raise ValueError("Omega contains duplicate pairs")
            raise ValueError(
                "Omega must be sorted lexicographically, column index first"
            )
        # the key of the mirror (j, i) is i n + j, the C-order flat index of (i, j)
        flat = rows * n + cols
        at = np.minimum(np.searchsorted(key, flat), key.size - 1)
        lone = np.flatnonzero(key[at] != flat)
        if lone.size:
            i, j = (int(k) for k in omega[lone[0]])
            raise ValueError(f"Omega is not symmetric: ({i},{j}) without ({j},{i})")
        self.q = key.size
        self._rows, self._cols, self._flat = rows, cols, flat
        # Omega is sorted column first, so it is already in CSC order, and
        # column j's entries are pairs colptr[j] to colptr[j + 1] - 1
        self._colptr = np.searchsorted(cols, np.arange(n + 1))
        # scipy.sparse is loaded by this map alone, here in set-up rather
        # than in a solve step: a full-map process never loads it
        from scipy.sparse import csc_array
        self._csc_array = csc_array

    def apply(self, U):
        """The entries of U on Omega: ``take`` on the flat index for a
        C-contiguous U, a (row, col) gather for any other layout (``take``
        would copy it to C order first), so no n-by-n temporary."""
        U = self._check_matrix(U)
        if U.flags.c_contiguous:
            return U.take(self._flat)
        return U[self._rows, self._cols]

    def adjoint(self, v):
        v = self._check_vector(v)
        out = np.zeros((self.n, self.n))
        out.put(self._flat, v)
        return out

    def subtract_adjoint(self, Z, v):
        """``Z -= A*(v)`` on Omega alone (exact: no duplicates), no n-by-n temporary."""
        vals = Z.take(self._flat)
        vals -= self._check_vector(v)
        Z.put(self._flat, vals)

    def misfit(self, X, Y, b):
        """``<X_i, Y_j> - b`` on Omega: O(|Omega| r) time and no |Omega|-by-r
        array.  X's and Y's rows are gathered for one block of Omega at a
        time (about ``_GATHER_BLOCK`` entries per factor), and the block's
        row dots are written into the one output vector."""
        b = self._check_vector(b)
        rows, cols = self._rows, self._cols
        vals = np.empty(self.q)
        step = max(1, _GATHER_BLOCK // X.shape[1])
        for s in range(0, self.q, step):
            e = s + step
            np.einsum("ij,ij->i", X.take(rows[s:e], axis=0),
                      Y.take(cols[s:e], axis=0), out=vals[s:e])
        vals -= b
        return vals

    def misfit_operator(self, X, Y, b, misfit=None):
        """G as a CSC matrix, |Omega|-sparse with the misfit on Omega: its
        products with n-by-r blocks cost O(|Omega| r), no n-by-n memory."""
        v = self.misfit(X, Y, b) if misfit is None else misfit
        return self._csc_array((self._check_vector(v), self._rows, self._colptr),
                               shape=(self.n, self.n))


def _first_malformed(omega):
    """The first entry of Omega that is not a pair of finite integral numbers."""
    for entry in omega:
        try:
            i, j = entry
            if float(i).is_integer() and float(j).is_integer():
                continue
        except (TypeError, ValueError, OverflowError):
            pass
        return entry


def rho(alpha, beta):
    """Squared spectral norm of ``I - beta/(alpha+beta) A* A``.

    Equals ``max(1, alpha^2 / (alpha + beta)^2)`` for any partial isometry.
    """
    if alpha + beta == 0:
        raise ZeroDivisionError("alpha + beta must be nonzero")
    return max(1.0, alpha**2 / (alpha + beta) ** 2)


def gamma_min(alpha, beta):
    """Smallest gamma >= 0 making ``(alpha + gamma) I + beta A* A`` PSD."""
    return max(0.0, -alpha, -(alpha + beta))


def random_symmetric_omega(n, density, rng):
    """Draw a random symmetric Omega at roughly the requested density.

    Returns a (k, 2) integer array of 1-based (row, col) pairs, canonically
    sorted (column-major), that can be fed directly to
    :class:`SymmetricSampling`.
    """
    n = _checks.integer("n", n, 1)
    density = _checks.real("density", density, 0, 1)
    # one uniform per upper-triangle entry (i, j >= i), row by row: the stream
    # of a pairwise loop over i <= j.  Each float64 uniform takes its own draw
    # from the generator's stream, so the blocks of rng.random calls need not
    # align with rows.
    start = np.zeros(n + 1, dtype=np.intp)  # row i starts at start[i]
    np.cumsum(np.arange(n, 0, -1), out=start[1:])
    t = np.concatenate([
        np.flatnonzero(rng.random(min(_DRAW_BLOCK, start[n] - s)) < density) + s
        for s in range(0, start[n], _DRAW_BLOCK)
    ])
    rows = np.searchsorted(start, t, side="right") - 1
    cols = t - start[rows] + rows
    off = rows != cols
    # the column-first keys j n + i of the pairs and of their mirrors
    key = np.sort(np.concatenate([cols * n + rows, rows[off] * n + cols[off]]))
    if key.size == 0:
        key = np.zeros(1, dtype=np.intp)  # the pair (1, 1)
    cols, rows = np.divmod(key, n)
    return np.column_stack((rows + 1, cols + 1))
