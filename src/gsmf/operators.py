"""Linear measurement maps on n-by-n matrices and their closed-form algebra.

Both maps provided here are partial isometries (``A A* = I`` on the
measurement space), which makes ``A* A`` an orthogonal projection with
eigenvalues in {0, 1}.  That structure gives closed forms for the shifted
inverse ``(alpha I + beta A* A)^{-1}`` and for the scalars ``rho`` and
``gamma`` consumed by the relaxation.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy import sparse


class DimensionMismatchError(ValueError):
    """An input matrix or vector does not match the map's shapes."""


def _mul_thin(A, W):
    """``A @ W`` for n-by-n A and n-by-r W as ``(W^T A^T)^T``: with the thin
    operand on the left OpenBLAS runs it up to 2x faster, A in C or F order."""
    return np.ascontiguousarray((W.T @ A.T).T)


class LinearMap:
    """Base class for linear maps R^{n x n} -> R^q with A A* = I_q.

    Subclasses implement ``apply`` and ``adjoint``; everything else is
    derived.  Instances are immutable after construction.
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
        """The misfit ``A(X Y^T) - b``, from which the objective, ``z_star``
        and the gradients are all built."""
        return self.apply(X @ Y.T) - b

    def misfit_products(self, X, Y, b):
        """``(G Y, G^T X)`` for the misfit ``G = A*(A(X Y^T) - b)``.

        These are the gradients of ``1/2 ||A(X Y^T) - b||^2`` in X and Y.
        This dense version forms G and is the reference the subclasses
        must match without any n-by-n work.
        """
        G = self.adjoint(self.misfit(X, Y, b))
        return G @ Y, G.T @ X

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
        self._check_matrix(W)
        return W / alpha - (beta / (alpha * (alpha + beta))) * self.gram_apply(W)

    def _check_matrix(self, U):
        U = np.asarray(U)
        if U.shape != (self.n, self.n):
            raise DimensionMismatchError(
                f"expected a {self.n}x{self.n} matrix, got shape {U.shape}"
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
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self.q = self.n * self.n

    def apply(self, U):
        U = self._check_matrix(U)
        return U.flatten(order="F")

    def adjoint(self, v):
        v = self._check_vector(v)
        return v.reshape((self.n, self.n), order="F")

    def misfit_products(self, X, Y, b):
        """Gram identities ``G Y = X (Y^T Y) - M Y`` and
        ``G^T X = Y (X^T X) - M^T X``, with ``M = A*(b)``."""
        M = self.adjoint(b)
        return X @ (Y.T @ Y) - _mul_thin(M, Y), Y @ (X.T @ X) - _mul_thin(M.T, X)


class SymmetricSampling(LinearMap):
    """Sampling map that reads the entries of U indexed by a symmetric Omega.

    Omega is a list of 1-based (row, col) pairs.  It must contain (j, i)
    whenever it contains (i, j), hold no duplicates, and be sorted
    lexicographically with the column index taking priority over the row
    index.  A set violating any of these is rejected rather than repaired.
    """

    def __init__(self, n, omega):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = int(n)
        pairs = [(int(i), int(j)) for i, j in omega]
        if not pairs:
            raise ValueError("Omega must be nonempty")
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"index pair {(i, j)} out of range for n={n}")
        if len(set(pairs)) != len(pairs):
            raise ValueError("Omega contains duplicate pairs")
        if pairs != sorted(pairs, key=lambda p: (p[1], p[0])):
            raise ValueError(
                "Omega must be sorted lexicographically, column index first"
            )
        have = set(pairs)
        for i, j in pairs:
            if (j, i) not in have:
                raise ValueError(f"Omega is not symmetric: ({i},{j}) without ({j},{i})")
        self.q = len(pairs)
        self._rows = np.array([i - 1 for i, _ in pairs])
        self._cols = np.array([j - 1 for _, j in pairs])
        # Omega is sorted column first, so it is already in CSC order
        self._colptr = np.searchsorted(self._cols, np.arange(self.n + 1))

    def apply(self, U):
        U = self._check_matrix(U)
        return U[self._rows, self._cols]

    def adjoint(self, v):
        v = self._check_vector(v)
        out = np.zeros((self.n, self.n))
        out[self._rows, self._cols] = v
        return out

    def subtract_adjoint(self, Z, v):
        """``Z -= A*(v)`` on Omega alone (exact: no duplicates), no n-by-n temporary."""
        Z[self._rows, self._cols] -= self._check_vector(v)

    def misfit(self, X, Y, b):
        """``<X_i, Y_j> - b`` on Omega: O(|Omega| r), no n-by-n memory."""
        vals = np.einsum("ij,ij->i", X.take(self._rows, axis=0),
                         Y.take(self._cols, axis=0))
        vals -= self._check_vector(b)
        return vals

    def misfit_products(self, X, Y, b):
        """G is |Omega|-sparse with the misfit on Omega, so both products
        cost O(|Omega| r) and need no n-by-n memory."""
        G = sparse.csc_array((self.misfit(X, Y, b), self._rows, self._colptr),
                             shape=(self.n, self.n))
        return G @ Y, G.T @ X


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


def load_omega_csv(path):
    """Read Omega from a two-column CSV of 1-based (row, col) pairs."""
    pairs = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) != 2:
                raise ValueError(f"expected two columns in {path}, got row {row!r}")
            pairs.append((int(row[0]), int(row[1])))
    return pairs


def random_symmetric_omega(n, density, rng):
    """Draw a random symmetric Omega at roughly the requested density.

    Returned pairs are 1-based and canonically sorted (column-major), so
    they can be fed directly to :class:`SymmetricSampling`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # one draw per upper-triangle entry, row by row: the stream of a
    # pairwise loop over i <= j, without its n^2 / 2 Python calls
    upper = [np.flatnonzero(rng.random(n - i) < density) + i for i in range(n)]
    rows = np.repeat(np.arange(1, n + 1), [len(js) for js in upper])
    cols = np.concatenate(upper) + 1
    off = rows != cols
    rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
    if rows.size == 0:
        return [(1, 1)]
    order = np.lexsort((rows, cols))
    return list(zip(rows[order].tolist(), cols[order].tolist()))
