"""Dataset construction and matrix file I/O.

Synthetic targets follow the recipe ``M = N^T N; M = M / max(M); M += t *
|randn|`` with N drawn i.i.d. uniform(0, 1).  Randomness comes from
``numpy.random.default_rng`` (PCG64), so a dataset is reproducible from
(seed, n, m, t).  Matrices load from Matrix Market files or headerless CSV,
picked by extension.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import io as spio

log = logging.getLogger("gsmf")

# rows and columns per block of the in-place noise symmetrization
_SYM_BLOCK = 128


@dataclass
class DatasetRecipe:
    """Where the factor source N comes from and how M is assembled."""

    source: str = "synthetic"  # or "file"
    n: int = 0
    m: int = 0
    seed: int = 0
    path: str | None = None
    noise_t: float = 0.0
    normalize: bool = True
    symmetrize_noise: bool = False

    def __post_init__(self):
        if self.source not in ("synthetic", "file"):
            raise ValueError(f"unknown dataset source {self.source!r}")
        if self.noise_t < 0:
            raise ValueError("noise_t must be >= 0")
        if self.source == "synthetic" and (self.n < 1 or self.m < 1):
            raise ValueError("synthetic datasets need n >= 1 and m >= 1")
        if self.source == "file" and not self.path:
            raise ValueError("file datasets need a path")


def load_matrix(path):
    """Read a dense matrix from a Matrix Market (.mtx) or CSV file."""
    p = str(path)
    if p.endswith((".mtx", ".mtx.gz", ".mm")):
        M = spio.mmread(p)
        if hasattr(M, "toarray"):
            M = M.toarray()
        return np.asarray(M, dtype=float)
    return np.loadtxt(p, delimiter=",", dtype=float, ndmin=2)


def save_matrix(path, M):
    p = str(path)
    if p.endswith((".mtx", ".mm")):
        spio.mmwrite(p, np.asarray(M))
    else:
        np.savetxt(p, np.asarray(M), delimiter=",")


def gen_data(recipe: DatasetRecipe):
    """Build the n-by-n target matrix M from the recipe; deterministic per seed."""
    rng = np.random.default_rng(recipe.seed)
    if recipe.source == "synthetic":
        N = rng.uniform(size=(recipe.m, recipe.n))
    else:
        N = load_matrix(recipe.path)
        if np.any(N < 0):
            log.warning("factor matrix from %s has negative entries", recipe.path)
    M = N.T @ N
    if recipe.normalize:
        peak = M.max()
        if peak <= 0:
            raise ValueError("cannot normalize: max entry of N^T N is not positive")
        M /= peak
    if recipe.noise_t > 0:
        noise = rng.standard_normal(M.shape)
        np.abs(noise, out=noise)
        noise *= recipe.noise_t
        if recipe.symmetrize_noise:
            _symmetrize(noise)
        M += noise
    return M


def _symmetrize(A):
    """``A <- 0.5 (A + A^T)`` in place, one pair of square blocks at a time.

    Each entry is ``(a_ij + a_ji) * 0.5``, the same float as the out-of-place
    formula gives (addition and multiplication are commutative), and no
    second n-by-n array is allocated.
    """
    n = A.shape[0]
    for i in range(0, n, _SYM_BLOCK):
        I = slice(i, i + _SYM_BLOCK)
        for j in range(i, n, _SYM_BLOCK):
            J = slice(j, j + _SYM_BLOCK)
            S = A[I, J] + A[J, I].T
            S *= 0.5
            A[I, J] = S
            A[J, I] = S.T
