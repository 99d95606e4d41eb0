"""Dataset construction and matrix file I/O.

Synthetic targets follow the recipe ``M = N^T N; M = M / max(M); M += t *
|randn|`` with N drawn i.i.d. uniform(0, 1).  Randomness comes from
``numpy.random.default_rng`` (PCG64), so a dataset is reproducible from
(seed, n, m, t).  Matrices are read and written as Matrix Market files or
headerless CSV, picked by one suffix table.
"""

from __future__ import annotations

import gzip
import logging
from dataclasses import dataclass

import numpy as np

from . import _checks

log = logging.getLogger("gsmf")

# entries per block of rows of the noise that gen_data draws and adds
# (128 KB of float64)
_NOISE_BLOCK = 1 << 14
# the suffixes load_matrix and save_matrix treat as Matrix Market; any other
# file is CSV
_MATRIX_MARKET = (".mtx", ".mtx.gz", ".mm")


@dataclass(frozen=True)
class DatasetRecipe:
    """Where the factor source N comes from and how M is assembled; n and m
    are read by the synthetic source only, path by the file source only."""

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
        for name in ("n", "m", "seed"):
            object.__setattr__(self, name,
                               _checks.integer(name, getattr(self, name), 0))
        for name in ("normalize", "symmetrize_noise"):
            object.__setattr__(self, name, _checks.flag(name, getattr(self, name)))
        object.__setattr__(self, "noise_t", _checks.real("noise_t", self.noise_t, 0))
        if self.source == "synthetic" and (self.n < 1 or self.m < 1):
            raise ValueError("synthetic datasets need n >= 1 and m >= 1")
        if self.source == "file" and not self.path:
            raise ValueError("file datasets need a path")
        if self.source == "synthetic" and self.path is not None:
            raise ValueError(f"synthetic datasets read no path, got {self.path!r}")
        if self.source == "file" and (self.n or self.m):
            raise ValueError(f"file datasets take their size from the file: n and m "
                             f"must be 0, got n={self.n}, m={self.m}")


class MatrixFileError(ValueError):
    """A matrix file that does not parse or holds no entries; the message names it."""


def load_matrix(path):
    """Read a dense matrix from a Matrix Market or headerless CSV file."""
    p = str(path)
    try:
        if p.endswith(_MATRIX_MARKET):
            from scipy import io as spio  # loaded by Matrix Market I/O alone

            if 0 in spio.mminfo(p)[:2]:  # checked first: mmread crashes on 0x0
                raise ValueError("the file holds no entries")
            M = spio.mmread(p)
            if hasattr(M, "toarray"):
                M = M.toarray()
            return np.asarray(M, dtype=float)
        # opened as loadtxt opens a path, which only warns on a file with no data
        with np.lib.npyio.DataSource(".").open(p, "rt") as fh:
            if not any(line.split("#", 1)[0].strip() for line in fh):
                raise ValueError("the file holds no entries")
            fh.seek(0)
            return np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
    except (ValueError, EOFError, gzip.BadGzipFile) as exc:
        raise MatrixFileError(f"{p}: {exc}") from exc


def save_matrix(path, M):
    """Write M to exactly ``path``, in the format :func:`load_matrix` reads."""
    p = str(path)
    if p.endswith(_MATRIX_MARKET):
        from scipy import io as spio

        # through a file object: given a name, mmwrite appends ".mtx" to it
        with (gzip.open if p.endswith(".gz") else open)(p, "wb") as fh:
            spio.mmwrite(fh, np.asarray(M))
    else:
        np.savetxt(p, np.asarray(M), delimiter=",")


def gen_data(recipe: DatasetRecipe):
    """Build the n-by-n target matrix M from the recipe; deterministic per seed.

    M is the only n-by-n array: it comes back in Fortran order, so the full
    map's ``b = vec_F(M)`` is a view of it, and the noise is drawn and added
    one block of rows at a time.
    """
    rng = np.random.default_rng(recipe.seed)
    if recipe.source == "synthetic":
        N = rng.uniform(size=(recipe.m, recipe.n))
    else:
        N = load_matrix(recipe.path)
        if np.any(N < 0):
            log.warning("factor matrix from %s has negative entries", recipe.path)
    # numpy forms N^T N with syrk, so it is exactly symmetric and its
    # transpose, an F-order array, is the same matrix
    M = (N.T @ N).T
    if recipe.normalize:
        peak = M.max()
        if peak <= 0:
            raise ValueError("cannot normalize: max entry of N^T N is not positive")
        M /= peak
    if recipe.noise_t > 0:
        _add_noise(M, rng, recipe.noise_t, recipe.symmetrize_noise)
    return M


def _add_noise(M, rng, t, symmetrize):
    """``M += t |E|`` for E i.i.d. standard normal, or ``M += 0.5 (E' + E'^T)``
    with ``E' = t |E|`` when ``symmetrize``, one block of rows at a time.

    E is drawn block by block into one buffer: the same stream as one n-by-n
    draw.  To symmetrize, M must be exactly symmetric: the noise of the
    columns right of a block waits in M's lower block, whose value the upper
    block duplicates, until the rows it mirrors are drawn.  Each entry is
    ``m_ij + (e_ij + e_ji) * 0.5``, the same float as the out-of-place
    formula gives (addition and multiplication are commutative).
    """
    n = M.shape[0]
    rows = max(1, _NOISE_BLOCK // n)
    buf = np.empty((min(rows, n), n))
    for i in range(0, n, rows):
        e = min(i + rows, n)
        E = rng.standard_normal(out=buf[:e - i])
        np.abs(E, out=E)
        E *= t
        if not symmetrize:
            M[i:e] += E
            continue
        # columns left of the block: M[i:e, :i] holds the noise e_ji stashed
        # by the earlier rows j, and M[:i, i:e] the value m_ji = m_ij
        L = E[:, :i]
        L += M[i:e, :i]
        L *= 0.5
        L += M[:i, i:e].T
        M[i:e, :i] = L
        M[:i, i:e] = L.T
        D = E[:, i:e] + E[:, i:e].T
        D *= 0.5
        M[i:e, i:e] += D
        # columns right of the block: stash their noise for their rows
        M[e:, i:e] = E[:, e:].T
