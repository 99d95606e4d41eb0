"""Problem bundle, objective and potential evaluation, and the explicit
auxiliary-block formula.

The potential adds one auxiliary matrix Z that splits the bilinear product
from the measurement map.  With ``A A* = I`` and ``1/alpha + 1/beta = 1``,
plugging the stationary Z of :func:`z_star` back into the potential
reproduces the original objective exactly; tests check that identity
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _checks, operators
from .operators import LinearMap
from .regularizers import NonnegIndicator, Regularizer


@dataclass(frozen=True)
class ProblemSpec:
    """One factorization instance: map, target vector, regularizers, lam, sizes."""

    map: LinearMap
    b: np.ndarray
    psi: Regularizer
    phi: Regularizer
    lam: float
    n: int
    r: int

    def __post_init__(self):
        for name in ("n", "r"):
            object.__setattr__(self, name,
                               _checks.integer(name, getattr(self, name), 1))
        if self.r > self.n:
            raise ValueError(f"rank r={self.r} exceeds n={self.n}")
        object.__setattr__(self, "lam", _checks.real("lambda", self.lam, 0))
        if self.map.n != self.n:
            raise ValueError(f"map is for n={self.map.n}, spec has n={self.n}")
        object.__setattr__(self, "b", _read("b", self.b, (self.map.q,)))

    @cached_property
    def bnorm_sq(self) -> float:
        """||b||^2, one dot over b: on the full map also ||M||_F^2 of the
        kernel's Gram cache."""
        return float(self.b @ self.b)

    @cached_property
    def bnorm(self) -> float:
        """||b||, the scale of the relative objective and roundoff bounds."""
        return math.sqrt(self.bnorm_sq)

    def check_blocks(self, X, Y, names=("X", "Y")):
        """The factors as float arrays, after checking that both are n-by-r
        with every entry finite.

        Every public function that takes factor blocks reads them through
        this, so integer factors give the values of float ones and a NaN or
        inf entry is an error, not a point outside the domain; ``names``
        are the blocks' names in the caller's signature, for the error."""
        return tuple(_read(name, W, (self.n, self.r)) for name, W in zip(names, (X, Y)))

    def check_z(self, Z, name="Z"):
        """A dense auxiliary block as a float array, after checking that it
        is n-by-n (the map's ``DimensionMismatchError`` otherwise) with
        every entry finite."""
        return _read(name, self.map._check_matrix(Z, name), (self.n, self.n))


def _read(name, W, shape):
    """W as a float array, after checking its shape and that it is finite."""
    if np.shape(W) != shape:
        raise ValueError(f"{name} has shape {np.shape(W)}, expected {shape}")
    W = np.asarray(W, dtype=float)
    if not np.isfinite(W).all():
        raise ValueError(f"{name} has non-finite entries")
    return W


def _beta(alpha):
    """beta = alpha / (alpha - 1), the solution of 1/alpha + 1/beta = 1."""
    if alpha in (0.0, 1.0):
        raise ValueError("alpha must differ from 0 and 1")
    return alpha / (alpha - 1.0)


@dataclass(frozen=True)
class RelaxationParams:
    """Relaxation scalars alpha and gamma, and all the solver derives from them,
    computed once: beta (1/alpha + 1/beta = 1), rho, the Z weights az and bz
    (alpha and beta over alpha + beta) and the caps' curvature coef = alpha +
    2 gamma rho.  An alpha or gamma these cannot use is a ValueError naming it."""

    alpha: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "gamma"):
            object.__setattr__(self, name, _checks.real(name, getattr(self, name)))
        a, b = self.alpha, _beta(self.alpha)
        try:
            rho = operators.rho(a, b)
        except (ZeroDivisionError, OverflowError):
            why = "alpha + beta rounds to 0" if a + b == 0 else "rho overflows"
            raise ValueError(f"alpha={a} is out of range: {why}") from None
        gmin = operators.gamma_min(a, b)
        if self.gamma < gmin - 1e-12:
            raise ValueError(f"gamma={self.gamma} below admissible minimum {gmin}")
        coef = a + 2.0 * self.gamma * rho
        if math.isinf(coef):
            raise ValueError(f"gamma={self.gamma} is out of range: coef overflows")
        vars(self).update(beta=b, rho=rho, az=a / (a + b), bz=b / (a + b), coef=coef)

    @classmethod
    def from_alpha(cls, alpha, gamma=None):
        """The relaxation at alpha; gamma defaults to its admissible minimum."""
        alpha = _checks.real("alpha", alpha)
        if gamma is None:
            gamma = operators.gamma_min(alpha, _beta(alpha))
        return cls(alpha=alpha, gamma=gamma)


def _penalized(spec: ProblemSpec, X, Y, data) -> float:
    """``Psi(X) + Phi(Y) + data() + lam/2 ||X - Y||_F^2``, calling ``data``
    only when ``Psi(X) + Phi(Y)`` is finite.  The symmetry term is summed
    from ``X - Y`` itself, so it stays accurate as X -> Y."""
    reg = spec.psi.eval(X) + spec.phi.eval(Y)
    if math.isinf(reg):
        return math.inf
    val = reg + data()
    if spec.lam:
        D = X - Y
        val += 0.5 * spec.lam * float(np.sum(D * D))
    return val


def f_lambda(spec: ProblemSpec, X, Y) -> float:
    """Objective: Psi(X) + Phi(Y) + 0.5 ||A(X Y^T) - b||^2 + lam/2 ||X - Y||_F^2.

    The map supplies the squared misfit (``LinearMap.misfit_norm_sq``),
    which the full map sums in row blocks without an n-by-n temporary.
    """
    X, Y = spec.check_blocks(X, Y)
    return _penalized(spec, X, Y,
                      lambda: 0.5 * spec.map.misfit_norm_sq(X, Y, spec.b))


def theta(spec: ProblemSpec, params: RelaxationParams, X, Y, Z) -> float:
    """Potential: the objective with the bilinear term split through Z."""
    X, Y = spec.check_blocks(X, Y)
    Z = spec.check_z(Z)

    def data():
        S = X @ Y.T - Z
        resid = spec.map.apply(Z) - spec.b
        return 0.5 * (params.alpha * float(np.sum(S * S))
                      + params.beta * float(resid @ resid))

    return _penalized(spec, X, Y, data)


def z_star(spec: ProblemSpec, params: RelaxationParams, X, Y, out=None):
    """Stationary auxiliary block ``X Y^T - bz A*(A(X Y^T) - b)``, with
    ``bz = beta/(alpha+beta)`` from ``params``, written into ``out`` (a
    writeable n-by-n float64 array, whatever it holds) when given."""
    X, Y = spec.check_blocks(X, Y)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.flags.writeable):
        raise ValueError("out must be a writeable float64 array")
    Z = np.matmul(X, Y.T, out=out if out is None else spec.map._check_matrix(out, "out"))
    spec.map.subtract_adjoint(Z, params.bz * (spec.map.apply(Z) - spec.b))
    return Z


def relobj(spec: ProblemSpec, X, Y) -> float:
    """Normalized objective ``sqrt(2 F) / ||b||``.

    When the map is the full vectorization of a target M, the denominator
    equals ||M||_F; for other maps ||b|| is the natural generalization.
    """
    f = f_lambda(spec, X, Y)
    if math.isinf(f):
        raise ValueError("objective is infinite at (X, Y)")
    if spec.bnorm == 0:
        raise ZeroDivisionError("||b|| = 0; relative objective undefined")
    return math.sqrt(max(2.0 * f, 0.0)) / spec.bnorm


class GramCache:
    """Gram-product cache for the symmetric-NMF fast path.

    Holds the small products needed to evaluate the objective without
    forming U V^T.  ``normM2`` supplies ``||M||_F^2`` when the caller has it
    (the solver passes its spec's ``bnorm_sq``: its M is the F-order view of
    b); otherwise it is one dot over ``M.ravel("K")``, a view of a C- or
    F-contiguous M, so the cache copies nothing.
    """

    def __init__(self, M, normM2=None):
        self.M = np.asarray(M, dtype=float)
        if normM2 is None:
            m = self.M.ravel("K")
            normM2 = float(m @ m)
        self.normM2 = normM2
        # the products and trace terms of the last refresh
        self.UtU = self.VtV = self.MtU = self.tr_gram = self.tr_cross = None

    def refresh(self, V, MtU, UtU):
        """Store the products and the two trace terms for the pair (U, V).

        ``MtU`` is ``M^T U`` and ``UtU`` is ``U^T U``, which the caller has
        already formed.  ``tr_gram = tr((U^T U)(V^T V))`` and
        ``tr_cross = tr(U^T M V)``.
        """
        self.UtU = UtU
        self.VtV = V.T @ V
        self.MtU = MtU
        self.tr_gram = float(np.sum(UtU * self.VtV))
        self.tr_cross = float(np.sum(MtU * V))


def snmf_objective_cached(cache: GramCache, spec: ProblemSpec, U, V) -> float:
    """Objective via the trace identity
    ``||U V^T - M||_F^2 = tr((U^T U)(V^T V)) - 2 tr(U^T M V) + ||M||_F^2``,
    never forming U V^T; ``cache`` holds the refreshed products of (U, V).
    """
    return _penalized(spec, U, V, lambda: 0.5 * (
        cache.tr_gram - 2.0 * cache.tr_cross + cache.normM2))


def snmf_spec(M, r, lam, psi=None, phi=None) -> ProblemSpec:
    """Convenience constructor: full-vectorization map with b = vec(M).

    b is a view of an F-contiguous M (as ``data.gen_data`` returns it), not
    a copy; the spec keeps any b without a copy, so M must not change while
    the spec is in use.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"M must be square, got shape {M.shape}")
    amap = operators.FullVectorization(n)
    return ProblemSpec(
        map=amap,
        b=amap.apply(M),
        psi=psi if psi is not None else NonnegIndicator(),
        phi=phi if phi is not None else NonnegIndicator(),
        lam=lam,
        n=n,
        r=r,
    )
