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

from . import operators
from .operators import LinearMap
from .regularizers import Regularizer


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
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.r < 1:
            raise ValueError(f"rank r={self.r} must be >= 1")
        if self.r > self.n:
            raise ValueError(f"rank r={self.r} exceeds n={self.n}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.map.n != self.n:
            raise ValueError(f"map is for n={self.map.n}, spec has n={self.n}")
        if self.b.shape != (self.map.q,):
            raise ValueError(
                f"b has shape {self.b.shape}, expected ({self.map.q},)"
            )
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b has non-finite entries")

    @cached_property
    def bnorm(self) -> float:
        """||b||, the scale of the relative objective and roundoff bounds."""
        return float(np.linalg.norm(self.b))

    def check_shapes(self, X, Y):
        """The factors as float arrays, after checking that both are n-by-r.

        The objective and diagnostics functions read the factors through
        this, so integer factors give the values of float ones."""
        for name, M in (("X", X), ("Y", Y)):
            if np.shape(M) != (self.n, self.r):
                raise ValueError(
                    f"{name} has shape {np.shape(M)}, expected ({self.n}, {self.r})"
                )
        return np.asarray(X, dtype=float), np.asarray(Y, dtype=float)


def _beta(alpha):
    """beta = alpha / (alpha - 1), the solution of 1/alpha + 1/beta = 1."""
    if alpha in (0.0, 1.0):
        raise ValueError("alpha must differ from 0 and 1")
    return alpha / (alpha - 1.0)


@dataclass(frozen=True)
class RelaxationParams:
    """Relaxation scalars alpha and gamma; beta and rho follow from alpha
    through 1/alpha + 1/beta = 1."""

    alpha: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.gamma)):
            raise ValueError(f"alpha and gamma must be finite, got alpha={self.alpha}, "
                             f"gamma={self.gamma}")
        gmin = operators.gamma_min(self.alpha, self.beta)
        if self.gamma < gmin - 1e-12:
            raise ValueError(f"gamma={self.gamma} below admissible minimum {gmin}")

    @property
    def beta(self) -> float:
        return _beta(self.alpha)

    @property
    def rho(self) -> float:
        return operators.rho(self.alpha, self.beta)

    @classmethod
    def from_alpha(cls, alpha, gamma=None):
        """The relaxation at alpha; gamma defaults to its admissible minimum."""
        if gamma is None:
            gamma = operators.gamma_min(alpha, _beta(alpha))
        return cls(alpha=alpha, gamma=float(gamma))


def f_lambda(spec: ProblemSpec, X, Y, misfit=None) -> float:
    """Objective: Psi(X) + Phi(Y) + 0.5 ||A(X Y^T) - b||^2 + lam/2 ||X - Y||_F^2.

    ``misfit`` may supply ``spec.map.misfit(X, Y, spec.b)`` when the caller
    has it; otherwise the map supplies the squared misfit
    (``LinearMap.misfit_norm_sq``), which the full map sums in row blocks
    without an n-by-n temporary.
    """
    X, Y = spec.check_shapes(X, Y)
    reg = spec.psi.eval(X) + spec.phi.eval(Y)
    if math.isinf(reg):
        return math.inf
    if misfit is None:
        fit = spec.map.misfit_norm_sq(X, Y, spec.b)
    else:
        fit = float(misfit @ misfit)
    val = reg + 0.5 * fit
    if spec.lam:
        D = X - Y
        val += 0.5 * spec.lam * float(np.sum(D * D))
    return val


def theta(spec: ProblemSpec, params: RelaxationParams, X, Y, Z) -> float:
    """Potential: the objective with the bilinear term split through Z."""
    X, Y = spec.check_shapes(X, Y)
    Z = np.asarray(Z)
    if Z.shape != (spec.n, spec.n):
        raise ValueError(f"Z has shape {Z.shape}, expected ({spec.n}, {spec.n})")
    reg = spec.psi.eval(X) + spec.phi.eval(Y)
    if math.isinf(reg):
        return math.inf
    S = X @ Y.T - Z
    resid = spec.map.apply(Z) - spec.b
    val = reg + 0.5 * params.alpha * float(np.sum(S * S))
    val += 0.5 * params.beta * float(resid @ resid)
    if spec.lam:
        D = X - Y
        val += 0.5 * spec.lam * float(np.sum(D * D))
    return val


def z_star(spec: ProblemSpec, params: RelaxationParams, X, Y):
    """Stationary auxiliary block:
    ``X Y^T - beta/(alpha+beta) A*(A(X Y^T) - b)``.
    """
    X, Y = spec.check_shapes(X, Y)
    a, b = params.alpha, params.beta
    if a + b == 0:
        raise ZeroDivisionError("alpha + beta must be nonzero")
    Z = X @ Y.T
    spec.map.subtract_adjoint(Z, (b / (a + b)) * (spec.map.apply(Z) - spec.b))
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
    forming U V^T.  ``||M||_F^2`` is one dot over ``M.ravel("K")``, which
    is a view of a C- or F-contiguous M (the solver's M is the F-order view
    of b), so the cache copies nothing.
    """

    def __init__(self, M):
        self.M = np.asarray(M, dtype=float)
        m = self.M.ravel("K")
        self.normM2 = float(m @ m)
        self.UtU = None
        self.VtV = None
        self.MtU = None
        self.UtV = None

    def refresh(self, U, V, MtU):
        """Store the products for the pair (U, V).

        ``MtU`` is ``M^T U``, which the caller has already formed.
        """
        self.UtU = U.T @ U
        self.VtV = V.T @ V
        self.MtU = MtU
        self.UtV = U.T @ V


def snmf_objective_cached(cache: GramCache, spec: ProblemSpec, U, V,
                          lam) -> float:
    """Objective via the trace identity
    ``||U V^T - M||_F^2 = tr((U^T U)(V^T V)) - 2 tr((M^T U) V) + ||M||_F^2``,
    never forming U V^T.
    """
    reg = spec.psi.eval(U) + spec.phi.eval(V)
    if math.isinf(reg):
        return math.inf
    fit = (
        float(np.sum(cache.UtU * cache.VtV))
        - 2.0 * float(np.sum(cache.MtU * V))
        + cache.normM2
    )
    val = reg + 0.5 * fit
    if lam:
        sym = (
            float(np.trace(cache.UtU))
            - 2.0 * float(np.trace(cache.UtV))
            + float(np.trace(cache.VtV))
        )
        val += 0.5 * lam * sym
    return val


def snmf_spec(M, r, lam, psi=None, phi=None) -> ProblemSpec:
    """Convenience constructor: full-vectorization map with b = vec(M).

    b is a view of an F-contiguous M (as ``data.gen_data`` returns it), not
    a copy; the spec keeps any b without a copy, so M must not change while
    the spec is in use.
    """
    from .regularizers import NonnegIndicator

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
        lam=float(lam),
        n=n,
        r=int(r),
    )
