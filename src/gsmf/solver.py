"""Alternating solver with nonmonotone line search.

Each outer iteration: (1) refresh the auxiliary block Z in closed form,
(2) produce candidates (U, V) by one of three block-update schemes under
proximal parameters (mu, sigma), backtracking on those parameters until the
nonmonotone acceptance test holds, (3) commit and update the reference
value R: ``R <- (1 - p_const) R + p_const f`` (average, the default) or
the largest of the last ``window + 1`` accepted values (max).

The backtracking caps mu at ``mu_max = (alpha + 2 gamma rho) ||Y||^2 + c``;
once the cap is hit, only sigma is escalated (with its own cap from ||U||)
and only V is recomputed.  With the caps in place the acceptance test is
guaranteed to pass within a computable inner-iteration budget; exceeding
that budget signals an implementation bug and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks, diagnostics
# a global of this module: step and begin_outer look it up here, where the
# benchmark's tracer wraps it as solver.spectral_norm_sq
from .diagnostics import spectral_norm_sq
from .objective import (
    GramCache,
    ProblemSpec,
    RelaxationParams,
    f_lambda,
    snmf_objective_cached,
    z_star,
)
from .operators import FullVectorization, _mul_thin
from .regularizers import Zero

SCHEMES = ("proximal", "prox_linear", "hierarchical")
LINE_SEARCHES = ("average", "max")
_EPS = float(np.finfo(float).eps)

STATUS_CONVERGED = "Converged"
STATUS_ITER_LIMIT = "IterLimit"
STATUS_TIME_LIMIT = "TimeLimit"


class ConfigError(ValueError):
    """An unsupported or inconsistent solver configuration."""


class AlgorithmInvariantError(RuntimeError):
    """A theoretical invariant of the method failed at runtime."""


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = "hierarchical"
    line_search: str = "average"
    p_const: float = 0.2
    window: int = 3
    mu_min: float = 1.0
    sigma_min: float = 1.0
    sigma_max0: float = 1e6
    tau: float = 4.0
    c: float = 1e-4
    tol: float = 1e-9
    consec_required: int = 3
    max_iters: int = 1_000_000
    max_time_sec: float = math.inf
    seed: int = 0
    audit: bool = False

    def __post_init__(self):
        for name, least in (("window", 1), ("consec_required", 1), ("max_iters", 0),
                            ("seed", 0)):
            object.__setattr__(self, name, _checks.integer(
                name, getattr(self, name), least, error=ConfigError))
        # inf means "no limit" for sigma's cap and the time budget, and for
        # tol, where every change counts as small
        no_limit = ("sigma_max0", "max_time_sec", "tol")
        for name in ("p_const", "mu_min", "sigma_min", "sigma_max0", "tau", "c",
                     "tol", "max_time_sec"):
            least = 0 if name == "max_time_sec" else -math.inf
            object.__setattr__(self, name, _checks.real(
                name, getattr(self, name), least, inf=name in no_limit,
                error=ConfigError))
        for name in ("mu_min", "c", "tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        object.__setattr__(self, "audit",
                           _checks.flag("audit", self.audit, error=ConfigError))
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.line_search not in LINE_SEARCHES:
            raise ConfigError(
                f"unknown line_search {self.line_search!r}; choose from {LINE_SEARCHES}"
            )
        if not (0 < self.sigma_min < self.sigma_max0):
            raise ConfigError("need 0 < sigma_min < sigma_max0")
        if self.tau <= 1:
            raise ConfigError("tau must exceed 1")
        if not (0 < self.p_const <= 1):
            raise ConfigError("p_const must lie in (0, 1]")


@dataclass
class IterationRecord:
    k: int
    elapsed_sec: float
    f_value: float
    ref_value: float
    relobj: float
    sym_gap: float
    stationarity_residual: float
    mu_bar: float
    sigma_bar: float
    inner_iterations: int
    # audit-mode extras (small n only)
    mu_max: float | None = None
    sigma_max: float | None = None
    x: np.ndarray | None = None
    y: np.ndarray | None = None


@dataclass
class SolverState:
    k: int
    X: np.ndarray
    Y: np.ndarray
    R: float
    mu_bar: float
    sigma_bar: float
    f_value: float
    # the last window + 1 accepted values, each as (f, its roundoff error)
    history: list
    # running estimate of the absolute roundoff error carried by R
    R_err: float = 0.0
    elapsed: float = 0.0


@dataclass
class SolveResult:
    X: np.ndarray
    Y: np.ndarray
    records: list
    status: str
    x0: np.ndarray
    y0: np.ndarray


class _Kernel:
    """Per-solve scratch: the products the block updates and the objective read.

    On the full vectorization (symmetric NMF) it works matrix-free through
    the target M and the Gram cache, never forming X Y^T or Z.  On any other
    map it forms the dense Z once per outer iteration, for Z Y alone; the V
    block reads ``Z^T U = Y (X^T U) - bz G^T U`` (``params.bz``) from the
    map's misfit operator G at (X, Y); ``G^T U`` costs O(|Omega| r) on
    the sampling map.  One slot hands an outer iteration's start product
    over from the last: :meth:`gradients` records the accepted pair with
    the one product it formed there (M V on the full map, G on any other),
    and :meth:`begin_outer` reuses it as M Y or G.  Every n-by-n times n-by-r
    product (most of the time of an outer iteration) goes through
    ``_mul_thin``, its fastest orientation.
    """

    def __init__(self, spec: ProblemSpec, params: RelaxationParams,
                 config: SolverConfig):
        self.spec = spec
        self.params = params
        self.config = config
        self.f_err = 0.0
        self.az, self.bz = params.az, params.bz
        # (U, V, P) for the last accepted pair and the product gradients
        # formed there: P = M V on the full map, G on any other
        self._accepted = None
        # sigma-only retries reuse the last U's U^T U and Z^T U
        self._U = self._UtU = self._ZtU = None
        # off the full map: the last candidate's misfit, Z and G at (X, Y)
        self._misfit = self.Z = self.G = None
        self.cache = (GramCache(spec.map.adjoint(spec.b))
                      if isinstance(spec.map, FullVectorization) else None)
        _check_scheme(config.scheme, spec)

    # -- outer-iteration setup -------------------------------------------

    def begin_outer(self, X, Y):
        self.X = X
        self.Y = Y
        self.Gy = Y.T @ Y
        self._U = None
        at = self._accepted
        # the product gradients formed at the accepted pair, if (X, Y) is it
        held = at[2] if at is not None and at[0] is X and at[1] is Y else None
        if self.cache is not None:
            # Z Y without forming Z:  Z = az * X Y^T + bz * M
            MY = _mul_thin(self.cache.M, Y) if held is None else held
            self.ZY = self.az * (X @ self.Gy) + self.bz * MY
        else:
            # Z is read only here, but it is dropped only now, just before
            # z_star forms the next: the new Z then takes the freed block.
            # Freed earlier, the step's small arrays split that block and
            # the next Z grows the heap by an n-by-n array.  The last
            # step's G goes with it; the slot holds the accepted pair's.
            self.Z = self.G = None
            self.Z = z_star(self.spec, self.params, X, Y)
            self.ZY = _mul_thin(self.Z, Y)
            # only the first step builds G, after Z for the same reason
            self.G = (self.spec.map.misfit_operator(X, Y, self.spec.b)
                      if held is None else held)
        self.ynorm2 = spectral_norm_sq(Y)

    # -- blocks -------------------------------------------------------------

    def update_u(self, mu):
        return _block(self.config.scheme, self.spec, self.params.alpha, "U",
                      self.spec.psi, self.X, self.Y, self.Gy, self.ZY, mu, trial=True)

    def update_v(self, U, sigma):
        if U is not self._U:
            self._U = U
            self._UtU = U.T @ U
            if self.cache is not None:
                self._MtU = _mul_thin(self.cache.M.T, U)
                self._ZtU = self.az * (self.Y @ (self.X.T @ U)) + self.bz * self._MtU
            else:
                self._ZtU = self.Y @ (self.X.T @ U) - self.bz * (self.G.T @ U)
        return _block(self.config.scheme, self.spec, self.params.alpha, "V",
                      self.spec.phi, self.Y, U, self._UtU, self._ZtU, sigma, trial=True)

    # -- stationarity --------------------------------------------------------

    def gradients(self, U, V):
        """Gradients at the accepted pair from the step's own products.

        On the matrix-free path ``M^T U`` comes from ``update_v`` and the
        Gram matrices from the cache :meth:`objective` refreshed for
        (U, V); the one new product is ``M V``.  Off the full map they come
        from the misfit operator G, built from the misfit :meth:`objective`
        formed for (U, V).  The pair and that one product are recorded for
        the next :meth:`begin_outer`, which reuses the product.
        """
        if self.cache is None:
            G = self.spec.map.misfit_operator(U, V, self.spec.b, misfit=self._misfit)
            self._accepted = U, V, G
            return diagnostics.gradients(self.spec, U, V, G=G)
        cache = self.cache
        MV = _mul_thin(cache.M, V)
        self._accepted = U, V, MV
        D = self.spec.lam * (U - V)
        return U @ cache.VtV - MV + D, V @ cache.UtU - cache.MtU - D

    # -- objective ----------------------------------------------------------

    def objective(self, U, V):
        """Objective value plus an estimate of its absolute roundoff error.

        The Gram-trace formula cancels catastrophically near an exact
        factorization (its error floor is ~eps times the trace magnitudes),
        so once the value falls near that floor it is recomputed directly:
        the residual-based form loses accuracy only in proportion to the
        residual itself.  The line search consumes the error estimate
        (``f_err``) as its acceptance slack.
        """
        if self.cache is not None:
            cache = self.cache
            cache.refresh(V, self._MtU, self._UtU)
            scale = abs(cache.tr_gram) + 2.0 * abs(cache.tr_cross) + cache.normM2
            val = snmf_objective_cached(cache, self.spec, U, V)
            if abs(val) > 1e5 * _EPS * scale:
                self.f_err = 64.0 * _EPS * scale
                return val
            val = f_lambda(self.spec, U, V)
        else:
            # kept for the residual's misfit operator in gradients, if
            # (U, V) is accepted
            self._misfit = self.spec.map.misfit(U, V, self.spec.b)
            val = f_lambda(self.spec, U, V, misfit=self._misfit)
        self.f_err = _roundoff_bound(val, self.spec.bnorm)
        return val


def _check_scheme(scheme, spec):
    """Reject an unknown scheme, or one the problem's regularizers do not admit."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if scheme == "proximal" and not (isinstance(spec.psi, Zero)
                                     and isinstance(spec.phi, Zero)):
        raise ConfigError("the proximal scheme has a closed form only for the zero "
                          "regularizer; use prox_linear or hierarchical instead")
    if scheme == "hierarchical" and not (spec.psi.column_separable
                                         and spec.phi.column_separable):
        raise ConfigError("hierarchical scheme needs column-separable regularizers")


def _block(scheme, spec, alpha, name, reg, prev, other, G, ZO, step, trial=False):
    """One block update; U and V are the same subproblem with roles swapped.

    The block W replaces ``prev`` and couples to ``other`` through
    ``(alpha/2)||W other^T - Z||^2 + (lam/2)||W - other||^2`` plus the
    proximal term ``(step/2)||W - prev||^2``; ``G = other^T other`` and
    ``ZO = Z other`` (``Z^T other`` for V).  The U block passes
    ("U", Psi, X, Y, Z Y, mu) and the V block ("V", Phi, Y, U, Z^T U, sigma).
    A hierarchical column curvature <= 0 (only alpha < 0 gives one) is an
    error, or with ``trial`` a rejected trial returned as None, after which
    the line search raises the step.
    """
    lam = spec.lam
    if scheme == "prox_linear":
        grad = alpha * (prev @ G - ZO)
        t = 1.0 / (lam + step)
        return reg.prox((lam * other + step * prev - grad) * t, t)
    if scheme == "proximal":
        A = alpha * G + (lam + step) * np.eye(spec.r)
        rhs = alpha * ZO + lam * other + step * prev
        return _solve_rxr(A, rhs)
    # hierarchical: Gauss-Seidel sweep over the columns
    W = prev.copy()
    for i in range(spec.r):
        d = alpha * G[i, i] + lam + step
        if d <= 0:
            if trial:
                return None
            raise AlgorithmInvariantError(
                f"nonpositive column curvature {d} in hierarchical {name}-update"
            )
        p = ZO[:, i] - (W @ G[:, i] - W[:, i] * G[i, i])
        w = (alpha * p + lam * other[:, i] + step * prev[:, i]) / d
        W[:, i] = reg.prox_column(i, w, 1.0 / d)
    return W


def _roundoff_bound(f, bnorm):
    """Absolute roundoff error of an objective value f evaluated directly."""
    if math.isinf(f):
        return 0.0
    return 8.0 * _EPS * (1.0 + abs(f) + bnorm * math.sqrt(2.0 * max(f, 0.0)))


def _solve_rxr(A, rhs):
    """Solve W A = rhs for W given a symmetric r-by-r system matrix A."""
    try:
        return np.linalg.solve(A, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise AlgorithmInvariantError(f"singular r-by-r block system: {exc}") from exc


def update_u(scheme, spec, params, X_k, Y_k, Z_k, mu):
    """Candidate U block for one scheme, given the auxiliary block Z_k."""
    if _checks.real("mu", mu) <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    _check_scheme(scheme, spec)
    X, Y = spec.check_shapes(X_k, Y_k, ("X_k", "Y_k"))
    ZY = _mul_thin(np.asarray(spec.map._check_matrix(Z_k, "Z_k"), dtype=float), Y)
    return _block(scheme, spec, params.alpha, "U", spec.psi, X, Y, Y.T @ Y, ZY, mu)


def update_v(scheme, spec, params, U, Y_k, Z_k, sigma):
    """Candidate V block for one scheme, given U and the auxiliary block Z_k."""
    if _checks.real("sigma", sigma) <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    _check_scheme(scheme, spec)
    U, Y = spec.check_shapes(U, Y_k, ("U", "Y_k"))
    ZtU = _mul_thin(np.asarray(spec.map._check_matrix(Z_k, "Z_k"), dtype=float).T, U)
    return _block(scheme, spec, params.alpha, "V", spec.phi, Y, U, U.T @ U, ZtU, sigma)


def init_state(spec: ProblemSpec, config: SolverConfig, X0=None, Y0=None):
    """Build the initial solver state; entries of a missing start are drawn
    i.i.d. uniform(0, 1) from the seeded generator."""
    rng = np.random.default_rng(config.seed)
    if X0 is None:
        X0 = rng.uniform(size=(spec.n, spec.r))
    if Y0 is None:
        Y0 = rng.uniform(size=(spec.n, spec.r))
    X0, Y0 = spec.check_shapes(X0, Y0, ("X0", "Y0"))
    for name, W in (("X0", X0), ("Y0", Y0)):
        if not np.all(np.isfinite(W)):
            raise ValueError(f"{name} has non-finite entries")
    f0 = f_lambda(spec, X0, Y0)
    if math.isinf(f0):
        raise ValueError("infeasible start: objective is infinite at (X0, Y0)")
    err0 = _roundoff_bound(f0, spec.bnorm)
    return SolverState(
        k=0, X=X0, Y=Y0, R=f0, mu_bar=1.0, sigma_bar=1.0,
        f_value=f0, history=[(f0, err0)], R_err=err0,
    )


def _work_seconds(n, r, inner):
    """Deterministic estimate of one outer iteration's solver time.

    The trace (and therefore elapsed_sec and the max_time_sec budget) must
    be a pure function of (seed, config, inputs); wall-clock measurements
    would break byte-for-byte reproducibility.  The model charges the
    dominant dense products per inner iteration plus a fixed per-call
    overhead, at a nominal 1 Gflop/s.
    """
    flops = 2.0 * n * n * r + inner * (2.0 * n * n * r + 8.0 * n * r * r)
    return 1.5e-4 * inner + flops * 1e-9


def inner_iteration_budget(mu_max, mu_min, tau):
    """Inner-iteration budget from the mu escalations alone.

    :func:`step` starts from this and raises it by the sigma escalations
    still needed once mu reaches its cap and sigma_max is known.
    """
    n_mu = math.floor((math.log(mu_max) - math.log(mu_min)) / math.log(tau) + 2.0)
    return 2 * max(1, n_mu) + 2


def _escalations(sigma, sigma_max, tau):
    """Inner iterations left until ``sigma <- min(tau sigma, sigma_max)``
    reaches its cap; the last of them runs at the cap."""
    count = 1
    sigma = min(tau * sigma, sigma_max)
    while sigma < sigma_max:
        sigma = min(tau * sigma, sigma_max)
        count += 1
    return count


def step(state: SolverState, spec: ProblemSpec, params: RelaxationParams,
         config: SolverConfig, _kernel=None):
    """Run one outer iteration in place; returns the IterationRecord."""
    kern = _kernel if _kernel is not None else _Kernel(spec, params, config)
    X, Y = state.X, state.Y
    kern.begin_outer(X, Y)
    mu_max = params.coef * kern.ynorm2 + config.c
    mu = max(0.1 * state.mu_bar, config.mu_min)
    sigma = min(max(0.1 * state.sigma_bar, config.sigma_min), config.sigma_max0)
    budget = inner_iteration_budget(mu_max, config.mu_min, config.tau)
    sigma_max = math.nan
    inner = 0
    recompute_u = True
    U = None
    while True:
        if recompute_u:
            mu = min(mu, mu_max)
            U = kern.update_u(mu)
        # None: a hierarchical block at a column curvature <= 0, a rejected
        # trial; at its cap the curvature is at least lam + c > 0
        V = None if U is None else kern.update_v(U, sigma)
        if V is None and (mu == mu_max if U is None else sigma == sigma_max):
            raise AlgorithmInvariantError(
                "nonpositive column curvature in a hierarchical update at its cap")
        inner += 1
        if inner > budget:
            raise AlgorithmInvariantError(
                f"line search exceeded its inner-iteration budget ({budget}) "
                f"at outer iteration {state.k}"
            )
        if V is not None:
            f_new = kern.objective(U, V)
            dU2 = float(np.sum((U - X) ** 2))
            dV2 = float(np.sum((V - Y) ** 2))
            # slack at the roundoff floor of the two evaluations being compared:
            # near a stationary point the guaranteed decrease is below what
            # floating point resolves, and rejecting would loop to the budget
            accept_slack = state.R_err + kern.f_err + 1e-15 * (1.0 + abs(state.R))
            if not math.isinf(f_new) and (
                f_new - state.R <= -(config.c / 2.0) * (dU2 + dV2) + accept_slack
            ):
                break
        if mu == mu_max:
            if math.isnan(sigma_max):
                sigma_max = params.coef * spectral_norm_sq(U) + config.c
                budget = max(budget, inner + _escalations(
                    sigma, sigma_max, config.tau))
            sigma = min(config.tau * sigma, sigma_max)
            recompute_u = False
        else:
            mu = config.tau * mu
            sigma = config.tau * sigma
            recompute_u = True

    state.X, state.Y = U, V
    state.mu_bar, state.sigma_bar = mu, sigma
    state.f_value = f_new
    state.history.append((f_new, kern.f_err))
    del state.history[: -(config.window + 1)]
    if config.line_search == "average":
        p = config.p_const
        R_new = (1.0 - p) * state.R + p * f_new
        # average-mode monotonicity invariant: allow only rounding slack
        slack = 1e-12 * (1.0 + abs(state.R)) + accept_slack
        if R_new > state.R + slack:
            raise AlgorithmInvariantError("reference value increased in average mode")
        if f_new > R_new + slack:
            raise AlgorithmInvariantError("objective exceeded the reference value")
        state.R_err = (1.0 - p) * state.R_err + p * kern.f_err
    else:
        R_new = max(f for f, _ in state.history)
        state.R_err = max(err for _, err in state.history)
    state.R = R_new
    state.k += 1
    state.elapsed += _work_seconds(spec.n, spec.r, inner)

    rec = IterationRecord(
        k=state.k,
        elapsed_sec=state.elapsed,
        f_value=f_new,
        ref_value=R_new,
        relobj=(math.sqrt(max(2.0 * f_new, 0.0)) / spec.bnorm
                if spec.bnorm else math.nan),
        sym_gap=diagnostics.symmetry_gap(U, V),
        stationarity_residual=diagnostics.stationarity_residual(
            spec, U, V, grads=kern.gradients(U, V)),
        mu_bar=mu,
        sigma_bar=sigma,
        inner_iterations=inner,
    )
    if config.audit:
        rec.mu_max = mu_max
        rec.sigma_max = sigma_max
        rec.x = U.copy()
        rec.y = V.copy()
    return rec


def solve(spec: ProblemSpec, params: RelaxationParams, config: SolverConfig,
          X0=None, Y0=None) -> SolveResult:
    """Iterate :func:`step` until the relative-change rule holds for
    ``consec_required`` consecutive iterations or a budget runs out."""
    state = init_state(spec, config, X0, Y0)
    kern = _Kernel(spec, params, config)
    x0, y0 = state.X.copy(), state.Y.copy()
    records = []
    status = STATUS_ITER_LIMIT
    f_prev = state.f_value
    consec_small = 0
    while True:
        if state.elapsed >= config.max_time_sec:
            status = STATUS_TIME_LIMIT
            break
        if state.k >= config.max_iters:
            status = STATUS_ITER_LIMIT
            break
        rec = step(state, spec, params, config, _kernel=kern)
        records.append(rec)
        rel_change = abs(state.f_value - f_prev) / (state.f_value + 1.0)
        f_prev = state.f_value
        consec_small = consec_small + 1 if rel_change <= config.tol else 0
        if consec_small >= config.consec_required:
            status = STATUS_CONVERGED
            break
    return SolveResult(
        X=state.X, Y=state.Y, records=records, status=status, x0=x0, y0=y0
    )
