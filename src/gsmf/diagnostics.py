"""Numerical certificates for the model's structural properties.

These checks make the theory computable: a prox-gradient stationarity
surrogate, the symmetry gap, the exact-penalty threshold on lambda, the
objective/potential consistency gap, and a post-hoc audit of the descent
inequalities a correct solver run must satisfy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, asdict

import numpy as np

from .objective import ProblemSpec, RelaxationParams, f_lambda, theta, z_star
from .operators import FullVectorization

log = logging.getLogger("gsmf")


@dataclass
class DiagnosticsReport:
    stationarity_residual: float
    sym_gap: float
    penalty_threshold: float
    # None: the threshold could not be computed (it is then NaN)
    penalty_satisfied: bool | None
    relaxation_gap: float
    # None: the run has no audit snapshots, or no config was given
    descent_violations: int | None

    def to_dict(self):
        return asdict(self)


def spectral_norm_sq(A):
    """lambda_max(A^T A): the top eigenvalue of the r-by-r Gram matrix."""
    A = np.asarray(A)
    return float(np.linalg.eigvalsh(A.T @ A)[-1])


def gradients(spec: ProblemSpec, X, Y, G=None):
    """Partial gradients of the smooth part of the objective.

    ``G Y`` and ``G^T X`` come from the map's misfit operator G: Gram
    products on the full map, sparse products on the sampling map, never
    an n-by-n matrix.  ``G`` may supply
    ``spec.map.misfit_operator(X, Y, spec.b)``.
    """
    X, Y = spec.check_shapes(X, Y)
    if G is None:
        G = spec.map.misfit_operator(X, Y, spec.b)
    D = spec.lam * (X - Y)
    return G @ Y + D, G.T @ X - D


def stationarity_residual(spec: ProblemSpec, X, Y, grads=None) -> float:
    """Prox-gradient mapping norm with unit step.

    Zero exactly at first-order stationary points when both regularizers
    are convex; used as the computable surrogate for the distance to the
    subdifferential.  ``grads`` may supply the pair :func:`gradients`
    returns when the caller already has it.
    """
    gx, gy = gradients(spec, X, Y) if grads is None else grads
    rx = X - spec.psi.prox(X - gx, 1.0)
    ry = Y - spec.phi.prox(Y - gy, 1.0)
    return float(np.linalg.norm(rx)) + float(np.linalg.norm(ry))


def symmetry_gap(X, Y) -> float:
    """Squared Frobenius distance ``||X - Y||_F^2`` between the factors."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    D = X - Y
    return float(np.sum(D * D))


def exact_penalty_threshold(spec: ProblemSpec, X, Y):
    """Smallest lambda forcing X = Y at this stationary point, and whether
    the spec's lambda already exceeds it.

    threshold = (||A* A (X Y^T)||_2 + kappa - lambda_min(A*(b))) / 2.
    Requires Psi = Phi and a symmetric A*(b).
    """
    if spec.psi != spec.phi:
        raise ValueError("the exact-penalty threshold requires Psi = Phi")
    Ab = spec.map.adjoint(spec.b)
    if float(np.max(np.abs(Ab - Ab.T))) > 1e-10 * max(1.0, float(np.max(np.abs(Ab)))):
        raise ValueError("A*(b) must be symmetric for the exact-penalty threshold")
    X, Y = spec.check_shapes(X, Y)
    if isinstance(spec.map, FullVectorization):  # A* A = I; X Y^T = Q_X R_X R_Y^T Q_Y^T
        op_norm = math.sqrt(spectral_norm_sq(
            np.linalg.qr(X, mode="r") @ np.linalg.qr(Y, mode="r").T))
    else:  # A* A (X Y^T) is the sparse misfit operator at b = 0
        from scipy.sparse.linalg import svds  # the sampling map alone loads it

        G0 = spec.map.misfit_operator(X, Y, np.zeros(spec.map.q))
        op_norm = float(np.max(np.abs(G0.data)))  # n = 1 or G0 = 0: ARPACK cannot run
        if spec.n > 1 and op_norm > 0:  # seeded: two calls agree to the last bit
            op_norm = float(svds(G0, k=1, return_singular_vectors=False, rng=0)[0])
    eig_min = float(np.linalg.eigvalsh(Ab)[0])
    threshold = 0.5 * (op_norm + spec.psi.kappa - eig_min)
    return threshold, spec.lam > threshold


def relaxation_consistency(spec: ProblemSpec, params: RelaxationParams,
                           X, Y) -> float:
    """|Theta(X, Y, z_star(X, Y)) - F_lambda(X, Y)|; tiny when the
    partial-isometry and 1/alpha + 1/beta = 1 hypotheses hold."""
    Z = z_star(spec, params, X, Y)
    return abs(theta(spec, params, X, Y, Z) - f_lambda(spec, X, Y))


def scheme_inclusion_residual(spec: ProblemSpec, params: RelaxationParams,
                              scheme, X, Y, Z, U, V, mu, sigma) -> float:
    """Prox-gradient residual of the two block subproblems a scheme solves.

    Zero (up to solver roundoff) when (U, V) genuinely minimizes the
    scheme's U- and V-subproblems at (X, Y, Z) with parameters (mu, sigma).
    The hierarchical scheme is checked column by column in sweep order,
    holding not-yet-updated columns at their previous values.
    """
    # solver imports this module, so its scheme check is imported on call
    from .solver import _check_scheme

    _check_scheme(scheme, spec)
    a, lam = params.alpha, spec.lam
    X, Y = spec.check_shapes(X, Y)
    U, V = spec.check_shapes(U, V, ("U", "V"))
    Z = np.asarray(spec.map._check_matrix(Z, "Z"), dtype=float)

    def residual_full(reg, scheme, W, prev, other, Zmat, step):
        Go = other.T @ other
        if scheme == "prox_linear":
            g = a * (prev @ Go - Zmat @ other)
        else:
            g = a * (W @ Go - Zmat @ other)
        g = g + lam * (W - other) + step * (W - prev)
        return float(np.linalg.norm(W - reg.prox(W - g, 1.0)))

    def residual_hier(reg, W, prev, other, Zmat, step):
        Go = other.T @ other
        ZO = Zmat @ other
        total = 0.0
        for i in range(spec.r):
            mix = prev.copy()
            mix[:, : i + 1] = W[:, : i + 1]
            g = a * (mix @ Go[:, i] - ZO[:, i])
            g = g + lam * (W[:, i] - other[:, i]) + step * (W[:, i] - prev[:, i])
            col = reg.prox_column(i, W[:, i] - g, 1.0)
            total += float(np.linalg.norm(W[:, i] - col))
        return total

    if scheme == "hierarchical":
        ru = residual_hier(spec.psi, U, X, Y, Z, mu)
        rv = residual_hier(spec.phi, V, Y, U, Z.T, sigma)
    else:
        ru = residual_full(spec.psi, scheme, U, X, Y, Z, mu)
        rv = residual_full(spec.phi, scheme, V, Y, U, Z.T, sigma)
    return ru + rv


def descent_audit(result, spec: ProblemSpec, params: RelaxationParams,
                  config) -> int:
    """Re-check every accepted step of an audited run.

    Counts iterations where (a) the stored objective disagrees with a
    recomputation from the snapshots, (b) the acceptance inequality fails,
    or (c) mu and sigma both sat at their caps but the sufficient-descent
    inequality fails.  A correct run returns 0.
    """
    records = result.records
    if any(r.x is None or r.y is None for r in records):
        raise ValueError("descent_audit needs a run produced with audit=True")
    violations = 0
    X_prev, Y_prev = result.x0, result.y0
    # f_prev: the objective recomputed at the previous record (or the start)
    R = f_prev = f_lambda(spec, X_prev, Y_prev)
    f_hist = [R]
    for rec in records:
        f_true = f_lambda(spec, rec.x, rec.y)
        tol = 1e-8 * (1.0 + abs(f_true))
        dU2 = float(np.sum((rec.x - X_prev) ** 2))
        dV2 = float(np.sum((rec.y - Y_prev) ** 2))
        ok = abs(rec.f_value - f_true) <= tol
        # acceptance inequality, from the stored objective and reference
        ok = ok and (rec.f_value - R <= -(config.c / 2.0) * (dU2 + dV2) + tol)
        at_caps = (
            rec.mu_max is not None
            and rec.mu_bar == rec.mu_max
            and not math.isnan(rec.sigma_max or math.nan)
            and rec.sigma_bar == rec.sigma_max
        )
        if at_caps:
            bound = (
                -(rec.mu_bar - params.coef * spectral_norm_sq(Y_prev)) / 2.0 * dU2
                - (rec.sigma_bar - params.coef * spectral_norm_sq(rec.x)) / 2.0 * dV2
            )
            ok = ok and (rec.f_value - f_prev <= bound + tol)
        if not ok:
            violations += 1
        f_hist.append(rec.f_value)
        if config.line_search == "average":
            R = (1.0 - config.p_const) * R + config.p_const * rec.f_value
        else:
            R = max(f_hist[-(config.window + 1):])
        X_prev, Y_prev, f_prev = rec.x, rec.y, f_true
    return violations


def report(spec: ProblemSpec, params: RelaxationParams, result,
           config=None) -> DiagnosticsReport:
    """Aggregate the certificates for a finished run."""
    # checked first: a misshapen factor is an error, not a missing threshold
    X, Y = spec.check_shapes(result.X, result.Y)
    try:
        threshold, satisfied = exact_penalty_threshold(spec, X, Y)
    except ValueError as exc:
        log.warning("exact-penalty threshold not available: %s", exc)
        threshold, satisfied = math.nan, None
    if config is not None and result.records and result.records[0].x is not None:
        violations = descent_audit(result, spec, params, config)
    else:
        violations = None
    return DiagnosticsReport(
        stationarity_residual=stationarity_residual(spec, X, Y),
        sym_gap=symmetry_gap(X, Y),
        penalty_threshold=threshold,
        penalty_satisfied=satisfied,
        relaxation_gap=relaxation_consistency(spec, params, X, Y),
        descent_violations=violations,
    )
