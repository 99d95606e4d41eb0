"""Regularizers with proximal operators.

Each regularizer exposes evaluation, a whole-matrix prox, and a per-column
prox, plus two pieces of metadata used elsewhere: ``kappa`` (the
weak-convexity modulus, 0 for all built-ins since they are convex) and
``column_separable``.  Infeasibility is reported as ``math.inf`` from
``eval``; prox always lands in the domain.

User-defined regularizers can subclass :class:`Regularizer`; nonconvex
choices must declare their own ``kappa``.
"""

from __future__ import annotations

import math

import numpy as np


class Regularizer:
    """Interface: eval + prox + weak-convexity modulus + separability flag."""

    kappa = 0.0
    column_separable = True

    def eval(self, X) -> float:
        raise NotImplementedError

    def prox(self, W, t):
        """Minimizer of ``eval(X) + ||X - W||_F^2 / (2 t)`` over X."""
        raise NotImplementedError

    def prox_column(self, i, w, t):
        """Prox of the i-th column function (identical across columns here)."""
        if not self.column_separable:
            raise NotImplementedError(f"{type(self).__name__} is not column-separable")
        return self.prox(np.asarray(w), t)

    @staticmethod
    def _check_step(t):
        if not t > 0:
            raise ValueError(f"prox step must be positive, got {t}")


class Zero(Regularizer):
    """Identically zero; prox is the identity."""

    def eval(self, X):
        return 0.0

    def prox(self, W, t):
        self._check_step(t)
        return np.array(W, copy=True)

    def __eq__(self, other):
        return isinstance(other, Zero)


class NonnegIndicator(Regularizer):
    """Indicator of the nonnegative orthant; prox is the projection."""

    def eval(self, X):
        return 0.0 if np.all(np.asarray(X) >= 0) else math.inf

    def prox(self, W, t):
        self._check_step(t)
        return np.maximum(W, 0.0)

    def __eq__(self, other):
        return isinstance(other, NonnegIndicator)


class L1(Regularizer):
    """Entrywise l1 penalty ``w * sum |X_ij|``; prox is soft thresholding."""

    def __init__(self, weight):
        if weight < 0:
            raise ValueError(f"l1 weight must be >= 0, got {weight}")
        self.weight = float(weight)

    def eval(self, X):
        return self.weight * float(np.abs(np.asarray(X)).sum())

    def prox(self, W, t):
        self._check_step(t)
        thr = self.weight * t
        W = np.asarray(W)
        return np.sign(W) * np.maximum(np.abs(W) - thr, 0.0)

    def __eq__(self, other):
        return isinstance(other, L1) and other.weight == self.weight


class NonnegPlusL1(Regularizer):
    """Nonnegativity indicator plus a weighted l1 term."""

    def __init__(self, weight):
        if weight < 0:
            raise ValueError(f"l1 weight must be >= 0, got {weight}")
        self.weight = float(weight)

    def eval(self, X):
        X = np.asarray(X)
        if np.any(X < 0):
            return math.inf
        return self.weight * float(X.sum())

    def prox(self, W, t):
        self._check_step(t)
        return np.maximum(np.asarray(W) - self.weight * t, 0.0)

    def __eq__(self, other):
        return isinstance(other, NonnegPlusL1) and other.weight == self.weight


_KINDS = {
    "zero": (Zero, ()),
    "nonneg": (NonnegIndicator, ()),
    "l1": (L1, ("weight",)),
    "nonneg_l1": (NonnegPlusL1, ("weight",)),
}


def from_config(cfg) -> Regularizer:
    """Build a regularizer from a config mapping like {kind: l1, weight: 0.5};
    ``weight`` defaults to 1 and is a number, not a bool, and a field the kind
    does not take is an error."""
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    if not isinstance(cfg, dict):
        raise ValueError(f"a regularizer is a kind name or a mapping, got {cfg!r}")
    kind = cfg.get("kind")
    if kind not in _KINDS:
        raise ValueError(
            f"unknown regularizer kind {kind!r}; choose from {sorted(_KINDS)}"
        )
    cls, fields = _KINDS[kind]
    unknown = sorted(set(cfg) - {"kind", *fields})
    if unknown:
        raise ValueError(f"regularizer kind {kind!r} takes no field(s) {unknown}")
    if isinstance(cfg.get("weight"), bool):
        raise ValueError(f"weight must be a number, got {cfg['weight']!r}")
    return cls(*(float(cfg.get(name, 1.0)) for name in fields))
