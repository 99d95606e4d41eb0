"""Regularizers with proximal operators.

Each regularizer exposes evaluation, a whole-matrix prox, and a per-column
prox, plus two pieces of metadata used elsewhere: ``kappa`` (the
weak-convexity modulus, 0 for all built-ins since they are convex) and
``column_separable``.  Infeasibility is reported as ``math.inf`` from
``eval``; prox always lands in the domain.

The built-ins are dataclasses whose fields, each a finite real number >= 0,
are the kind's parameters; :data:`KINDS` names them.  User-defined
regularizers can subclass :class:`Regularizer`; nonconvex choices must
declare their own ``kappa``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _checks


class Regularizer:
    """Interface: eval + prox + weak-convexity modulus + separability flag."""

    kappa = 0.0
    column_separable = True

    def __post_init__(self):
        """A dataclass subclass's fields are finite real numbers >= 0."""
        for field in dataclasses.fields(self):
            value = _checks.real(field.name, getattr(self, field.name), 0)
            setattr(self, field.name, value)

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


@dataclass
class Zero(Regularizer):
    """Identically zero; prox is the identity."""

    def eval(self, X):
        return 0.0

    def prox(self, W, t):
        self._check_step(t)
        return np.array(W, copy=True)


@dataclass
class NonnegIndicator(Regularizer):
    """Indicator of the nonnegative orthant; prox is the projection."""

    def eval(self, X):
        return 0.0 if np.all(np.asarray(X) >= 0) else math.inf

    def prox(self, W, t):
        self._check_step(t)
        return np.maximum(W, 0.0)


@dataclass
class L1(Regularizer):
    """Entrywise l1 penalty ``w * sum |X_ij|``; prox is soft thresholding."""

    weight: float = 1.0

    def eval(self, X):
        return self.weight * float(np.abs(np.asarray(X)).sum())

    def prox(self, W, t):
        self._check_step(t)
        thr = self.weight * t
        W = np.asarray(W)
        return np.sign(W) * np.maximum(np.abs(W) - thr, 0.0)


@dataclass
class NonnegPlusL1(Regularizer):
    """Nonnegativity indicator plus a weighted l1 term."""

    weight: float = 1.0

    def eval(self, X):
        X = np.asarray(X)
        if np.any(X < 0):
            return math.inf
        return self.weight * float(X.sum())

    def prox(self, W, t):
        self._check_step(t)
        return np.maximum(np.asarray(W) - self.weight * t, 0.0)


# each built-in regularizer by the kind name a config gives it
KINDS = {"zero": Zero, "nonneg": NonnegIndicator, "l1": L1, "nonneg_l1": NonnegPlusL1}
