"""Instruments that measure the gsmf solver from outside the library.

Nothing here edits ``src/``.  Every instrument replaces a public name that
the solver looks up at call time (a module global, a class attribute, or a
method on the spec's map and regularizer instances) and puts the original
back when its ``with`` block ends.

* :class:`StepTimer` is the only instrument of an untraced run: one timer
  around ``gsmf.solver.step``.  It also keeps each accepted
  ``IterationRecord`` so the benchmark can read relobj and inner-iteration
  counts without asking the solver for anything else.
* :class:`Tracer` records one span (name, start, end, parent) per wrapped
  call.  Spans stay in memory and are reduced to call counts and self time
  when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

import gsmf.diagnostics
import gsmf.objective
import gsmf.solver

_clock = time.perf_counter


class InstrumentError(RuntimeError):
    """An instrument saw something other than what the solver returned."""


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
            if vars(owner).get(attr) is not old:
                raise InstrumentError(f"could not restore {owner!r}.{attr}")
        return False


class StepTimer:
    """Times every call of ``gsmf.solver.step`` and keeps what it returns."""

    def __init__(self):
        self.step_ms = []
        self.records = []

    def install(self, patches):
        step = gsmf.solver.step
        step_ms, records = self.step_ms, self.records

        def timed_step(*args, **kwargs):
            t0 = _clock()
            rec = step(*args, **kwargs)
            step_ms.append((_clock() - t0) * 1e3)
            records.append(rec)
            return rec

        patches.set(gsmf.solver, "step", timed_step)


class Tracer:
    """Span recorder: one ``[name, start, end, parent]`` per wrapped call."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, _clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = _clock()

        return traced

    def install(self, patches, spec):
        """Wrap every layer the solver reaches for this spec.

        ``solver.step`` must already be the installed :class:`StepTimer`, so
        the step span contains the timer and is the parent of every span
        opened inside an outer iteration.  A layer the library no longer has
        stops the run rather than reading 0.
        """
        for owner, attr, name in _layer_targets(spec):
            fn = getattr(owner, attr, None)
            if fn is None:
                raise InstrumentError(f"cannot wrap {name}: the library has no "
                                      f"{getattr(owner, '__name__', owner)!s}.{attr}")
            patches.set(owner, attr, self.wrap(name, fn))

    def summary(self):
        """Call counts and self time (duration minus child spans) by name."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, t0, t1, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (t1 - t0) - inner
        return dict(calls), dict(self_s)


LAYERS = (
    "operators.apply",
    "operators.adjoint",
    "operators.gram_apply",
    "regularizers.prox",
    "regularizers.prox_column",
    "regularizers.eval",
    "objective.z_star",
    "objective.f_lambda",
    "objective.snmf_objective_cached",
    "objective.GramCache.refresh",
    "solver.spectral_norm_sq",
    "diagnostics.stationarity_residual",
    "diagnostics.symmetry_gap",
)


def _layer_targets(spec):
    yield gsmf.solver, "step", "solver.step"
    yield gsmf.solver, "spectral_norm_sq", "solver.spectral_norm_sq"
    yield gsmf.solver, "z_star", "objective.z_star"
    yield gsmf.solver, "f_lambda", "objective.f_lambda"
    yield gsmf.solver, "snmf_objective_cached", "objective.snmf_objective_cached"
    yield getattr(gsmf.objective, "GramCache", None), "refresh", "objective.GramCache.refresh"
    yield gsmf.diagnostics, "stationarity_residual", "diagnostics.stationarity_residual"
    yield gsmf.diagnostics, "symmetry_gap", "diagnostics.symmetry_gap"
    for attr in ("apply", "adjoint", "gram_apply"):
        yield spec.map, attr, f"operators.{attr}"
    regs = [spec.psi] if spec.psi is spec.phi else [spec.psi, spec.phi]
    for reg in regs:
        for attr in ("prox", "prox_column", "eval"):
            yield reg, attr, f"regularizers.{attr}"
