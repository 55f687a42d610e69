"""Per-client reference implementations of the local solvers.

A frozen copy of the allocating, one-client-at-a-time inner loops that
FedAvg, FedProx and FedProxVR ran before the stacked loop became their
only implementation, together with the SGD / SVRG / SARAH recursions
they used.  The oracle suite asserts that the stacked loop reproduces
these bit for bit, at ``K = 1`` and inside larger cohorts.

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.local import (
    FedAvgLocalSolver,
    FedProxLocalSolver,
    FedProxVRLocalSolver,
    LocalSolveResult,
)
from repro.core.proximal import QuadraticProx
from repro.exceptions import ConfigurationError


class OracleSGD:
    """``v_t = g_B(w_t)``."""

    def __init__(self) -> None:
        self.num_evaluations = 0

    def start_epoch(self, w0, full_grad):
        return np.array(full_grad, dtype=np.float64, copy=True)

    def estimate(self, model, X_batch, y_batch, w_t):
        self.num_evaluations += 1
        return model.gradient(w_t, X_batch, y_batch)


class OracleSVRG:
    """``v_t = g_B(w_t) - g_B(w_0) + v_0`` (eq. (8b))."""

    def __init__(self) -> None:
        self.num_evaluations = 0
        self._w0: Optional[np.ndarray] = None
        self._v0: Optional[np.ndarray] = None

    def start_epoch(self, w0, full_grad):
        self._w0 = np.array(w0, dtype=np.float64, copy=True)
        self._v0 = np.array(full_grad, dtype=np.float64, copy=True)
        return self._v0.copy()

    def estimate(self, model, X_batch, y_batch, w_t):
        if self._w0 is None or self._v0 is None:
            raise ConfigurationError("estimate() called before start_epoch()")
        self.num_evaluations += 2
        g_now = model.gradient(w_t, X_batch, y_batch)
        g_anchor = model.gradient(self._w0, X_batch, y_batch)
        return g_now - g_anchor + self._v0


class OracleSARAH:
    """``v_t = g_B(w_t) - g_B(w_{t-1}) + v_{t-1}`` (eq. (8a))."""

    def __init__(self) -> None:
        self.num_evaluations = 0
        self._w_prev: Optional[np.ndarray] = None
        self._v_prev: Optional[np.ndarray] = None

    def start_epoch(self, w0, full_grad):
        self._w_prev = np.array(w0, dtype=np.float64, copy=True)
        self._v_prev = np.array(full_grad, dtype=np.float64, copy=True)
        return self._v_prev.copy()

    def estimate(self, model, X_batch, y_batch, w_t):
        if self._w_prev is None or self._v_prev is None:
            raise ConfigurationError("estimate() called before start_epoch()")
        self.num_evaluations += 2
        g_now = model.gradient(w_t, X_batch, y_batch)
        g_prev = model.gradient(self._w_prev, X_batch, y_batch)
        v_t = g_now - g_prev + self._v_prev
        self._w_prev = np.array(w_t, dtype=np.float64, copy=True)
        self._v_prev = v_t
        return v_t.copy()


ORACLE_ESTIMATORS = {"sgd": OracleSGD, "svrg": OracleSVRG, "sarah": OracleSARAH}


def _sample_batch(solver, rng, n):
    size = min(solver.batch_size, n)
    if size == n:
        return np.arange(n)
    return rng.choice(n, size=size, replace=False)


def _surrogate_grad_norm(model, X, y, w, prox):
    grad_j = model.gradient(w, X, y) + prox.gradient(w)
    return float(np.linalg.norm(grad_j))


def fedavg_solve(solver, model, X, y, w_global, rng):
    n = X.shape[0]
    start_loss, start_grad = model.loss_and_gradient(w_global, X, y)
    start_norm = float(np.linalg.norm(start_grad))
    w = np.array(w_global, dtype=np.float64, copy=True)
    evals = 1  # the diagnostic full gradient above
    for _ in range(solver.num_steps):
        idx = _sample_batch(solver, rng, n)
        g = model.gradient(w, X[idx], y[idx])
        evals += 1
        w -= solver.step_size * g
    return LocalSolveResult(
        w_local=w,
        num_steps=solver.num_steps,
        num_gradient_evaluations=evals,
        start_grad_norm=start_norm,
        diagnostics={"start_loss": start_loss},
    )


def fedprox_solve(solver, model, X, y, w_global, rng):
    n = X.shape[0]
    prox = QuadraticProx(solver.mu, w_global)
    start_grad = model.gradient(w_global, X, y)
    start_norm = float(np.linalg.norm(start_grad))
    w = np.array(w_global, dtype=np.float64, copy=True)
    evals = 1
    for _ in range(solver.num_steps):
        idx = _sample_batch(solver, rng, n)
        g = model.gradient(w, X[idx], y[idx])
        evals += 1
        w = prox(w - solver.step_size * g, solver.step_size)
    final_grad = model.gradient(w, X, y) + prox.gradient(w)
    evals += 1
    return LocalSolveResult(
        w_local=w,
        num_steps=solver.num_steps,
        num_gradient_evaluations=evals,
        start_grad_norm=start_norm,
        final_surrogate_grad_norm=float(np.linalg.norm(final_grad)),
    )


def fedproxvr_solve(solver, model, X, y, w_global, rng):
    n = X.shape[0]
    eta = solver.step_size
    prox = QuadraticProx(solver.mu, w_global)
    estimator = ORACLE_ESTIMATORS[solver.estimator.name]()

    # Lines 3-4: anchor and first proximal step.
    w0 = np.array(w_global, dtype=np.float64, copy=True)
    full_grad = model.gradient(w0, X, y)
    start_norm = float(np.linalg.norm(full_grad))
    v = estimator.start_epoch(w0, full_grad)

    iterates: List[np.ndarray] = [w0]
    w = prox(w0 - eta * v, eta)
    iterates.append(w)

    steps_taken = 0
    stopped_early = False
    target = solver.theta * start_norm if solver.theta is not None else None
    # Lines 5-9: tau stochastic proximal VR steps.
    for t in range(1, solver.num_steps + 1):
        idx = _sample_batch(solver, rng, n)
        v = estimator.estimate(model, X[idx], y[idx], w)
        w = prox(w - eta * v, eta)
        iterates.append(w)
        steps_taken = t
        if target is not None and t % solver.check_interval == 0:
            norm_j = _surrogate_grad_norm(model, X, y, w, prox)
            if norm_j <= target:
                stopped_early = True
                break

    evals = 1 + estimator.num_evaluations
    if target is not None:
        evals += steps_taken // solver.check_interval

    # Line 10: iterate selection over {w^0 .. w^tau}.
    if solver.iterate_selection == "random":
        candidates = iterates[:-1] if len(iterates) > 1 else iterates
        w_out = candidates[int(rng.integers(0, len(candidates)))]
    elif solver.iterate_selection == "last":
        w_out = iterates[-1]
    else:  # average
        w_out = np.mean(np.stack(iterates[1:]), axis=0)

    final_norm: Optional[float] = None
    if solver.evaluate_final:
        final_norm = _surrogate_grad_norm(model, X, y, w_out, prox)
        evals += 1

    return LocalSolveResult(
        w_local=np.array(w_out, dtype=np.float64, copy=True),
        num_steps=steps_taken,
        num_gradient_evaluations=evals,
        start_grad_norm=start_norm,
        final_surrogate_grad_norm=final_norm,
        diagnostics={
            "stopped_early": float(stopped_early),
            "estimator_evals": float(estimator.num_evaluations),
        },
    )


def oracle_solve(solver, model, X, y, w_global, rng):
    """The reference per-client result of ``solver.solve(...)``."""
    if isinstance(solver, FedProxVRLocalSolver):
        return fedproxvr_solve(solver, model, X, y, w_global, rng)
    if isinstance(solver, FedProxLocalSolver):
        return fedprox_solve(solver, model, X, y, w_global, rng)
    if isinstance(solver, FedAvgLocalSolver):
        return fedavg_solve(solver, model, X, y, w_global, rng)
    raise TypeError(f"no oracle for {type(solver).__name__}")
