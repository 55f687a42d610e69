"""Stochastic gradient estimators: SGD, SVRG (8b), SARAH (8a).

An estimator is stateful across one *inner loop* (one global iteration
``s``) of a stack of ``K`` clients: :meth:`~GradientEstimator.start_epoch`
receives the ``(K, D)`` anchor stack and its full local gradients
(Alg. 1 lines 3-4), then :meth:`~GradientEstimator.estimate` produces
the ``(K, D)`` stack of ``v_t`` for each gathered minibatch stack.  A
single device's inner loop is the stack of one.

The estimators evaluate the minibatch gradients, supplied by a
:class:`repro.models.batched.BatchKernel`, at whichever points their
recursion requires:

* SGD    — ``v_t = g_B(w_t)``                      (1 evaluation/step)
* SVRG   — ``v_t = g_B(w_t) - g_B(w_0) + v_0``     (2 evaluations/step)
* SARAH  — ``v_t = g_B(w_t) - g_B(w_{t-1}) + v_{t-1}`` (2 evaluations/step)

The recursions are elementwise, so row ``k`` of every update is
exactly the arithmetic of client ``k`` alone.  ``num_evaluations``
counts minibatch gradient evaluations *per client* (the same number for
every row), which is the computation-delay unit ``d_cmp`` of §4.3.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


class GradientEstimator(ABC):
    """Stateful inner-loop gradient estimator over a ``(K, D)`` stack.

    ``estimate`` returns a reused buffer, valid until the next
    ``estimate`` call: the solvers consume ``v_t`` before sampling the
    next minibatch.
    """

    #: human-readable identifier used by factories and result records
    name: str = "abstract"
    #: attributes holding one row per client, kept in step by :meth:`keep_rows`
    _row_state: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.num_evaluations = 0

    @abstractmethod
    def start_epoch(self, W0: np.ndarray, full_grads: np.ndarray) -> np.ndarray:
        """Begin K inner loops at anchor stack ``W0`` with ``V_0 = full_grads``.

        Returns ``V_0`` (a defensive copy — the caller may mutate it).
        """

    @abstractmethod
    def estimate(
        self,
        kernel,
        X_batch: np.ndarray,
        y_batch: np.ndarray,
        W_t: np.ndarray,
    ) -> np.ndarray:
        """Produce the ``(K, D)`` stack of ``v_t`` for the minibatch stack."""

    def keep_rows(self, rows: Sequence[int]) -> None:
        """Keep only the clients ``rows`` (the others stopped early)."""
        for attr in self._row_state:
            value = getattr(self, attr)
            if value is not None:
                setattr(self, attr, value[rows])

    def reset_counter(self) -> None:
        """Zero the gradient-evaluation counter."""
        self.num_evaluations = 0


class SGDEstimator(GradientEstimator):
    """Vanilla stochastic gradient: ``v_t = g_B(w_t)`` (no reduction)."""

    name = "sgd"
    _row_state = ("_g",)

    def __init__(self) -> None:
        super().__init__()
        self._g: Optional[np.ndarray] = None

    def start_epoch(self, W0, full_grads):
        self._g = np.empty_like(np.asarray(full_grads, dtype=np.float64))
        return np.array(full_grads, dtype=np.float64, copy=True)

    def estimate(self, kernel, X_batch, y_batch, W_t):
        self.num_evaluations += 1
        if self._g is None or self._g.shape != W_t.shape:
            self._g = np.empty_like(W_t)
        return kernel.gradient_stack(W_t, X_batch, y_batch, out=self._g)


class SVRGEstimator(GradientEstimator):
    """Variance-reduced gradient anchored at each row's ``w_0`` (eq. (8b)).

    ``estimate`` computes ``(g_now - g_anchor) + v_0`` into reused
    buffers.
    """

    name = "svrg"
    _row_state = ("_W0", "_V0", "_g_now", "_g_anchor")

    def __init__(self) -> None:
        super().__init__()
        self._W0: Optional[np.ndarray] = None
        self._V0: Optional[np.ndarray] = None
        self._g_now: Optional[np.ndarray] = None
        self._g_anchor: Optional[np.ndarray] = None

    def start_epoch(self, W0, full_grads):
        self._W0 = np.array(W0, dtype=np.float64, copy=True)
        self._V0 = np.array(full_grads, dtype=np.float64, copy=True)
        self._g_now = np.empty_like(self._V0)
        self._g_anchor = np.empty_like(self._V0)
        return self._V0.copy()

    def estimate(self, kernel, X_batch, y_batch, W_t):
        if self._W0 is None or self._V0 is None:
            raise ConfigurationError("estimate() called before start_epoch()")
        self.num_evaluations += 2
        g_now = kernel.gradient_stack(W_t, X_batch, y_batch, out=self._g_now)
        g_anchor = kernel.gradient_stack(
            self._W0, X_batch, y_batch, out=self._g_anchor
        )
        np.subtract(g_now, g_anchor, out=g_now)
        np.add(g_now, self._V0, out=g_now)
        return g_now


class SARAHEstimator(GradientEstimator):
    """Recursive stochastic gradient (eq. (8a)).

    Unlike SVRG, the control variate tracks the *previous iterate*, so
    the estimator keeps ``(w_{t-1}, v_{t-1})`` per row and updates them
    on every call.  Buffers rotate: the stack holding ``v_t`` becomes
    the retained ``v_{t-1}`` of the next step, and the retired
    ``v_{t-2}`` buffer is recycled for the next gradient evaluation.
    """

    name = "sarah"
    _row_state = ("_W_prev", "_V_prev", "_g_now", "_g_prev")

    def __init__(self) -> None:
        super().__init__()
        self._W_prev: Optional[np.ndarray] = None
        self._V_prev: Optional[np.ndarray] = None
        self._g_now: Optional[np.ndarray] = None
        self._g_prev: Optional[np.ndarray] = None

    def start_epoch(self, W0, full_grads):
        self._W_prev = np.array(W0, dtype=np.float64, copy=True)
        self._V_prev = np.array(full_grads, dtype=np.float64, copy=True)
        self._g_now = np.empty_like(self._V_prev)
        self._g_prev = np.empty_like(self._V_prev)
        return self._V_prev.copy()

    def estimate(self, kernel, X_batch, y_batch, W_t):
        if self._W_prev is None or self._V_prev is None:
            raise ConfigurationError("estimate() called before start_epoch()")
        self.num_evaluations += 2
        g_now = kernel.gradient_stack(W_t, X_batch, y_batch, out=self._g_now)
        g_prev = kernel.gradient_stack(
            self._W_prev, X_batch, y_batch, out=self._g_prev
        )
        np.subtract(g_now, g_prev, out=g_now)
        np.add(g_now, self._V_prev, out=g_now)  # g_now holds v_t
        np.copyto(self._W_prev, W_t)
        # Rotate: v_t becomes the retained v_prev; the old v_prev
        # buffer is dead and becomes the next step's g_now scratch.
        self._V_prev, self._g_now = g_now, self._V_prev
        return g_now


_ESTIMATORS = {
    "sgd": SGDEstimator,
    "svrg": SVRGEstimator,
    "sarah": SARAHEstimator,
}


def make_estimator(name: str) -> GradientEstimator:
    """Instantiate an estimator by name (``sgd``/``svrg``/``sarah``)."""
    try:
        return _ESTIMATORS[str(name).lower()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown estimator {name!r}; choices: {sorted(_ESTIMATORS)}"
        ) from None
