"""Personalized proximal local solver (pFedMe-style extension).

A natural extension of the paper's machinery (and the direction its
authors later took with pFedMe): instead of treating the proximal
surrogate as a means to approximate the global minimizer, *keep* each
device's proximal solution as its personalized model

``theta_n(w) = argmin_theta F_n(theta) + (mu/2)||theta - w||^2``

(the Moreau-envelope personalization), while the global model tracks
the average of the personalized solutions.  The inner solve reuses the
identical proximal-VR loop as FedProxVR, so this solver is ~30 lines on
top of :class:`FedProxVRLocalSolver` — demonstrating the composability
the library is designed around.

The server-visible ``w_local`` is a convex combination
``w - lr_global * mu * (w - theta_n)`` (the pFedMe outer update written
as a local model so the standard weighted-average server applies).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.local.base import LocalSolveResult, LocalSolver
from repro.core.local.proxvr import FedProxVRLocalSolver
from repro.models.base import Model
from repro.utils.validation import check_in_range, check_positive


class PersonalizedProxLocalSolver(LocalSolver):
    """Moreau-envelope personalization on top of the FedProxVR inner loop.

    Parameters
    ----------
    mu:
        Personalization strength: large ``mu`` ties personalized models
        to the global one; small ``mu`` lets them specialize.
    global_lr:
        The outer step ``lr_global`` applied to ``mu (w - theta_n)``;
        ``global_lr * mu <= 1`` keeps the implied local model a convex
        combination of ``w`` and ``theta_n``.
    """

    name = "pfedme"

    def __init__(
        self,
        *,
        step_size: float,
        num_steps: int,
        batch_size: int,
        mu: float,
        global_lr: float = 1.0,
        estimator: str = "svrg",
    ) -> None:
        super().__init__(
            step_size=step_size, num_steps=num_steps, batch_size=batch_size
        )
        self.mu = check_positive("mu", mu)
        self.global_lr = check_positive("global_lr", global_lr)
        check_in_range("global_lr * mu", self.global_lr * self.mu, 0.0, 1.0,
                       inclusive="right")
        self._inner = FedProxVRLocalSolver(
            step_size=step_size,
            num_steps=num_steps,
            batch_size=batch_size,
            mu=mu,
            estimator=estimator,
            iterate_selection="last",
            evaluate_final=True,
        )
        self.last_personalized: Optional[np.ndarray] = None

    def solve(
        self,
        model: Model,
        X: np.ndarray,
        y: np.ndarray,
        w_global: np.ndarray,
        rng: np.random.Generator,
    ) -> LocalSolveResult:
        inner = self._inner.solve(model, X, y, w_global, rng)
        theta_n = inner.w_local
        self.last_personalized = theta_n
        # Outer update w <- w - lr * mu * (w - theta_n), expressed as a
        # local model so the standard aggregation rule applies.
        step = self.global_lr * self.mu
        w_local = (1.0 - step) * np.asarray(w_global, dtype=np.float64) + step * theta_n
        return LocalSolveResult(
            w_local=w_local,
            num_steps=inner.num_steps,
            num_gradient_evaluations=inner.num_gradient_evaluations,
            start_grad_norm=inner.start_grad_norm,
            final_surrogate_grad_norm=inner.final_surrogate_grad_norm,
            diagnostics={
                **inner.diagnostics,
                "personalized_distance": float(
                    np.linalg.norm(theta_n - np.asarray(w_global))
                ),
            },
        )

    def personalized_model(
        self,
        model: Model,
        X: np.ndarray,
        y: np.ndarray,
        w_global: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """The device's personalized parameters ``theta_n(w_global)``."""
        return self._inner.solve(model, X, y, w_global, rng).w_local
