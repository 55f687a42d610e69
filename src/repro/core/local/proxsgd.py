"""FedProx's local update: minibatch SGD on the proximal surrogate.

Solves ``J_n(w) = F_n(w) + (mu/2)||w - w_global||^2`` (eq. (6)) with
plain SGD steps, realized as an SGD step on ``F_n`` followed by the
closed-form quadratic prox — exactly Alg. 1's update rule with the
vanilla-SGD estimator, which is the "FedProx" point in the paper's
design space (variance reduction off, prox on).
"""

from __future__ import annotations

import numpy as np

from repro.core.local.base import LocalSolveResult, LocalSolver
from repro.core.proximal import QuadraticProx
from repro.utils.validation import check_positive


class FedProxLocalSolver(LocalSolver):
    """Proximal SGD on the device surrogate objective."""

    name = "fedprox"

    def __init__(
        self,
        *,
        step_size: float,
        num_steps: int,
        batch_size: int,
        mu: float,
    ) -> None:
        super().__init__(
            step_size=step_size, num_steps=num_steps, batch_size=batch_size
        )
        self.mu = check_positive("mu", mu, strict=False)

    def _solve_stack(self, models, shards, w_global, rngs, kernel):
        """Proximal SGD on a ``(K, D)`` stack.

        The quadratic prox (10) is elementwise, so the whole stack's
        prox step is one broadcast against the shared ``(D,)`` anchor.
        """
        K = len(shards)
        w_global = np.asarray(w_global, dtype=np.float64)
        prox = QuadraticProx(self.mu, w_global)

        start_norms = np.empty(K)
        for k, ((X, y), model) in enumerate(zip(shards, models)):
            start_norms[k] = float(np.linalg.norm(model.gradient(w_global, X, y)))

        W = np.repeat(w_global[None, :], K, axis=0)
        X_batch, y_batch = self._minibatch_buffers(shards)
        G = np.empty_like(W)
        T = np.empty_like(W)
        for _ in range(self.num_steps):
            self._gather_minibatches(shards, rngs, X_batch, y_batch)
            kernel.gradient_stack(W, X_batch, y_batch, out=G)
            # Same ops as ``prox(W - step * G)``: scale, subtract, prox.
            np.multiply(G, self.step_size, out=T)
            np.subtract(W, T, out=W)
            prox.apply_(W, self.step_size)

        results = []
        for k, ((X, y), model) in enumerate(zip(shards, models)):
            w_local = np.array(W[k], dtype=np.float64, copy=True)
            final_grad = model.gradient(w_local, X, y) + prox.gradient(w_local)
            results.append(
                self._record_solve_metrics(
                    LocalSolveResult(
                        w_local=w_local,
                        num_steps=self.num_steps,
                        num_gradient_evaluations=self.num_steps + 2,
                        start_grad_norm=float(start_norms[k]),
                        final_surrogate_grad_norm=float(np.linalg.norm(final_grad)),
                    )
                )
            )
        return results
