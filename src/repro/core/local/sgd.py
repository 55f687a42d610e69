"""FedAvg's local update: plain minibatch SGD on ``F_n`` (McMahan et al.)."""

from __future__ import annotations

import numpy as np

from repro.core.local.base import LocalSolveResult, LocalSolver


class FedAvgLocalSolver(LocalSolver):
    """``num_steps`` steps of ``w <- w - eta g_B(w)`` from the global model.

    This is the SGD-based baseline the paper compares against in every
    experiment; it uses the same ``eta = 1/(beta L)`` step size so the
    comparison isolates the estimator/prox design.
    """

    name = "fedavg"

    def _solve_stack(self, models, shards, w_global, rngs, kernel):
        """FedAvg on a ``(K, D)`` stack: ``W <- W - eta G``.

        The anchor diagnostics (full-shard loss/gradient) stay
        per-client calls — shard sizes are heterogeneous — while the
        ``tau``-step minibatch loop runs as stacked kernel evaluations.
        """
        K = len(shards)
        w_global = np.asarray(w_global, dtype=np.float64)

        start_losses = np.empty(K)
        start_norms = np.empty(K)
        for k, ((X, y), model) in enumerate(zip(shards, models)):
            loss, grad = model.loss_and_gradient(w_global, X, y)
            start_losses[k] = loss
            start_norms[k] = float(np.linalg.norm(grad))

        W = np.repeat(w_global[None, :], K, axis=0)
        X_batch, y_batch = self._minibatch_buffers(shards)
        G = np.empty_like(W)
        T = np.empty_like(W)
        for _ in range(self.num_steps):
            self._gather_minibatches(shards, rngs, X_batch, y_batch)
            kernel.gradient_stack(W, X_batch, y_batch, out=G)
            # Same ops as ``W - step * G``: scale, then subtract.
            np.multiply(G, self.step_size, out=T)
            np.subtract(W, T, out=W)

        return [
            self._record_solve_metrics(
                LocalSolveResult(
                    w_local=np.array(W[k], dtype=np.float64, copy=True),
                    num_steps=self.num_steps,
                    num_gradient_evaluations=1 + self.num_steps,
                    start_grad_norm=float(start_norms[k]),
                    diagnostics={"start_loss": float(start_losses[k])},
                )
            )
            for k in range(K)
        ]
