"""FedProxVR's local solver — Alg. 1 lines 3-10.

One inner loop on device ``n`` at global iteration ``s``:

1. anchor at the broadcast model: ``w^0 = w_bar``, ``v^0 = grad F_n(w^0)``
   (full local gradient, lines 3-4);
2. first proximal step ``w^1 = prox_{eta h_s}(w^0 - eta v^0)``;
3. for ``t = 1..tau``: sample a minibatch, update ``v^t`` by SARAH (8a)
   or SVRG (8b), step ``w^{t+1} = prox_{eta h_s}(w^t - eta v^t)``;
4. return ``w^{t'}`` with ``t'`` uniform over ``{0..tau}`` (line 10) —
   or the last / averaged iterate, selectable for the ablation study.

Optional ``theta``-stopping turns the fixed-``tau`` loop into the
inexact criterion (11): every ``check_interval`` steps the solver
evaluates ``||grad J_n(w^t)||`` of each client and stops that client
once it is below ``theta ||grad F_n(w_bar)||``.

The loop runs over a ``(K, D)`` stack of clients (see
:mod:`repro.core.local.base`); one device's solve is the stack of one.
The estimator is chosen by name only: each stacked solve builds a fresh
one, since its recursion state lives for one inner loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.estimators import make_estimator
from repro.core.local.base import LocalSolveResult, LocalSolver
from repro.core.proximal import QuadraticProx
from repro.exceptions import ConfigurationError
from repro.models.base import Model
from repro.utils.validation import check_choice, check_positive, check_positive_int

_SELECTIONS = ("random", "last", "average")


class FedProxVRLocalSolver(LocalSolver):
    """Proximal variance-reduced local solver (the paper's contribution).

    Parameters
    ----------
    estimator:
        Name of the gradient estimator: ``"svrg"``, ``"sarah"``, or
        ``"sgd"`` for the degenerate prox-SGD variant.
    mu:
        Proximal penalty of ``h_s`` (eq. (7)); ``mu = 0`` disables the
        prox, reproducing the Fig. 4 divergence setting.
    iterate_selection:
        ``"last"`` (default — what practical implementations return),
        ``"random"`` (Alg. 1 line 10, the choice the analysis needs), or
        ``"average"``.  The theory-validation tests use ``"random"``.
    theta:
        Optional local accuracy for criterion-(11) early stopping.
    check_interval:
        How often (in steps) the stopping criterion is evaluated.
    evaluate_final:
        When true (default), spend one extra full gradient to report the
        achieved ``||grad J_n||`` so experiments can audit (11).
    """

    name = "fedproxvr"

    def __init__(
        self,
        *,
        step_size: float,
        num_steps: int,
        batch_size: int,
        mu: float,
        estimator: str = "sarah",
        iterate_selection: str = "last",
        theta: Optional[float] = None,
        check_interval: int = 10,
        evaluate_final: bool = True,
    ) -> None:
        super().__init__(
            step_size=step_size, num_steps=num_steps, batch_size=batch_size
        )
        self.mu = check_positive("mu", mu, strict=False)
        # Estimators are stateful across one inner loop, and one solver
        # instance serves every client (possibly concurrently), so each
        # stacked solve builds a fresh estimator of this one's kind.
        self.estimator = make_estimator(estimator)
        self.iterate_selection = check_choice(
            "iterate_selection", iterate_selection, _SELECTIONS
        )
        if theta is not None:
            theta = float(theta)
            if not 0.0 < theta < 1.0:
                raise ConfigurationError(f"theta must be in (0, 1), got {theta}")
        self.theta = theta
        self.check_interval = check_positive_int("check_interval", check_interval)
        self.evaluate_final = bool(evaluate_final)
        self.name = f"fedproxvr-{self.estimator.name}"

    def _surrogate_grad_norm(
        self,
        model: Model,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        prox: QuadraticProx,
    ) -> float:
        grad_j = model.gradient(w, X, y) + prox.gradient(w)
        return float(np.linalg.norm(grad_j))

    def _solve_stack(self, models, shards, w_global, rngs, kernel):
        """Alg. 1 over a ``(K, D)`` stack of clients.

        Anchor full gradients (lines 3-4) stay per-client calls on the
        heterogeneous shards; the ``tau`` stochastic steps (lines 5-9)
        run as stacked kernel/estimator/prox operations; iterate
        selection (line 10) draws from each client's own stream.

        ``theta``-stopping is per client: a client that meets (11) at a
        check step leaves the stack there — it draws nothing more from
        its stream and its iterates freeze — while the others go on.
        """
        K = len(shards)
        eta = self.step_size
        w_global = np.asarray(w_global, dtype=np.float64)
        prox = QuadraticProx(self.mu, w_global)
        estimator = type(self.estimator)()  # fresh state per inner loop

        # Lines 3-4: anchor stack and per-client full local gradients.
        W0 = np.repeat(w_global[None, :], K, axis=0)
        full_grads = np.empty_like(W0)
        start_norms = np.empty(K)
        for k, ((X, y), model) in enumerate(zip(shards, models)):
            full_grads[k] = model.gradient(W0[k], X, y)
            start_norms[k] = float(np.linalg.norm(full_grads[k]))
        V = estimator.start_epoch(W0, full_grads)

        # Double-buffered update: same ops as ``prox(W - eta * V)`` —
        # scale, subtract, prox — with the result landing in the spare
        # buffer, which then becomes the current iterate.
        W = np.empty_like(W0)
        T = np.empty_like(W0)
        np.multiply(V, eta, out=W)
        np.subtract(W0, W, out=W)
        prox.apply_(W, eta)
        # Iterates are only kept when line 10 needs them: history[t] is
        # w^t of every client still running at step t - 1.
        history = None
        if self.iterate_selection != "last":
            history = np.empty((self.num_steps + 2,) + W0.shape)
            history[0] = W0
            history[1] = W

        # Each client's loop outcome; the running clients' are filled in
        # after the loop, a stopped client's when it stops.
        steps = np.full(K, self.num_steps)
        estimator_evals = np.empty(K, dtype=np.int64)
        stopped = np.zeros(K, dtype=bool)
        W_last = np.empty_like(W0)
        active = np.arange(K)  # clients still running, in stack order
        run_shards, run_rngs = list(shards), list(rngs)
        targets = self.theta * start_norms if self.theta is not None else None
        norms = np.empty(K)  # criterion-(11) LHS of the running clients

        X_batch, y_batch = self._minibatch_buffers(shards)
        # Lines 5-9: tau stochastic proximal VR steps, stacked.
        for t in range(1, self.num_steps + 1):
            self._gather_minibatches(run_shards, run_rngs, X_batch, y_batch)
            V = estimator.estimate(kernel, X_batch, y_batch, W)
            np.multiply(V, eta, out=T)
            np.subtract(W, T, out=T)
            prox.apply_(T, eta)
            W, T = T, W
            if history is not None:
                history[t + 1, active] = W
            if targets is None or t % self.check_interval:
                continue
            for j, k in enumerate(active):
                norms[j] = self._surrogate_grad_norm(models[k], *shards[k], W[j], prox)
            done = norms[: active.size] <= targets[active]
            if not done.any():
                continue
            finished = active[done]
            steps[finished] = t
            estimator_evals[finished] = estimator.num_evaluations
            stopped[finished] = True
            W_last[finished] = W[done]
            # Drop the stopped rows from every per-client stack.
            keep = np.flatnonzero(~done)
            active = active[keep]
            if not active.size:
                break
            run_shards = [shards[k] for k in active]
            run_rngs = [rngs[k] for k in active]
            W, T = W[keep], T[keep]
            X_batch, y_batch = X_batch[keep], y_batch[keep]
            estimator.keep_rows(keep)
            kernel = kernel.subset(keep)
        if active.size:
            W_last[active] = W
            estimator_evals[active] = estimator.num_evaluations

        results = []
        for k, ((X, y), model) in enumerate(zip(shards, models)):
            # Line 10: iterate selection over {w^0 .. w^steps}.
            if self.iterate_selection == "random":
                w_out = history[int(rngs[k].integers(0, steps[k] + 1)), k]
            elif self.iterate_selection == "last":
                w_out = W_last[k]
            else:  # average
                w_out = np.mean(history[1 : steps[k] + 2, k], axis=0)
            evals = 1 + int(estimator_evals[k])
            if targets is not None:
                evals += int(steps[k]) // self.check_interval
            final_norm: Optional[float] = None
            if self.evaluate_final:
                final_norm = self._surrogate_grad_norm(model, X, y, w_out, prox)
                evals += 1
            results.append(
                self._record_solve_metrics(
                    LocalSolveResult(
                        w_local=np.array(w_out, dtype=np.float64, copy=True),
                        num_steps=int(steps[k]),
                        num_gradient_evaluations=evals,
                        start_grad_norm=float(start_norms[k]),
                        final_surrogate_grad_norm=final_norm,
                        diagnostics={
                            "stopped_early": float(stopped[k]),
                            "estimator_evals": float(estimator_evals[k]),
                        },
                    )
                )
            )
        return results
