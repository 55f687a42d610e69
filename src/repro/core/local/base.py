"""Local-solver interface and result record.

A local solver implements Alg. 1 lines 3-10 (or a baseline's analogue):
given the broadcast global model it produces the device's local model
for this round, plus bookkeeping the server and the delay model consume
(gradient-evaluation counts map to computation delay ``d_cmp``).

A minibatch solver writes its inner loop once, in
:meth:`LocalSolver._solve_stack`, over a ``(K, D)`` stack of clients:
:meth:`~LocalSolver.solve_cohort` runs a whole cohort through it and
:meth:`~LocalSolver.solve` runs one client as a stack of ``K = 1``.
Each client draws from its own per-(client, round) RNG stream in the
same order at any ``K``, and the stacked arithmetic is row-wise, so a
client's result does not depend on its cohort.  Solvers without a
minibatch loop override ``solve`` instead, and ``solve_cohort`` maps it
over the cohort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.models.base import Model
from repro.models.batched import BatchKernel, make_batch_kernel
from repro.obs import telemetry
from repro.utils.validation import check_positive, check_positive_int

#: ratio buckets for the achieved-theta distribution (criterion (11)):
#: fine below 1 (criterion met by some margin), coarse above.
THETA_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 10.0)



@dataclass
class LocalSolveResult:
    """Outcome of one device's local update in one global iteration."""

    w_local: np.ndarray
    num_steps: int
    num_gradient_evaluations: int
    #: ``||grad F_n(w_bar)||`` at the round's start (the RHS scale of (11))
    start_grad_norm: float
    #: ``||grad J_n(w_local)||`` at the returned iterate (LHS of (11)), if evaluated
    final_surrogate_grad_norm: Optional[float] = None
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def achieved_accuracy(self) -> Optional[float]:
        """Empirical local accuracy ``theta_hat`` of criterion (11).

        ``||grad J_n(w_n)|| / ||grad F_n(w_bar)||`` — values below the
        configured ``theta`` certify the round met its local criterion.
        """
        if self.final_surrogate_grad_norm is None:
            return None
        if self.start_grad_norm == 0.0:
            return 0.0 if self.final_surrogate_grad_norm == 0.0 else float("inf")
        return self.final_surrogate_grad_norm / self.start_grad_norm


class LocalSolver:
    """Base per-device solver; instances are stateless across rounds
    except for configuration, so one instance can serve many clients."""

    #: identifier recorded in histories
    name: str = "abstract"

    def __init__(
        self,
        *,
        step_size: float,
        num_steps: int,
        batch_size: int,
    ) -> None:
        self.step_size = check_positive("step_size", step_size)
        self.num_steps = check_positive_int("num_steps", num_steps, minimum=0)
        self.batch_size = check_positive_int("batch_size", batch_size)

    def solve(
        self,
        model: Model,
        X: np.ndarray,
        y: np.ndarray,
        w_global: np.ndarray,
        rng: np.random.Generator,
    ) -> LocalSolveResult:
        """Run the inner loop from the broadcast model ``w_global``."""
        kernel = make_batch_kernel([model])
        return self._solve_stack([model], [(X, y)], w_global, [rng], kernel)[0]

    def solve_cohort(
        self,
        models: Sequence[Model],
        shards: Sequence[Tuple[np.ndarray, np.ndarray]],
        w_global: np.ndarray,
        rngs: Sequence[np.random.Generator],
        kernel: BatchKernel,
    ) -> List[LocalSolveResult]:
        """Run one round's inner loops for a cohort at once.

        Parameters mirror K parallel :meth:`solve` calls: ``models``,
        ``shards`` (``(X, y)`` training pairs) and ``rngs`` are ordered
        per client; ``kernel`` is a
        :class:`repro.models.batched.BatchKernel` over the cohort's
        models.  Returns results ordered like the inputs; result ``k``
        equals what ``solve`` produces for client ``k`` with the same
        RNG stream, bit for bit.
        """
        return self._solve_stack(models, shards, w_global, rngs, kernel)

    def _solve_stack(self, models, shards, w_global, rngs, kernel):
        """The solver's one inner loop over a stack of clients.

        Minibatch solvers override this.  The default serves solvers
        that override :meth:`solve` instead, one client at a time.
        """
        del kernel
        if type(self).solve is LocalSolver.solve:
            raise NotImplementedError(
                f"{type(self).__name__} must override solve or _solve_stack"
            )
        return [
            self.solve(model, X, y, w_global, rng)
            for model, (X, y), rng in zip(models, shards, rngs)
        ]

    def _sample_batch(
        self, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        """Uniformly sample one minibatch of indices (Alg. 1 line 6)."""
        size = min(self.batch_size, n)
        if size == n:
            return np.arange(n)
        return rng.choice(n, size=size, replace=False)

    def _minibatch_buffers(
        self, shards: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(K, B, features)`` and ``(K, B)`` minibatch stacks.

        Every shard must yield the same effective minibatch size and
        feature shape; the labels keep the shards' dtype, so float
        regression targets are not truncated.
        """
        sizes = {min(self.batch_size, X.shape[0]) for X, _ in shards}
        features = {X.shape[1:] for X, _ in shards}
        if len(sizes) != 1 or len(features) != 1:
            raise ConfigurationError(
                "a stacked solve needs one effective minibatch size and "
                f"feature shape, got sizes {sorted(sizes)}, shapes {sorted(features)}"
            )
        K, batch = len(shards), sizes.pop()
        X_batch = np.empty((K, batch) + features.pop(), dtype=np.float64)
        y_batch = np.empty(
            (K, batch), dtype=np.result_type(*(y.dtype for _, y in shards))
        )
        return X_batch, y_batch

    def _gather_minibatches(
        self,
        shards: Sequence[Tuple[np.ndarray, np.ndarray]],
        rngs: Sequence[np.random.Generator],
        X_out: np.ndarray,
        y_out: np.ndarray,
    ) -> None:
        """Sample one minibatch per client into the stacked buffers.

        Each client draws from its own generator, so interleaving
        clients step-by-step (instead of client-by-client) leaves every
        stream unchanged.  Gathers stay per shard on purpose: each shard
        is small enough to be cache-resident, which beats one scattered
        gather from a concatenated copy of the whole cohort (measured on
        the fig2 macro-bench).
        """
        for k, (X, y) in enumerate(shards):
            idx = self._sample_batch(rngs[k], X.shape[0])
            X.take(idx, axis=0, out=X_out[k])
            y_out[k] = y[idx]

    def _record_solve_metrics(self, result: LocalSolveResult) -> LocalSolveResult:
        """Publish one solve's inner-loop telemetry; returns ``result``.

        Called by every concrete solver just before returning, so
        per-client step/gradient-evaluation counts and the achieved
        local accuracy ``theta_hat`` are visible, not only the cohort
        means each round's ``RoundRecord`` carries.  One attribute
        check when disabled.
        """
        if not telemetry.enabled:
            return result
        telemetry.counter_add("fl.client.local_steps", result.num_steps, key=self.name)
        telemetry.counter_add(
            "fl.client.grad_evals", result.num_gradient_evaluations, key=self.name
        )
        theta_hat = result.achieved_accuracy
        if theta_hat is not None and np.isfinite(theta_hat):
            telemetry.gauge_set("fl.client.achieved_theta", float(theta_hat))
            telemetry.observe(
                "fl.client.achieved_theta_dist", float(theta_hat),
                buckets=THETA_BUCKETS,
            )
        return result
