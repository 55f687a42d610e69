"""Vectorized multi-client model kernels for batched cohort solves.

A :class:`BatchKernel` computes the minibatch gradients of ``K``
same-architecture models in one set of stacked-ndarray operations:
parameters live in a ``(K, D)`` stack (one flat vector per client), the
gathered minibatches in a ``(K, B, features)`` stack, and the result is
a ``(K, D)`` gradient stack.

The bit-identity contract
-------------------------
``gradient_stack`` must return, row for row, the *exact same bits* as
``model.gradient(W[k], X[k], y[k])`` would.  That is what lets the
batched cohort executor replace the sequential per-client loop without
changing any result.  The contract holds because every stacked
operation used here reduces per slice to the identical elementary
operation sequence of the 2-D path:

* elementwise ufuncs and broadcasts are trivially per-row identical;
* axis reductions (``max``/``sum`` along the class or batch axis) use
  the same reduction order per slice as the 2-D call;
* stacked ``matmul`` dispatches the *same* BLAS GEMM once per slice.

The one pattern deliberately avoided is replacing a matrix–vector
product (GEMV) with a width-1 GEMM: the two BLAS routines are not
guaranteed to share a summation order.  Models whose gradients are
GEMV-shaped (linear regression, binary SVM) and the CNN therefore get a
:class:`ModelKernel`, which calls each client's own ``model.gradient``
on its row — the same arithmetic, one client at a time.

Every cohort has a kernel, so the stacked inner loop is the only local
solve loop.  Adding a vectorized kernel for a new model: implement
:class:`BatchKernel`, give the model a signature in
:func:`cohort_signature`, and register it in :func:`make_batch_kernel`.
The equivalence suite (``tests/fl/test_executor_equivalence.py``) is the
gate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.models.base import Model
from repro.models.logistic import MultinomialLogisticModel

__all__ = [
    "BatchKernel",
    "LogisticBatchKernel",
    "ModelKernel",
    "cohort_signature",
    "make_batch_kernel",
]


class BatchKernel(ABC):
    """Stacked minibatch-gradient evaluator over K homogeneous models."""

    #: number of clients in the stack
    num_clients: int
    #: flat parameter dimension D (per client)
    num_parameters: int

    @abstractmethod
    def gradient_stack(
        self,
        W: np.ndarray,
        X_batch: np.ndarray,
        y_batch: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-client mean-loss gradients.

        Parameters
        ----------
        W:
            Parameter stack ``(K, D)``.
        X_batch:
            Gathered minibatches ``(K, B, num_features)`` (same ``B``
            for every client — the cohort grouping guarantees it).
        y_batch:
            Labels ``(K, B)``.
        out:
            Optional ``(K, D)`` output buffer (fully overwritten).

        shape: W (K, D) float64, X_batch (K, B, f) float64, y_batch (K, B) -> (K, D) float64
        """

    def subset(self, rows: Sequence[int]) -> "BatchKernel":
        """The kernel over clients ``rows`` of this stack, in that order.

        Stacked kernels that hold no per-client state serve any subset
        as they are.
        """
        del rows
        return self


class ModelKernel(BatchKernel):
    """Per-client kernel: row ``k`` is ``models[k].gradient(W[k], X[k], y[k])``.

    Serves every model without a vectorized kernel, so each client's
    gradient is its model's own computation, bit for bit.
    """

    def __init__(self, models: Sequence[Model]) -> None:
        sizes = {m.num_parameters for m in models}
        if len(sizes) != 1:
            raise ConfigurationError(
                f"a kernel stacks one parameter size, got {sorted(sizes)}"
            )
        self.models = list(models)
        self.num_clients = len(self.models)
        self.num_parameters = sizes.pop()

    def gradient_stack(self, W, X_batch, y_batch, out=None):
        if out is None:
            out = np.empty((len(self.models), self.num_parameters), dtype=np.float64)
        for k, model in enumerate(self.models):
            out[k] = model.gradient(W[k], X_batch[k], y_batch[k])
        return out

    def subset(self, rows):
        return ModelKernel([self.models[k] for k in rows])


class LogisticBatchKernel(BatchKernel):
    """Stacked softmax-regression gradients (the paper's convex MLR task).

    Mirrors :meth:`MultinomialLogisticModel.loss_and_gradient` operation
    by operation — scores GEMM, stable log-softmax, label subtraction,
    mean scaling, feature-transpose GEMM, L2 term, bias column sums —
    so each row of the result is bit-identical to the per-client call.
    """

    def __init__(self, model: MultinomialLogisticModel) -> None:
        self.num_features = model.num_features
        self.num_classes = model.num_classes
        self.l2 = model.l2
        self.fit_intercept = model.fit_intercept
        self.num_parameters = model.num_parameters
        self._wsize = self.num_features * self.num_classes
        # Per-(K, B) caches — gather indices for the label subtraction
        # plus the scores and softmax-chain work buffers — owned by this
        # kernel, so concurrent solves never share one.  The geometry
        # changes only when theta-stopping shrinks the stack.
        self._idx_shape: Optional[tuple] = None
        self._k_idx: Optional[np.ndarray] = None
        self._b_idx: Optional[np.ndarray] = None
        self._scores: Optional[np.ndarray] = None
        self._G: Optional[np.ndarray] = None
        self._red: Optional[np.ndarray] = None

    def _views(self, W: np.ndarray):
        """(K, f, c) weight view and (K, c) bias view of a (K, D) stack."""
        K = W.shape[0]
        W3 = W[:, : self._wsize].reshape(K, self.num_features, self.num_classes)
        b2 = W[:, self._wsize :] if self.fit_intercept else None
        return W3, b2

    # shape: W (K, D) float64, X_batch (K, B, f) float64, y_batch (K, B) -> (K, D) float64
    def gradient_stack(self, W, X_batch, y_batch, out=None):
        K, B, f = X_batch.shape
        if W.shape != (K, self.num_parameters) or f != self.num_features:
            raise DimensionMismatchError(
                f"stack shapes {W.shape} / {X_batch.shape} do not match a "
                f"({K}, {self.num_parameters}) x ({K}, B, {self.num_features}) kernel"
            )
        self.num_clients = K
        W3, b2 = self._views(W)

        if self._idx_shape != (K, B):
            self._idx_shape = (K, B)
            self._k_idx = np.arange(K)[:, None]
            self._b_idx = np.arange(B)[None, :]
            self._scores = np.empty((K, B, self.num_classes), dtype=np.float64)
            self._G = np.empty((K, B, self.num_classes), dtype=np.float64)
            self._red = np.empty((K, B, 1), dtype=np.float64)

        scores = np.matmul(X_batch, W3, out=self._scores)  # (K, B, c)
        if b2 is not None:
            scores += b2[:, None, :]

        # Stable log-softmax + NLL gradient, axis-per-slice identical to
        # SoftmaxCrossEntropy.value_and_grad on each (B, c) slice; the
        # chain runs in place over persistent buffers but performs the
        # same elementary ops on the same values as the allocating form
        # ``exp(shifted - log(sum(exp(shifted))))``.
        grad_scores, red = self._G, self._red
        scores.max(axis=2, keepdims=True, out=red)
        np.subtract(scores, red, out=scores)  # shifted
        np.exp(scores, out=grad_scores)
        grad_scores.sum(axis=2, keepdims=True, out=red)
        np.log(red, out=red)  # reprolint: disable=RL402
        np.subtract(scores, red, out=scores)  # log-probs
        np.exp(scores, out=grad_scores)
        labels = y_batch if y_batch.dtype.kind == "i" else y_batch.astype(int)
        grad_scores[self._k_idx, self._b_idx, labels] -= 1.0
        grad_scores /= B

        if out is None:
            out = np.empty((K, self.num_parameters), dtype=np.float64)
        out_W, out_b = self._views(out)
        # grad_W = X^T G (+ l2 W when decay is on — skipped at l2 = 0
        # exactly like the sequential model, so both paths agree).
        np.matmul(np.swapaxes(X_batch, 1, 2), grad_scores, out=out_W)
        if self.l2:
            out_W += self.l2 * W3
        if out_b is not None:
            grad_scores.sum(axis=1, out=out_b)
        return out


def cohort_signature(model: Model) -> Hashable:
    """Hashable key: models with equal keys may share a cohort and a kernel.

    Models without a vectorized kernel share a cohort when their
    parameter sizes match; the :class:`ModelKernel` runs each one's own
    gradient.
    """
    if type(model) is MultinomialLogisticModel:
        return (
            "mlr",
            model.num_features,
            model.num_classes,
            float(model.l2),
            bool(model.fit_intercept),
        )
    return ("per-client", model.num_parameters)


def make_batch_kernel(models: Sequence[Model]) -> BatchKernel:
    """The kernel over ``models``: vectorized when one exists, else per-client."""
    if not models:
        raise ConfigurationError("a kernel needs at least one model")
    model = models[0]
    if type(model) is MultinomialLogisticModel and all(
        cohort_signature(m) == cohort_signature(model) for m in models
    ):
        return LogisticBatchKernel(model)
    return ModelKernel(models)
