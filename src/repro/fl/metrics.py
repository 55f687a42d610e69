"""Global convergence metrics over a federation.

All metrics weight devices by ``p_n = D_n / D`` so they evaluate the
paper's global objective (2) and its gradient — including the
stationarity gap ``||grad F_bar(w)||^2`` that Theorem 1 bounds.

Each weighted metric accepts an optional precomputed ``weights`` vector
(``p_n`` from :meth:`repro.fl.registry.ClientRegistry.weights`, or the
estimator weights of a sampled cohort).  When ``weights`` is given,
``clients`` may be any single-pass iterable — the massive-cohort
evaluation path streams lazily hydrated clients through without ever
holding the population in memory.  Without ``weights`` the functions
recompute ``p_n`` from the client objects exactly as before.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fl.client import Client
from repro.models.base import Model


def _weights(clients: Sequence[Client]) -> np.ndarray:
    if not clients:
        raise ConfigurationError("metrics need >= 1 client")
    sizes = np.array([c.num_train for c in clients], dtype=np.float64)
    return sizes / sizes.sum()


def _resolve(
    clients: Iterable[Client], weights: Optional[np.ndarray]
) -> Tuple[Iterable[Client], np.ndarray]:
    """Pair clients with their weights, materializing only if needed."""
    if weights is not None:
        return clients, np.asarray(weights, dtype=np.float64)
    clients = list(clients)
    return clients, _weights(clients)


def global_loss(
    model: Model,
    clients: Iterable[Client],
    w: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
) -> float:
    """``F_bar(w) = sum_n p_n F_n(w)`` on training shards (eq. (2))."""
    clients, p = _resolve(clients, weights)
    losses = [
        model.loss(w, c.data.X_train, c.data.y_train) for c in clients
    ]
    return float(np.dot(p, losses))


def global_loss_and_gradient_norm(
    model: Model,
    clients: Iterable[Client],
    w: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
) -> Tuple[float, float]:
    """Loss (2) and ``||grad F_bar(w)||`` in a single pass."""
    clients, p = _resolve(clients, weights)
    total_loss = 0.0
    total_grad = np.zeros(model.num_parameters, dtype=np.float64)
    for weight, c in zip(p, clients):
        loss, grad = model.loss_and_gradient(w, c.data.X_train, c.data.y_train)
        total_loss += weight * loss
        total_grad += weight * grad
    return float(total_loss), float(np.linalg.norm(total_grad))


def global_gradient_norm(
    model: Model,
    clients: Iterable[Client],
    w: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
) -> float:
    """``||grad F_bar(w)||`` — the Theorem-1 stationarity measure."""
    return global_loss_and_gradient_norm(model, clients, w, weights=weights)[1]


def global_accuracy(
    model: Model,
    clients: Iterable[Client],
    w: np.ndarray,
    *,
    split: str = "test",
    weights: Optional[np.ndarray] = None,
) -> float:
    """Sample-weighted accuracy over all devices' chosen shards.

    Devices with empty shards are skipped; weighting is by shard size so
    the value equals pooled accuracy over the concatenated data.
    ``clients`` may be any single-pass iterable.  Optional per-client
    ``weights`` scale each client's row count, so a sampled cohort
    passed with inverse-inclusion weights gives a ratio estimator of
    the population's pooled accuracy.
    """
    scales = repeat(1) if weights is None else weights
    total_correct = 0.0
    total_samples = 0
    for c, scale in zip(clients, scales):
        data = c.data
        X, y = (
            (data.X_train, data.y_train)
            if split == "train"
            else (data.X_test, data.y_test)
        )
        if X.shape[0] == 0:
            continue
        rows = scale * X.shape[0]
        total_correct += model.accuracy(w, X, y) * rows
        total_samples += rows
    if total_samples == 0:
        return float("nan")
    return total_correct / total_samples


def per_device_accuracy(
    model: Model, clients: Iterable[Client], w: np.ndarray, *, split: str = "test"
) -> "dict[int, float]":
    """Accuracy of the global model on each device's own shard.

    The per-device view is what personalization and fairness analyses
    need: a good *average* can hide devices the global model fails
    entirely (common under 2-labels-per-device partitions).  Devices
    with empty shards are omitted.
    """
    out: dict = {}
    for c in clients:
        acc = c.evaluate(w, split=split)
        if acc is not None:
            out[c.client_id] = acc
    return out


def heterogeneity_sigma_bar_sq(
    model: Model,
    clients: Iterable[Client],
    w: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    floor: float = 1e-12,
) -> float:
    """Empirical ``sigma_bar^2`` of Assumption 1 at the point ``w``.

    Estimates each device's divergence ratio
    ``sigma_n = ||grad F_n(w) - grad F_bar(w)|| / ||grad F_bar(w)||``
    and returns the ``p_n``-weighted mean of ``sigma_n^2``.  ``floor``
    guards the denominator near stationary points.

    Under partial participation pass the sampled cohort together with
    its exact ``p_n`` renormalized over the cohort, which keeps the
    estimator consistent with the full-population value for a uniform
    sample.
    """
    clients, p = _resolve(clients, weights)
    grads = [
        model.gradient(w, c.data.X_train, c.data.y_train) for c in clients
    ]
    global_grad = np.einsum("n,nd->d", p, np.stack(grads))
    denom = max(float(np.linalg.norm(global_grad)), floor)
    sigma_sq = [
        (float(np.linalg.norm(g - global_grad)) / denom) ** 2 for g in grads
    ]
    return float(np.dot(p, sigma_sq))
