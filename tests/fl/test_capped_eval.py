"""Capped evaluation (``eval_client_cap``) estimates the population metrics.

A federation of heavy-tailed shard sizes whose per-client loss and
accuracy grow with the shard size: exactly the case where drawing
clients ∝ p_n and then weighting them by p_n again over-counts the big
clients.  The stub model ignores ``w``, so every round evaluates the
same population and the capped values of successive rounds are
independent Monte-Carlo draws of one estimator.
"""

import numpy as np
import pytest

from repro.core.local import LocalSolveResult, LocalSolver
from repro.datasets.base import DeviceData
from repro.fl.client import Client
from repro.fl.server import FederatedServer
from repro.models.base import Model

NUM_CLIENTS = 300
CAP = 20
ROUNDS = 400


class ShardMeanModel(Model):
    """Loss = mean of feature 0, gradient = feature means; ignores ``w``."""

    num_parameters = 2

    def init_parameters(self, seed=None):
        return np.zeros(self.num_parameters)

    def loss(self, w, X, y):
        return float(X[:, 0].mean())

    def loss_and_gradient(self, w, X, y):
        return self.loss(w, X, y), X.mean(axis=0)

    def predict(self, w, X):
        return (X[:, 1] > 0.5).astype(np.int64)


class KeepGlobalSolver(LocalSolver):
    """Returns the broadcast model unchanged: training is not under test."""

    name = "keep"

    def __init__(self):
        super().__init__(step_size=1.0, num_steps=1, batch_size=1)

    def solve(self, model, X, y, w_global, rng):
        return LocalSolveResult(
            w_local=np.array(w_global, copy=True),
            num_steps=0,
            num_gradient_evaluations=0,
            start_grad_norm=1.0,
        )


def federation():
    """Clients whose loss and accuracy both rise with the shard size."""
    rng = np.random.default_rng(7)
    sizes = 1 + np.floor(5.0 * rng.pareto(1.2, NUM_CLIENTS)).astype(int)
    model, solver = ShardMeanModel(), KeepGlobalSolver()
    clients, values, correct, tests = [], [], 0, 0
    for n, size in enumerate(sizes):
        value = np.log1p(size) + 0.3 * rng.standard_normal()
        X_train = np.column_stack([np.full(size, value), np.zeros(size)])
        num_test = max(1, int(size) // 3)
        hits = rng.random(num_test) < min(0.95, 0.2 + 0.1 * np.log1p(size))
        X_test = np.column_stack([np.zeros(num_test), hits.astype(float)])
        data = DeviceData(
            n, X_train, np.zeros(size, dtype=np.int64),
            X_test, np.ones(num_test, dtype=np.int64),
        )
        clients.append(Client(n, data, model, solver, base_seed=0))
        values.append(value)
        correct += int(hits.sum())
        tests += num_test
    p = sizes / sizes.sum()
    return clients, model, float(np.dot(p, values)), correct / tests


def capped_history(seed=3, rounds=ROUNDS):
    clients, model, loss, accuracy = federation()
    server = FederatedServer(
        clients, model, client_fraction=0.01, seed=seed, eval_client_cap=CAP
    )
    history, _ = server.train(model.init_parameters(), rounds, eval_every=1)
    return history, loss, accuracy


def within_standard_errors(values, exact, k=3.0):
    values = np.asarray(values)
    se = values.std(ddof=1) / np.sqrt(values.size)
    return abs(values.mean() - exact) <= k * se


@pytest.fixture(scope="module")
def capped_run():
    return capped_history()


class TestCappedEvaluation:
    def test_mean_capped_loss_matches_population_loss(self, capped_run):
        history, loss, _ = capped_run
        assert within_standard_errors(history.series("train_loss"), loss)

    def test_mean_capped_accuracy_matches_pooled_accuracy(self, capped_run):
        history, _, accuracy = capped_run
        assert within_standard_errors(
            history.series("test_accuracy"), accuracy
        )

    def test_each_round_draws_its_own_sample(self):
        history, _, _ = capped_history(rounds=2)
        first, second = history.series("train_loss")
        assert first != second

    def test_uncapped_evaluation_is_exact(self):
        clients, model, loss, accuracy = federation()
        server = FederatedServer(clients, model, eval_client_cap=NUM_CLIENTS)
        history, _ = server.train(model.init_parameters(), 1)
        assert history.final("train_loss") == pytest.approx(loss, rel=1e-12)
        assert history.final("test_accuracy") == pytest.approx(
            accuracy, rel=1e-12
        )
