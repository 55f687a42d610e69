"""Cross-executor equivalence: every executor, same bits.

The batched cohort path reorders *scheduling*, never arithmetic; the
thread and process pools reorder *completion*, never RNG streams.  The
contract — asserted here with exact equality, not tolerances — is that
``sequential``, ``batched``, ``thread`` and ``process`` produce
bit-identical :class:`LocalSolveResult`s, round histories, and final
models on fixed seeds.
"""

import numpy as np
import pytest

from repro.core.local import FedProxVRLocalSolver
from repro.datasets import make_synthetic
from repro.fl.client import Client
from repro.fl.executor import BatchedCohortExecutor, SequentialExecutor
from repro.fl.runner import FederatedRunConfig, run_federated
from repro.models import MultinomialLogisticModel, make_paper_cnn_model

EXECUTORS = ("sequential", "batched", "thread", "process")


@pytest.fixture(scope="module")
def fig2_dataset():
    """A small heterogeneous MLR federation in the Fig. 2 mould."""
    return make_synthetic(
        alpha=1.0,
        beta=1.0,
        num_devices=8,
        num_features=10,
        num_classes=5,
        min_size=25,
        max_size=90,
        seed=11,
    )


def _mlr_factory(dataset):
    return lambda: MultinomialLogisticModel(
        dataset.num_features, dataset.num_classes, l2=1e-4
    )


def _run_all(dataset, factory, **config_kwargs):
    outcomes = {}
    for executor in EXECUTORS:
        history, w = run_federated(
            dataset,
            factory,
            FederatedRunConfig(executor=executor, **config_kwargs),
        )
        outcomes[executor] = (history, w)
    return outcomes


def _assert_identical(outcomes):
    ref_history, ref_w = outcomes["sequential"]
    for executor, (history, w) in outcomes.items():
        np.testing.assert_array_equal(
            w, ref_w, err_msg=f"{executor} final model differs from sequential"
        )
        for rec, ref in zip(history.records, ref_history.records):
            assert rec.train_loss == ref.train_loss, executor
            assert rec.test_accuracy == ref.test_accuracy, executor
            assert rec.mean_gradient_evaluations == ref.mean_gradient_evaluations, executor


class TestConvexEquivalence:
    """The paper's convex MLR setting across all four executors."""

    @pytest.mark.parametrize(
        "algorithm", ["fedavg", "fedprox", "fedproxvr-svrg", "fedproxvr-sarah"]
    )
    def test_algorithms_bit_identical(self, fig2_dataset, algorithm):
        outcomes = _run_all(
            fig2_dataset,
            _mlr_factory(fig2_dataset),
            algorithm=algorithm,
            num_rounds=3,
            num_local_steps=4,
            batch_size=16,
            seed=3,
        )
        _assert_identical(outcomes)

    def test_random_iterate_selection_bit_identical(self, fig2_dataset):
        """Line 10's random draw must consume each client's own stream
        identically under every executor."""
        outcomes = _run_all(
            fig2_dataset,
            _mlr_factory(fig2_dataset),
            algorithm="fedproxvr-sarah",
            num_rounds=3,
            num_local_steps=4,
            batch_size=16,
            seed=9,
            solver_kwargs={"iterate_selection": "random"},
        )
        _assert_identical(outcomes)

    def test_average_iterate_selection_bit_identical(self, fig2_dataset):
        outcomes = _run_all(
            fig2_dataset,
            _mlr_factory(fig2_dataset),
            algorithm="fedproxvr-svrg",
            num_rounds=2,
            num_local_steps=3,
            batch_size=16,
            seed=4,
            solver_kwargs={"iterate_selection": "average"},
        )
        _assert_identical(outcomes)

    def test_partial_participation_bit_identical(self, fig2_dataset):
        outcomes = _run_all(
            fig2_dataset,
            _mlr_factory(fig2_dataset),
            algorithm="fedproxvr-svrg",
            num_rounds=3,
            num_local_steps=3,
            batch_size=16,
            seed=6,
            client_fraction=0.5,
        )
        _assert_identical(outcomes)


class TestNonConvexEquivalence:
    """The paper's CNN has no vectorized kernel: its cohorts stack over
    the per-client kernel, which must still match sequential exactly."""

    def test_cnn_bit_identical(self):
        dataset = make_synthetic(
            num_devices=3,
            num_features=64,
            num_classes=3,
            min_size=12,
            max_size=20,
            seed=2,
        )
        factory = lambda: make_paper_cnn_model(
            (1, 8, 8), 3, channel_scale=0.1, seed=0
        )
        outcomes = _run_all(
            dataset,
            factory,
            algorithm="fedproxvr-sarah",
            num_rounds=2,
            num_local_steps=2,
            batch_size=8,
            seed=1,
            smoothness=50.0,  # skip the power-iteration probe
        )
        _assert_identical(outcomes)


class TestBatchedExecutorResults:
    """Field-level equality of LocalSolveResults, executor-to-executor."""

    def _make_clients(self, dataset, solver):
        model = MultinomialLogisticModel(
            dataset.num_features, dataset.num_classes, l2=1e-4
        )
        return [
            Client(dev.device_id, dev, model, solver, base_seed=13)
            for dev in dataset.devices
        ], model

    def test_results_fieldwise_identical(self, fig2_dataset):
        solver = FedProxVRLocalSolver(
            step_size=0.05, num_steps=5, batch_size=16, mu=0.1,
            estimator="svrg", iterate_selection="random",
        )
        clients, model = self._make_clients(fig2_dataset, solver)
        w0 = model.init_parameters(0)
        seq = SequentialExecutor().run_round(clients, w0, 4)
        bat = BatchedCohortExecutor().run_round(clients, w0, 4)
        for rs, rb in zip(seq, bat):
            np.testing.assert_array_equal(rs.w_local, rb.w_local)
            assert rs.num_steps == rb.num_steps
            assert rs.num_gradient_evaluations == rb.num_gradient_evaluations
            assert rs.start_grad_norm == rb.start_grad_norm
            assert rs.final_surrogate_grad_norm == rb.final_surrogate_grad_norm
            assert rs.diagnostics == rb.diagnostics

    def test_theta_stopping_per_client(self, fig2_dataset):
        """Criterion-(11) stopping is per client inside the stacked
        loop: clients that stop early leave the cohort's stack while
        the others go on, and every result still matches sequential."""
        solver = FedProxVRLocalSolver(
            step_size=0.05, num_steps=20, batch_size=16, mu=0.1,
            estimator="sarah", theta=0.15, check_interval=5,
        )
        clients, model = self._make_clients(fig2_dataset, solver)
        w0 = model.init_parameters(0)
        seq = SequentialExecutor().run_round(clients, w0, 1)
        bat = BatchedCohortExecutor().run_round(clients, w0, 1)
        stopped = {r.diagnostics["stopped_early"] for r in seq}
        assert stopped == {0.0, 1.0}, "want early and late stops in one cohort"
        for rs, rb in zip(seq, bat):
            np.testing.assert_array_equal(rs.w_local, rb.w_local)
            assert rs.num_steps == rb.num_steps
            assert rs.num_gradient_evaluations == rb.num_gradient_evaluations
            assert rs.diagnostics == rb.diagnostics

    def test_plan_reused_across_rounds(self, fig2_dataset):
        solver = FedProxVRLocalSolver(
            step_size=0.05, num_steps=3, batch_size=16, mu=0.1, estimator="svrg"
        )
        clients, model = self._make_clients(fig2_dataset, solver)
        w0 = model.init_parameters(0)
        executor = BatchedCohortExecutor()
        executor.run_round(clients, w0, 1)
        plan_before = executor._plan
        executor.run_round(clients, w0, 2)
        assert executor._plan is plan_before
