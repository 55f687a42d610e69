"""Edge-path tests for the server: divergence stop, verbose, delays."""

import numpy as np
import pytest

from repro.core.local import FedAvgLocalSolver, LocalSolveResult, LocalSolver
from repro.fl.client import Client
from repro.fl.delays import make_uniform_delays
from repro.fl.runner import FederatedRunConfig, run_federated
from repro.fl.server import FederatedServer
from repro.models import MultinomialLogisticModel


class ExplodingSolver(LocalSolver):
    """Returns NaN local models after a given round (failure injection)."""

    name = "exploder"

    def __init__(self, explode_after: int = 2):
        super().__init__(step_size=0.1, num_steps=1, batch_size=4)
        self.explode_after = explode_after
        self.calls = 0

    def solve(self, model, X, y, w_global, rng):
        self.calls += 1
        w = np.array(w_global, copy=True)
        if self.calls > self.explode_after * 10:  # rough: rounds * clients
            w[:] = np.nan
        return LocalSolveResult(
            w_local=w, num_steps=1, num_gradient_evaluations=1, start_grad_norm=1.0
        )


def build(dataset, solver=None, **kwargs):
    model = MultinomialLogisticModel(dataset.num_features, dataset.num_classes)
    solver = solver or FedAvgLocalSolver(step_size=0.05, num_steps=2, batch_size=8)
    clients = [
        Client(d.device_id, d, model, solver, base_seed=0) for d in dataset.devices
    ]
    return FederatedServer(clients, model, **kwargs), model


class TestDivergenceStop:
    def test_training_stops_on_nonfinite_loss(self, tiny_dataset):
        solver = ExplodingSolver(explode_after=2)
        server, model = build(tiny_dataset, solver=solver)
        history, _ = server.train(model.init_parameters(0), 20, eval_every=1)
        # stopped well before 20 rounds
        assert history.num_rounds < 20
        assert not np.isfinite(history.final("train_loss"))


class TestVerboseOutput:
    def test_verbose_prints_rounds(self, tiny_dataset, capsys):
        server, model = build(tiny_dataset)
        server.train(
            model.init_parameters(0), 2, eval_every=1, verbose=True,
            algorithm_name="fedavg",
        )
        out = capsys.readouterr().out
        assert "round" in out and "loss" in out


class TestDelaysThroughRunner:
    def test_heterogeneous_delay_model_passthrough(self, tiny_dataset, tiny_model_factory):
        delays = make_uniform_delays(tiny_dataset.num_devices, d_cmp=0.5, d_com=3.0)
        cfg = FederatedRunConfig(
            algorithm="fedavg", num_rounds=2, num_local_steps=4, seed=0,
            delay_model=delays,
        )
        history, _ = run_federated(tiny_dataset, tiny_model_factory, cfg)
        # 2 rounds x (3 + 0.5 * (4 steps + 1 diagnostic)) = 11
        assert history.final("sim_time") == pytest.approx(11.0)


class TestClientFractionBounds:
    def test_fraction_zero_rejected(self, tiny_dataset):
        with pytest.raises(Exception):
            build(tiny_dataset, client_fraction=0.0)

    def test_tiny_fraction_selects_one(self, tiny_dataset, record_cohorts):
        server, model = build(tiny_dataset, client_fraction=1e-6)
        cohorts = record_cohorts(server)
        server.run_round(model.init_parameters(0), 1)
        assert len(cohorts) == 1 and len(cohorts[0]) == 1

    def test_selection_varies_across_rounds(self, tiny_dataset, record_cohorts):
        server, model = build(tiny_dataset, client_fraction=0.5, seed=1)
        w = model.init_parameters(0)
        cohorts = record_cohorts(server)
        for s in range(8):
            server.run_round(w, s)
        assert len(cohorts) == 8
        assert len(set(cohorts)) > 1
