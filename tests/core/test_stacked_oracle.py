"""The stacked inner loop reproduces the per-client oracle bit for bit.

Every minibatch solver has one inner loop, over a ``(K, D)`` stack of
clients.  ``solve`` runs it at ``K = 1`` and ``solve_cohort`` at any
``K``; both must return exactly what the pinned per-client loops of
:mod:`tests.core.solver_oracle` return — ``w_local`` bytes and every
:class:`LocalSolveResult` field — and leave each client's RNG stream in
the same state.  The cohort's clients differ in shard size and feature
scale, so with ``theta`` on some stop early and others run to ``tau``.
"""

import numpy as np
import pytest

from repro.core.local import (
    FedAvgLocalSolver,
    FedProxLocalSolver,
    FedProxVRLocalSolver,
)
from repro.models import (
    LinearRegressionModel,
    MultinomialLogisticModel,
    make_paper_cnn_model,
)
from repro.models.batched import make_batch_kernel
from tests.core.solver_oracle import oracle_solve

KINDS = ("mlr", "linreg", "cnn")
#: per model kind, a theta at which the cohort below stops some clients
#: at a check step and runs others to the end
THETA = {"mlr": 0.7, "linreg": 0.5, "cnn": 0.5}


def make_cohort(kind):
    """Three clients: models, ``(X, y)`` shards and a broadcast model."""
    rng = np.random.default_rng(5)
    scales = (0.4, 1.0, 1.6)
    if kind == "cnn":
        sizes = (10, 13, 16)
        models = [
            make_paper_cnn_model((1, 8, 8), 3, channel_scale=0.1, seed=0)
            for _ in sizes
        ]
    elif kind == "mlr":
        sizes = (30, 41, 52)
        models = [MultinomialLogisticModel(6, 3, l2=1e-3) for _ in sizes]
    else:
        sizes = (30, 41, 52)
        models = [LinearRegressionModel(6) for _ in sizes]
    features = 64 if kind == "cnn" else 6
    shards = []
    for n, scale in zip(sizes, scales):
        X = scale * rng.standard_normal((n, features))
        if kind == "linreg":  # float regression targets
            y = X @ rng.standard_normal(features) + 0.1 * rng.standard_normal(n)
        elif kind == "mlr":  # integer labels
            y = rng.integers(0, 3, n)
        else:  # integer-valued float labels
            y = rng.integers(0, 3, n).astype(np.float64)
        shards.append((X, y))
    return models, shards, models[0].init_parameters(1)


def rngs():
    return [np.random.default_rng([11, k]) for k in range(3)]


def assert_same_result(got, want):
    assert got.w_local.tobytes() == want.w_local.tobytes()
    assert got.num_steps == want.num_steps
    assert got.num_gradient_evaluations == want.num_gradient_evaluations
    assert got.start_grad_norm == want.start_grad_norm
    assert got.final_surrogate_grad_norm == want.final_surrogate_grad_norm
    assert got.diagnostics == want.diagnostics


def check_against_oracle(solver, kind):
    models, shards, w0 = make_cohort(kind)
    oracle_rngs = rngs()
    want = [
        oracle_solve(solver, model, X, y, w0, rng)
        for model, (X, y), rng in zip(models, shards, oracle_rngs)
    ]
    solo_rngs = rngs()
    solo = [
        solver.solve(model, X, y, w0, rng)
        for model, (X, y), rng in zip(models, shards, solo_rngs)
    ]
    cohort_rngs = rngs()
    cohort = solver.solve_cohort(
        models, shards, w0, cohort_rngs, make_batch_kernel(models)
    )
    for k in range(3):
        assert_same_result(solo[k], want[k])
        assert_same_result(cohort[k], want[k])
        next_draw = oracle_rngs[k].integers(1 << 62)
        assert solo_rngs[k].integers(1 << 62) == next_draw
        assert cohort_rngs[k].integers(1 << 62) == next_draw
    return want


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("cls", [FedAvgLocalSolver, FedProxLocalSolver])
def test_sgd_baselines_match_oracle(cls, kind):
    kwargs = {"mu": 0.1} if cls is FedProxLocalSolver else {}
    solver = cls(step_size=0.1, num_steps=6, batch_size=8, **kwargs)
    check_against_oracle(solver, kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("theta_on", [False, True], ids=["fixed-tau", "theta"])
@pytest.mark.parametrize("selection", ["last", "random", "average"])
@pytest.mark.parametrize("estimator", ["sgd", "svrg", "sarah"])
def test_fedproxvr_matches_oracle(estimator, selection, theta_on, kind):
    solver = FedProxVRLocalSolver(
        step_size=0.1,
        num_steps=6,
        batch_size=8,
        mu=0.1,
        estimator=estimator,
        iterate_selection=selection,
        theta=THETA[kind] if theta_on else None,
        check_interval=2,
    )
    want = check_against_oracle(solver, kind)
    stopped = {r.diagnostics["stopped_early"] for r in want}
    assert stopped == ({0.0, 1.0} if theta_on else {0.0})


def test_every_client_stopping_ends_the_loop():
    """When the last running client stops, nothing more is drawn."""
    solver = FedProxVRLocalSolver(
        step_size=0.1, num_steps=6, batch_size=8, mu=0.1,
        estimator="svrg", theta=0.9, check_interval=2,
    )
    want = check_against_oracle(solver, "mlr")
    assert [r.num_steps for r in want] == [2, 2, 2]


def test_zero_steps_match_oracle():
    solver = FedProxVRLocalSolver(
        step_size=0.1, num_steps=0, batch_size=8, mu=0.1,
        estimator="sarah", iterate_selection="random",
    )
    check_against_oracle(solver, "linreg")
