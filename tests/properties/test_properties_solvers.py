"""Property-based tests for local solvers and estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import SARAHEstimator, SVRGEstimator
from repro.core.local import FedProxVRLocalSolver
from repro.models import LinearRegressionModel
from repro.models.batched import make_batch_kernel


def make_problem(seed, n=30, d=6):
    rng = np.random.default_rng(seed)
    model = LinearRegressionModel(d, fit_intercept=False)
    X = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    y = X @ w_true + 0.1 * rng.standard_normal(n)
    return model, X, y, rng.standard_normal(d)


class TestSolverProperties:
    @given(st.integers(0, 10_000), st.floats(min_value=1.0, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_large_mu_keeps_output_near_anchor(self, seed, mu):
        """The prox radius shrinks like 1/mu: output distance to the
        anchor must not grow as mu grows."""
        model, X, y, w0 = make_problem(seed)
        L = model.smoothness(X)

        def distance(mu_value):
            solver = FedProxVRLocalSolver(
                step_size=1.0 / (5 * L), num_steps=10, batch_size=8,
                mu=mu_value, estimator="svrg", evaluate_final=False,
            )
            out = solver.solve(model, X, y, w0, np.random.default_rng(seed))
            return float(np.linalg.norm(out.w_local - w0))

        assert distance(mu * 10) <= distance(mu) + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_solver_deterministic_given_rng(self, seed):
        model, X, y, w0 = make_problem(seed)
        L = model.smoothness(X)
        solver = FedProxVRLocalSolver(
            step_size=1.0 / (5 * L), num_steps=8, batch_size=8, mu=0.1,
            estimator="sarah",
        )
        a = solver.solve(model, X, y, w0, np.random.default_rng(seed)).w_local
        b = solver.solve(model, X, y, w0, np.random.default_rng(seed)).w_local
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_solver_never_mutates_global_model(self, seed):
        model, X, y, w0 = make_problem(seed)
        snapshot = w0.copy()
        L = model.smoothness(X)
        solver = FedProxVRLocalSolver(
            step_size=1.0 / (5 * L), num_steps=5, batch_size=8, mu=0.5,
        )
        solver.solve(model, X, y, w0, np.random.default_rng(seed))
        np.testing.assert_array_equal(w0, snapshot)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_output_is_finite(self, seed):
        model, X, y, w0 = make_problem(seed)
        L = model.smoothness(X)
        solver = FedProxVRLocalSolver(
            step_size=1.0 / (3 * L), num_steps=12, batch_size=4, mu=0.1,
            estimator="sarah",
        )
        out = solver.solve(model, X, y, w0, np.random.default_rng(seed))
        assert np.all(np.isfinite(out.w_local))
        assert np.isfinite(out.start_grad_norm)


class TestEstimatorProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_full_batch_estimates_are_exact(self, seed):
        """With the full dataset as the 'minibatch', both VR estimators
        return exactly the full gradient at any iterate."""
        model, X, y, w0 = make_problem(seed)
        full0 = model.gradient(w0, X, y)
        w_t = w0 + np.random.default_rng(seed).standard_normal(w0.size) * 0.1
        truth = model.gradient(w_t, X, y)
        kernel = make_batch_kernel([model])
        for est_cls in (SVRGEstimator, SARAHEstimator):
            est = est_cls()
            est.start_epoch(w0[None], full0[None])
            v = est.estimate(kernel, X[None], y[None], w_t[None])[0]
            np.testing.assert_allclose(v, truth, atol=1e-10)

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_sarah_telescopes_to_full_gradient_on_full_batches(self, seed, steps):
        """Running SARAH with full batches for several steps keeps
        v_t == grad F(w_t): the recursion telescopes exactly."""
        model, X, y, w0 = make_problem(seed)
        kernel = make_batch_kernel([model])
        est = SARAHEstimator()
        v = est.start_epoch(w0[None], model.gradient(w0, X, y)[None])[0]
        w = w0
        for _ in range(steps):
            w = w - 0.01 * v
            v = est.estimate(kernel, X[None], y[None], w[None])[0].copy()
        np.testing.assert_allclose(v, model.gradient(w, X, y), atol=1e-9)
