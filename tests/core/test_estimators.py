"""Tests for repro.core.estimators.

The estimators run over ``(K, D)`` stacks; a single device's inner loop
is the stack of one, which is how most properties below are checked.
"""

import numpy as np
import pytest

from repro.core.estimators import (
    SARAHEstimator,
    SGDEstimator,
    SVRGEstimator,
    make_estimator,
)
from repro.exceptions import ConfigurationError
from repro.models import LinearRegressionModel
from repro.models.batched import make_batch_kernel
from tests.core.solver_oracle import ORACLE_ESTIMATORS


@pytest.fixture()
def problem():
    rng = np.random.default_rng(0)
    model = LinearRegressionModel(5, fit_intercept=False)
    X = rng.standard_normal((40, 5))
    y = rng.standard_normal(40)
    w0 = rng.standard_normal(5)
    return model, X, y, w0


def start(est, w0, full_grad):
    """``start_epoch`` for one client; returns its ``v_0``."""
    return est.start_epoch(w0[None], full_grad[None])[0]


def estimate(est, model, X_batch, y_batch, w_t):
    """One client's ``v_t`` (a copy: the stacked buffer is reused)."""
    kernel = make_batch_kernel([model])
    return est.estimate(kernel, X_batch[None], y_batch[None], w_t[None])[0].copy()


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [("sgd", SGDEstimator), ("svrg", SVRGEstimator), ("sarah", SARAHEstimator)],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_estimator(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_estimator("SVRG"), SVRGEstimator)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_estimator("adam")


class TestAnchorExactness:
    """At the anchor point, VR estimators must return the full gradient
    exactly — the property (44) the Lemma 1 proof starts from."""

    @pytest.mark.parametrize("name", ["svrg", "sarah"])
    def test_exact_at_anchor(self, name, problem):
        model, X, y, w0 = problem
        full = model.gradient(w0, X, y)
        est = make_estimator(name)
        start(est, w0, full)
        batch = slice(0, 8)
        v = estimate(est, model, X[batch], y[batch], w0)
        np.testing.assert_allclose(v, full, atol=1e-12)


class TestSVRG:
    def test_unbiasedness(self, problem):
        """E_B[v] equals the full gradient at any w (SVRG's defining
        property), checked by averaging over every size-1 batch."""
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)
        w_t = w0 + 0.3
        est = SVRGEstimator()
        start(est, w0, full0)
        estimates = [
            estimate(est, model, X[i : i + 1], y[i : i + 1], w_t)
            for i in range(X.shape[0])
        ]
        mean_v = np.mean(estimates, axis=0)
        np.testing.assert_allclose(mean_v, model.gradient(w_t, X, y), atol=1e-10)

    def test_variance_shrinks_near_anchor(self, problem):
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)

        def variance(w_t):
            est = SVRGEstimator()
            start(est, w0, full0)
            true = model.gradient(w_t, X, y)
            devs = []
            for i in range(X.shape[0]):
                v = estimate(est, model, X[i : i + 1], y[i : i + 1], w_t)
                devs.append(np.sum((v - true) ** 2))
            return np.mean(devs)

        near = variance(w0 + 1e-3)
        far = variance(w0 + 1.0)
        assert near < far / 100

    def test_estimate_before_start_raises(self, problem):
        model, X, y, w0 = problem
        with pytest.raises(ConfigurationError):
            estimate(SVRGEstimator(), model, X[:2], y[:2], w0)

    def test_eval_counter(self, problem):
        """Counts minibatch gradients per client, whatever the stack size."""
        model, X, y, w0 = problem
        est = SVRGEstimator()
        start(est, w0, model.gradient(w0, X, y))
        estimate(est, model, X[:4], y[:4], w0)
        estimate(est, model, X[:4], y[:4], w0)
        assert est.num_evaluations == 4
        est.reset_counter()
        assert est.num_evaluations == 0
        kernel = make_batch_kernel([model, model, model])
        W0 = np.stack([w0] * 3)
        est.start_epoch(W0, np.stack([model.gradient(w0, X, y)] * 3))
        est.estimate(kernel, np.stack([X[:4]] * 3), np.stack([y[:4]] * 3), W0)
        assert est.num_evaluations == 2


class TestSARAH:
    def test_recursion_matches_formula(self, problem):
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)
        est = SARAHEstimator()
        v0 = start(est, w0, full0)
        w1 = w0 - 0.01 * v0
        batch = slice(3, 9)
        v1 = estimate(est, model, X[batch], y[batch], w1)
        expected = (
            model.gradient(w1, X[batch], y[batch])
            - model.gradient(w0, X[batch], y[batch])
            + full0
        )
        np.testing.assert_allclose(v1, expected, atol=1e-12)

    def test_recursion_tracks_previous_iterate(self, problem):
        """The second step must difference against w1, not w0."""
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)
        est = SARAHEstimator()
        v0 = start(est, w0, full0)
        w1 = w0 - 0.01 * v0
        v1 = estimate(est, model, X[:5], y[:5], w1)
        w2 = w1 - 0.01 * v1
        v2 = estimate(est, model, X[5:10], y[5:10], w2)
        expected = (
            model.gradient(w2, X[5:10], y[5:10])
            - model.gradient(w1, X[5:10], y[5:10])
            + v1
        )
        np.testing.assert_allclose(v2, expected, atol=1e-12)

    def test_fresh_instances_isolated(self, problem):
        """Two concurrent inner loops must not share recursion state."""
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)
        a, b = SARAHEstimator(), SARAHEstimator()
        start(a, w0, full0)
        start(b, w0 + 1.0, model.gradient(w0 + 1.0, X, y))
        va = estimate(a, model, X[:5], y[:5], w0 + 0.1)
        # interleaved call on b must not affect a's next estimate
        estimate(b, model, X[:5], y[:5], w0 + 2.0)
        va2_expected = (
            model.gradient(w0 + 0.2, X[5:8], y[5:8])
            - model.gradient(w0 + 0.1, X[5:8], y[5:8])
            + va
        )
        va2 = estimate(a, model, X[5:8], y[5:8], w0 + 0.2)
        np.testing.assert_allclose(va2, va2_expected, atol=1e-12)

    def test_estimate_before_start_raises(self, problem):
        model, X, y, w0 = problem
        with pytest.raises(ConfigurationError):
            estimate(SARAHEstimator(), model, X[:2], y[:2], w0)


class TestSGD:
    def test_plain_minibatch_gradient(self, problem):
        model, X, y, w0 = problem
        est = SGDEstimator()
        start(est, w0, model.gradient(w0, X, y))
        w_t = w0 + 0.5
        v = estimate(est, model, X[:7], y[:7], w_t)
        np.testing.assert_allclose(v, model.gradient(w_t, X[:7], y[:7]))

    def test_start_epoch_returns_copy(self, problem):
        model, X, y, w0 = problem
        full = model.gradient(w0, X, y)
        est = SGDEstimator()
        v = start(est, w0, full)
        v[...] = 0.0
        assert full.any()  # caller's array untouched


class TestBatchedEstimators:
    """Stacked estimator recursions: each row must follow the same
    SVRG/SARAH recursion as the per-client reference estimator."""

    def _stacks(self, seed=0, K=4, D=6):
        rng = np.random.default_rng(seed)
        W0 = rng.standard_normal((K, D))
        full = rng.standard_normal((K, D))
        return W0, full

    def test_start_epoch_returns_anchor_gradients(self):
        for name in ("svrg", "sarah", "sgd"):
            W0, full = self._stacks()
            est = make_estimator(name)
            np.testing.assert_array_equal(est.start_epoch(W0, full), full)

    def _drive(self, name, steps, keep_after=None):
        """Run a stacked and K reference estimators on the same
        minibatches.  Yields, per step, the stacked ``V``, the running
        clients' reference ``v_k`` and both evaluation counters."""
        from repro.models import MultinomialLogisticModel

        rng = np.random.default_rng(7)
        K, B, f, c = 3, 5, 4, 3
        models = [MultinomialLogisticModel(f, c, l2=0.01) for _ in range(K)]
        D = models[0].num_parameters
        W0 = rng.standard_normal((K, D))
        full = np.stack([
            models[k].gradient(W0[k], rng.standard_normal((8, f)),
                               rng.integers(0, c, 8).astype(float))
            for k in range(K)
        ])
        stacked = make_estimator(name)
        refs = [ORACLE_ESTIMATORS[name]() for _ in range(K)]
        V = stacked.start_epoch(W0, full)
        for k in range(K):
            refs[k].start_epoch(W0[k].copy(), full[k].copy())
        rows = list(range(K))
        W = W0 - 0.1 * V
        for step in range(steps):
            if keep_after is not None and step == keep_after[0]:
                keep = keep_after[1]
                stacked.keep_rows(keep)
                rows = [rows[j] for j in keep]
                W = W[keep]
            X = rng.standard_normal((len(rows), B, f))
            y = rng.integers(0, c, size=(len(rows), B)).astype(np.float64)
            kernel = make_batch_kernel([models[k] for k in rows])
            V = stacked.estimate(kernel, X, y, W)
            v_refs = [
                refs[k].estimate(models[k], X[j], y[j], W[j])
                for j, k in enumerate(rows)
            ]
            yield V, v_refs, refs[rows[0]].num_evaluations, stacked.num_evaluations
            W = W - 0.1 * V

    def test_rowwise_matches_sequential_recursion(self):
        """Drive stacked and per-client estimators with the same
        gradient oracle and compare rows bitwise over several steps."""
        for name in ("svrg", "sarah", "sgd"):
            for V, v_refs, ref_evals, evals in self._drive(name, steps=3):
                for j, v_k in enumerate(v_refs):
                    np.testing.assert_array_equal(V[j], v_k, err_msg=name)
                assert evals == ref_evals

    def test_keep_rows_continues_each_kept_recursion(self):
        """Dropping stopped clients mid-loop leaves the others' rows
        on their own recursions, bit for bit."""
        for name in ("svrg", "sarah", "sgd"):
            for V, v_refs, _, _ in self._drive(name, steps=4, keep_after=(2, [0, 2])):
                assert V.shape[0] == len(v_refs)
                for j, v_k in enumerate(v_refs):
                    np.testing.assert_array_equal(V[j], v_k, err_msg=name)
