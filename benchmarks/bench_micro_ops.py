"""Micro-benchmarks: throughput of the inner-loop primitives.

These are proper pytest-benchmark timings (many iterations) for the
operations the federated inner loop is made of: gradient estimators, the
quadratic prox, weighted aggregation, the im2col convolution and max
pooling.  Use
them to catch performance regressions; `--benchmark-compare` works.
"""

import numpy as np
import pytest

from repro.core.estimators import make_estimator
from repro.core.proximal import QuadraticProx
from repro.fl.aggregation import weighted_average
from repro.models import MultinomialLogisticModel, make_paper_cnn_model
from repro.nn import MaxPool2D
from repro.nn.im2col import col2im, im2col

# The two pooled activations of the fig3 CNN at channel_scale=0.25, at a
# small and a full local batch.
FIG3_POOL_INPUTS = [
    (n, c, s, s) for n in (9, 36) for c, s in ((8, 28), (16, 14))
]


@pytest.fixture(scope="module")
def logistic_problem():
    rng = np.random.default_rng(0)
    model = MultinomialLogisticModel(784, 10)
    X = rng.standard_normal((256, 784))
    y = rng.integers(0, 10, 256)
    w = model.init_parameters(0)
    return model, X, y, w


class TestEstimatorThroughput:
    @pytest.mark.parametrize("name", ["sgd", "svrg", "sarah"])
    def test_estimator_step(self, benchmark, name, logistic_problem):
        model, X, y, w = logistic_problem
        est = make_estimator(name)
        full = model.gradient(w, X, y)
        est.start_epoch(w, full)
        batch = slice(0, 32)
        w_t = w + 0.01

        benchmark(lambda: est.estimate(model, X[batch], y[batch], w_t))


class TestProxThroughput:
    def test_quadratic_prox_1m_params(self, benchmark):
        rng = np.random.default_rng(1)
        anchor = rng.standard_normal(1_000_000)
        x = rng.standard_normal(1_000_000)
        prox = QuadraticProx(0.1, anchor)
        benchmark(lambda: prox(x, 0.01))


class TestAggregationThroughput:
    def test_weighted_average_100_clients(self, benchmark):
        rng = np.random.default_rng(2)
        vectors = [rng.standard_normal(10_000) for _ in range(100)]
        weights = rng.uniform(0.5, 2.0, 100)
        out = np.empty(10_000)
        benchmark(lambda: weighted_average(vectors, weights, out=out))


class TestConvThroughput:
    def test_im2col_batch(self, benchmark):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((32, 8, 28, 28))
        benchmark(lambda: im2col(x, (5, 5), stride=1, padding=2))

    def test_col2im_batch(self, benchmark):
        rng = np.random.default_rng(4)
        x_shape = (32, 8, 28, 28)
        cols = rng.standard_normal((8 * 25, 32 * 28 * 28))
        benchmark(lambda: col2im(cols, x_shape, (5, 5), stride=1, padding=2))

    def test_cnn_gradient(self, benchmark):
        model = make_paper_cnn_model((1, 28, 28), 10, channel_scale=0.25, seed=0)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((64, 784))
        y = rng.integers(0, 10, 64)
        w = model.init_parameters(0)
        benchmark(lambda: model.loss_and_gradient(w, X, y))


class TestMaxPoolThroughput:
    @staticmethod
    def _relu_input(shape):
        rng = np.random.default_rng(6)
        return np.maximum(rng.standard_normal(shape), 0.0)

    @pytest.mark.parametrize("shape", FIG3_POOL_INPUTS, ids=str)
    def test_maxpool_forward(self, benchmark, shape):
        pool = MaxPool2D(2)
        x = self._relu_input(shape)
        benchmark(lambda: pool.forward(x, train=True))

    @pytest.mark.parametrize("shape", FIG3_POOL_INPUTS, ids=str)
    def test_maxpool_backward(self, benchmark, shape):
        pool = MaxPool2D(2)
        out = pool.forward(self._relu_input(shape), train=True)
        g = np.random.default_rng(7).standard_normal(out.shape)
        benchmark(lambda: pool.backward(g))
