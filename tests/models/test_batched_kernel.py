"""Tests for repro.models.batched (vectorized cohort kernels)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.models import MultinomialLogisticModel, make_paper_cnn_model
from repro.models.batched import (
    LogisticBatchKernel,
    ModelKernel,
    cohort_signature,
    make_batch_kernel,
)
from repro.models.linear_regression import LinearRegressionModel


def _stack_problem(K=5, B=9, f=7, c=3, l2=1e-3, fit_intercept=True, seed=0):
    rng = np.random.default_rng(seed)
    models = [
        MultinomialLogisticModel(f, c, l2=l2, fit_intercept=fit_intercept)
        for _ in range(K)
    ]
    D = models[0].num_parameters
    W = rng.standard_normal((K, D))
    X = rng.standard_normal((K, B, f))
    y = rng.integers(0, c, size=(K, B)).astype(np.float64)
    return models, W, X, y


class TestLogisticBatchKernel:
    def test_rows_bit_identical_to_sequential_gradient(self):
        models, W, X, y = _stack_problem()
        kernel = make_batch_kernel(models)
        G = kernel.gradient_stack(W, X, y)
        for k, model in enumerate(models):
            np.testing.assert_array_equal(G[k], model.gradient(W[k], X[k], y[k]))

    def test_no_intercept_variant(self):
        models, W, X, y = _stack_problem(fit_intercept=False)
        kernel = make_batch_kernel(models)
        G = kernel.gradient_stack(W, X, y)
        for k, model in enumerate(models):
            np.testing.assert_array_equal(G[k], model.gradient(W[k], X[k], y[k]))

    def test_out_buffer_is_used_and_returned(self):
        models, W, X, y = _stack_problem(K=3)
        kernel = make_batch_kernel(models)
        out = np.empty_like(W)
        ret = kernel.gradient_stack(W, X, y, out=out)
        assert ret is out
        np.testing.assert_array_equal(out, kernel.gradient_stack(W, X, y))

    def test_shape_mismatch_raises(self):
        models, W, X, y = _stack_problem()
        kernel = make_batch_kernel(models)
        with pytest.raises(DimensionMismatchError):
            kernel.gradient_stack(W[:, :-1], X, y)

    def test_single_client_stack_matches(self):
        models, W, X, y = _stack_problem(K=1)
        kernel = LogisticBatchKernel(models[0])
        G = kernel.gradient_stack(W, X, y)
        np.testing.assert_array_equal(G[0], models[0].gradient(W[0], X[0], y[0]))


class TestCohortSignature:
    def test_equal_architectures_share_signature(self):
        a = MultinomialLogisticModel(5, 3, l2=0.1)
        b = MultinomialLogisticModel(5, 3, l2=0.1)
        assert cohort_signature(a) == cohort_signature(b)
        assert cohort_signature(a) is not None

    def test_architecture_differences_split_cohorts(self):
        base = MultinomialLogisticModel(5, 3, l2=0.1)
        for other in (
            MultinomialLogisticModel(6, 3, l2=0.1),
            MultinomialLogisticModel(5, 4, l2=0.1),
            MultinomialLogisticModel(5, 3, l2=0.2),
            MultinomialLogisticModel(5, 3, l2=0.1, fit_intercept=False),
        ):
            assert cohort_signature(base) != cohort_signature(other)

    def test_gemv_shaped_models_get_per_client_signature(self):
        """Linear regression gradients are GEMV-shaped; GEMV vs width-1
        GEMM summation order is not guaranteed identical across BLAS
        builds, so these models share cohorts by parameter size and run
        their own gradients."""
        assert cohort_signature(LinearRegressionModel(4)) == ("per-client", 5)
        assert cohort_signature(LinearRegressionModel(4)) != cohort_signature(
            LinearRegressionModel(5)
        )


class TestModelKernel:
    def test_linear_regression_rows_bit_identical(self):
        rng = np.random.default_rng(3)
        models = [LinearRegressionModel(6) for _ in range(4)]
        W = rng.standard_normal((4, 7))
        X = rng.standard_normal((4, 9, 6))
        y = rng.standard_normal((4, 9))  # float targets
        G = make_batch_kernel(models).gradient_stack(W, X, y)
        for k, model in enumerate(models):
            np.testing.assert_array_equal(G[k], model.gradient(W[k], X[k], y[k]))

    def test_cnn_rows_bit_identical(self):
        rng = np.random.default_rng(4)
        models = [
            make_paper_cnn_model((1, 8, 8), 3, channel_scale=0.1, seed=k)
            for k in range(2)
        ]
        D = models[0].num_parameters
        W = rng.standard_normal((2, D)) * 0.1
        X = rng.standard_normal((2, 5, 64))
        y = rng.integers(0, 3, size=(2, 5)).astype(np.float64)
        kernel = make_batch_kernel(models)
        assert isinstance(kernel, ModelKernel)
        G = kernel.gradient_stack(W, X, y)
        for k, model in enumerate(models):
            np.testing.assert_array_equal(G[k], model.gradient(W[k], X[k], y[k]))

    def test_subset_keeps_named_clients_in_order(self):
        models = [LinearRegressionModel(3) for _ in range(4)]
        sub = make_batch_kernel(models).subset([3, 1])
        assert sub.models == [models[3], models[1]]
        assert sub.num_clients == 2

    def test_logistic_kernel_serves_any_subset(self):
        models, _, _, _ = _stack_problem()
        kernel = make_batch_kernel(models)
        assert kernel.subset([0, 2]) is kernel


class TestMakeBatchKernel:
    def test_homogeneous_cohort_gets_kernel(self):
        models, _, _, _ = _stack_problem()
        assert isinstance(make_batch_kernel(models), LogisticBatchKernel)

    def test_mixed_parameter_sizes_rejected(self):
        models = [
            MultinomialLogisticModel(5, 3),
            MultinomialLogisticModel(5, 4),
        ]
        with pytest.raises(ConfigurationError):
            make_batch_kernel(models)

    def test_unsupported_model_gets_per_client_kernel(self):
        kernel = make_batch_kernel([LinearRegressionModel(4)])
        assert isinstance(kernel, ModelKernel)
        assert kernel.num_parameters == 5

    def test_empty_cohort_rejected(self):
        with pytest.raises(ConfigurationError):
            make_batch_kernel([])
