"""Fully-connected layer."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.nn import initializers
from repro.nn.module import Module
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


class Dense(Module):
    """Affine map ``y = x W + b`` with ``W`` of shape ``(in, out)``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    weight_init:
        Name of an initializer in :mod:`repro.nn.initializers`.
    use_bias:
        If false the layer is purely linear (useful for MLR-as-a-layer
        parity checks against the analytic model).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        weight_init: str = "glorot_uniform",
        use_bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        self.in_features = check_positive_int("in_features", in_features)
        self.out_features = check_positive_int("out_features", out_features)
        self.use_bias = bool(use_bias)
        rng = as_generator(seed)
        init = initializers.get(weight_init)
        fans = (self.in_features, self.out_features)
        self.weight = init((self.in_features, self.out_features), fans, rng)
        self.grad_weight = np.zeros_like(self.weight)
        if self.use_bias:
            self.bias = np.zeros(self.out_features, dtype=np.float64)
            self.grad_bias = np.zeros_like(self.bias)
        self._cache_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DimensionMismatchError(
                f"Dense expected (batch, {self.in_features}), got {x.shape}"
            )
        if train:
            self._cache_input = x
        out = x @ self.weight
        if self.use_bias:
            out += self.bias
        return out

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache_input is None:
            raise RuntimeError("backward called before forward(train=True)")
        x = self._cache_input
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.shape != (x.shape[0], self.out_features):
            raise DimensionMismatchError(
                f"grad_output shape {grad_output.shape} does not match "
                f"({x.shape[0]}, {self.out_features})"
            )
        np.matmul(x.T, grad_output, out=self.grad_weight)
        if self.use_bias:
            np.sum(grad_output, axis=0, out=self.grad_bias)
        if not input_grad:
            return None
        return grad_output @ self.weight.T

    def parameters(self) -> List[np.ndarray]:
        if self.use_bias:
            return [self.weight, self.bias]
        return [self.weight]

    def gradients(self) -> List[np.ndarray]:
        if self.use_bias:
            return [self.grad_weight, self.grad_bias]
        return [self.grad_weight]
