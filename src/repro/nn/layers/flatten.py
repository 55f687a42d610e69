"""Flatten layer: NCHW feature maps -> (N, features) matrices."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module


class Flatten(Module):
    """Reshape each sample to a vector, preserving the batch axis."""

    def __init__(self) -> None:
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward(train=True)")
        return np.asarray(grad_output, dtype=np.float64).reshape(self._shape)
