"""Elementwise activation layers (stateless, no parameters)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit ``max(x, 0)``."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.maximum(x, 0.0)
        if train:
            self._mask = x > 0.0
        return out

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward(train=True)")
        return np.asarray(grad_output, dtype=np.float64) * self._mask


class Sigmoid(Module):
    """Logistic sigmoid ``1/(1+exp(-x))`` (numerically stabilized)."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        if train:
            self._out = out
        return out

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward(train=True)")
        s = self._out
        return np.asarray(grad_output, dtype=np.float64) * s * (1.0 - s)


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        out = np.tanh(np.asarray(x, dtype=np.float64))
        if train:
            self._out = out
        return out

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward(train=True)")
        return np.asarray(grad_output, dtype=np.float64) * (1.0 - self._out**2)
