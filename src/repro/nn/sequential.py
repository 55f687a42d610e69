"""Sequential container chaining layers."""

from __future__ import annotations

import time
from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.obs import telemetry


class Sequential(Module):
    """Composition of layers applied in order.

    ``forward`` threads activations through every layer; ``backward``
    runs the chain rule in reverse.  Parameters and gradients are the
    concatenation of the layers' lists, in layer order, which gives a
    stable flat-vector layout for :class:`repro.models.nn_model.NNModel`.

    When ``telemetry.nn_profiling`` is on (off by default — it is a
    separate opt-in on top of telemetry itself) each layer's forward and
    backward is timed into the ``nn.layer.forward_seconds`` /
    ``nn.layer.backward_seconds`` histograms keyed by
    ``<position>:<obs_label>``; the default path pays one attribute
    check per call.

    ``backward(..., input_grad=False)`` passes the flag to the first
    layer only, whose input gradient is the one nobody downstream needs;
    every other layer's input gradient is the next one's ``grad_output``.
    """

    def __init__(self, layers: Iterable[Module]) -> None:
        self.layers: List[Module] = list(layers)
        if not self.layers:
            raise ValueError("Sequential requires at least one layer")
        self._obs_keys = [
            f"{i}:{layer.obs_label}" for i, layer in enumerate(self.layers)
        ]

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        out = x
        if not telemetry.nn_profiling:
            for layer in self.layers:
                out = layer.forward(out, train=train)
            return out
        for layer, key in zip(self.layers, self._obs_keys):
            t0 = time.perf_counter()
            out = layer.forward(out, train=train)
            telemetry.observe(
                "nn.layer.forward_seconds", time.perf_counter() - t0, key=key
            )
        return out

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        grad = grad_output
        if not telemetry.nn_profiling:
            for layer in self.layers[:0:-1]:
                grad = layer.backward(grad)
            return self.layers[0].backward(grad, input_grad=input_grad)
        for pos in reversed(range(len(self.layers))):
            t0 = time.perf_counter()
            grad = self.layers[pos].backward(grad, input_grad=input_grad or pos > 0)
            telemetry.observe(
                "nn.layer.backward_seconds",
                time.perf_counter() - t0,
                key=self._obs_keys[pos],
            )
        return grad

    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> List[np.ndarray]:
        grads: List[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Sequential([{inner}], params={self.num_parameters})"
