"""Inverted dropout layer.

Active only when ``forward(..., train=True)``: units are zeroed with
probability ``rate`` and survivors scaled by ``1/(1-rate)`` so the
expected activation is unchanged; at evaluation time the layer is the
identity.  The mask generator is owned by the layer (seeded at
construction) so runs remain reproducible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range


class Dropout(Module):
    """Inverted dropout with keep-scale correction."""

    def __init__(self, rate: float = 0.5, *, seed: SeedLike = None) -> None:
        self.rate = check_in_range("rate", rate, 0.0, 1.0, inclusive="left")
        self._rng = as_generator(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(
                "backward called without a preceding forward(train=True) "
                "(dropout is inactive at evaluation time)"
            )
        return np.asarray(grad_output, dtype=np.float64) * self._mask
