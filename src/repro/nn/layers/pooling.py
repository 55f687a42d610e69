"""Max-pooling layer."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.nn.im2col import conv_output_size, sliding_windows
from repro.nn.module import Module


class MaxPool2D(Module):
    """Non-overlapping-or-strided 2-D max pooling over NCHW inputs.

    Both passes loop over the ``ph*pw`` window offsets in row-major
    order, each a strided slice of the input, so no window is copied.
    Forward folds the offsets with ``np.maximum`` — numpy's own ``max``
    reduction for windows of up to 8 cells; larger windows of mixed-sign
    zeros may differ from ``max`` in the sign of a zero result — and
    keeps the offset of the first maximum, as ``argmax`` does: a strict
    ``>`` leaves ties (common on ReLU outputs) with the first, and a NaN
    window points at its first NaN.  Backward adds
    ``where(offset == k, grad, 0.0)`` into each offset's slice of a
    zeroed buffer, so each cell is ``0.0 + grad`` or ``0.0``: bit for
    bit a scatter-add onto the argmax.  With overlapping windows (stride
    < pool) a cell's gradients are summed in offset order, not window
    order, so there the result agrees in value but not necessarily in
    the last bit.
    """

    def __init__(
        self,
        pool_size: Union[int, Tuple[int, int]] = 2,
        *,
        stride: Optional[int] = None,
    ) -> None:
        if isinstance(pool_size, tuple):
            self.pool_size = (int(pool_size[0]), int(pool_size[1]))
        else:
            self.pool_size = (int(pool_size), int(pool_size))
        if min(self.pool_size) < 1:
            raise ConfigurationError(f"invalid pool_size {self.pool_size}")
        self.stride = int(stride) if stride is not None else self.pool_size[0]
        if self.stride < 1:
            raise ConfigurationError(f"invalid stride {self.stride}")
        self._cache_x_shape: Optional[Tuple[int, int, int, int]] = None
        self._cache_offset: Optional[np.ndarray] = None

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Per-sample output shape ``(C, OH, OW)`` for a CHW input."""
        C, H, W = input_shape
        ph, pw = self.pool_size
        oh = conv_output_size(H, ph, self.stride, 0)
        ow = conv_output_size(W, pw, self.stride, 0)
        return (C, oh, ow)

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise DimensionMismatchError(f"MaxPool2D expected NCHW, got {x.shape}")
        windows = sliding_windows(x, self.pool_size, self.stride)
        ph, pw = self.pool_size
        best = windows[..., 0, 0].copy()
        offset = np.zeros(best.shape, dtype=np.intp) if train else None
        for k in range(1, ph * pw):
            cand = windows[..., k // pw, k % pw]
            if train:
                offset[cand > best] = k
            np.maximum(best, cand, out=best)
        if train:
            nan = np.isnan(best)
            if nan.any():
                # ``cand > best`` is never true against a NaN; point each
                # NaN window at its first NaN, as argmax does.
                for k in range(ph * pw - 1, -1, -1):
                    offset[nan & np.isnan(windows[..., k // pw, k % pw])] = k
            self._cache_x_shape = x.shape
            self._cache_offset = offset
        return best

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray:
        if self._cache_x_shape is None or self._cache_offset is None:
            raise RuntimeError("backward called before forward(train=True)")
        offset = self._cache_offset
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.shape != offset.shape:
            raise DimensionMismatchError(
                f"grad_output shape {grad_output.shape} != {offset.shape}"
            )
        ph, pw = self.pool_size
        s = self.stride
        oh, ow = offset.shape[2], offset.shape[3]
        grad_input = np.zeros(self._cache_x_shape, dtype=np.float64)
        for k in range(ph * pw):
            i, j = divmod(k, pw)
            grad_input[:, :, i : i + s * oh : s, j : j + s * ow : s] += np.where(
                offset == k, grad_output, 0.0
            )
        return grad_input
