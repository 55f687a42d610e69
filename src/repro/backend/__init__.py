"""Pluggable array-backend seam.

The stacked minibatch-gradient GEMMs of the batched cohort path
(:mod:`repro.models.batched`) route through an :class:`ArrayBackend`
rather than calling NumPy directly; the prox/estimator algebra and the
``repro.nn`` layers (im2col/col2im, conv, pooling) call NumPy
themselves.  The default backend *is* NumPy —
the seam exists so that a faster drop-in (a threaded BLAS wrapper, an
accelerator array library with a NumPy-compatible surface) can be
swapped in per process or per scope without touching any algorithm
code, and so that scratch-buffer reuse has one owner instead of being
re-invented at every call site.

The package sits at layer 0 of the reprolint import DAG (alongside
``repro.utils`` and ``repro.obs``): it may not import models, solvers,
or anything federated — it only knows about arrays.

Usage::

    from repro.backend import get_backend, use_backend

    be = get_backend()            # NumpyBackend unless overridden
    C = be.batched_matmul(A, B)   # (K, m, n) @ (K, n, p)

    with use_backend(MyBackend()):
        ...                       # scoped override (tests, experiments)
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional

from repro.backend.numpy_backend import ArrayBackend, NumpyBackend, ScratchPool
from repro.backend.shm import ArraySpec, ShmArena

__all__ = [
    "ArrayBackend",
    "ArraySpec",
    "NumpyBackend",
    "ScratchPool",
    "ShmArena",
    "get_backend",
    "set_backend",
    "use_backend",
]

_DEFAULT = NumpyBackend()
_state = threading.local()


def get_backend() -> ArrayBackend:
    """The active backend for this thread (default: shared NumPy backend)."""
    return getattr(_state, "backend", None) or _DEFAULT


def set_backend(backend: Optional[ArrayBackend]) -> Optional[ArrayBackend]:
    """Install ``backend`` as this thread's active backend.

    ``None`` restores the process-wide NumPy default.  The override is
    thread-local so worker threads running homogeneous cohorts cannot
    race each other's backend choice.  Returns the previous override
    (``None`` when the default was active) so callers can restore it.
    """
    previous = getattr(_state, "backend", None)
    _state.backend = backend
    return previous


@contextlib.contextmanager
def use_backend(backend: ArrayBackend) -> Iterator[ArrayBackend]:
    """Scoped backend override (restores the previous one on exit)."""
    previous = getattr(_state, "backend", None)
    _state.backend = backend
    try:
        yield backend
    finally:
        _state.backend = previous
