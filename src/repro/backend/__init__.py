"""Shared-memory array placement for the process-pool executor.

:mod:`repro.backend.shm` holds :class:`ShmArena` and :class:`ArraySpec`.
The package sits at layer 0 of the reprolint import DAG (alongside
``repro.utils`` and ``repro.obs``): it may not import models, solvers,
or anything federated — it only knows about arrays.
"""

from repro.backend.shm import ArraySpec, ShmArena

__all__ = ["ArraySpec", "ShmArena"]
