"""The host block: what a reader needs before comparing two reports."""

from __future__ import annotations

import ctypes
import os
import platform
from typing import Dict, Optional

import numpy as np

_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def blas_threads() -> Optional[int]:
    """Thread count reported by the BLAS library numpy loaded, if known."""
    with open("/proc/self/maps") as maps:
        paths = sorted({
            line.split()[-1] for line in maps
            if ("blas" in line.lower() or "mkl" in line.lower()) and "/" in line
        })
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def host_block() -> Dict[str, object]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }
