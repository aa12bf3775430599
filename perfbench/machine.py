"""BLAS thread pinning and a record of the machine a run measured."""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Limit BLAS to one thread. Only works before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is already imported; BLAS threads cannot be pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def describe() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
    }
