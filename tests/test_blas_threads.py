"""The test session runs BLAS on one thread (see conftest.py at the root)."""

import ctypes
import os

import numpy as np
import pytest


def openblas_threads():
    """The thread count of the OpenBLAS numpy loaded, or None without one."""
    np.ones((2, 2)) @ np.ones((2, 2))
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def test_blas_runs_one_thread():
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        pytest.skip("the caller set OPENBLAS_NUM_THREADS")
    threads = openblas_threads() if os.path.exists("/proc/self/maps") else None
    if threads is None:
        pytest.skip("numpy is not linked against a known OpenBLAS")
    assert threads == 1
