"""Test-session set-up shared by tests/ and perfbench/.

BLAS is pinned to one thread, unless the caller chose a count, before numpy
is first imported: the solvers multiply small matrices, and with BLAS
threads competing for busy cores the test suite was seen to run five times
slower.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
