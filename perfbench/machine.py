"""The environment block and the hardware floors the solvers are set against.

Floors are raw numpy on the same shapes the solvers use: the dual matvec
(P1 u, P1 du + P2 u) of the power loops and a bare LAPACK eigh of the 2n x 2n
adjoint standard part that eddcam starts from. Flop and byte counts are
computed from array sizes, not measured.
"""

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

# glibc sysconf names that Python's os.sysconf_names does not list
_SC_CACHE = {"l1d_bytes": 188, "l2_bytes": 191, "l3_bytes": 194}


def _git_commit(root: Path):
    """HEAD commit read from .git inside the checkout; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, dqeig_threads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    caches = {}
    for key, num in _SC_CACHE.items():
        try:
            caches[key] = os.sysconf(num)
        except (ValueError, OSError):
            caches[key] = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "DQEIG_THREADS": dqeig_threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def _hermitian(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (a + a.conj().T)


def warm_up(n: int) -> None:
    """One LAPACK eigh and one dual matvec at adjoint size 2n."""
    rng = np.random.default_rng(n)
    p1, p2 = _hermitian(rng, 2 * n), _hermitian(rng, 2 * n)
    u = rng.standard_normal(2 * n) + 0j
    np.linalg.eigh(p1)
    p1 @ u, p1 @ u + p2 @ u


class Probe:
    """Floor timings taken in a short burst right beside each solve, so the
    floor sees the same machine state as the solve it is set against."""

    def __init__(self):
        self._operands = {}

    def _at(self, n):
        if n not in self._operands:
            rng = np.random.default_rng([7, n])
            m = 2 * n
            self._operands[n] = (
                _hermitian(rng, m), _hermitian(rng, m),
                rng.standard_normal(m) + 1j * rng.standard_normal(m),
                rng.standard_normal(m) + 1j * rng.standard_normal(m),
            )
        return self._operands[n]

    @staticmethod
    def _burst(fn, seconds):
        """Median time per call of fn, called at least three times and until
        `seconds` have passed."""
        start = t1 = time.perf_counter()
        times = []
        while len(times) < 3 or t1 - start < seconds:
            t0 = t1
            fn()
            t1 = time.perf_counter()
            times.append(t1 - t0)
        return statistics.median(times)

    def dual_matvec_s(self, n, seconds):
        p1, p2, u, du = self._at(n)
        return self._burst(lambda: (p1 @ u, p1 @ du + p2 @ u), seconds)

    def eigh_s(self, n, seconds):
        return self._burst(lambda: np.linalg.eigh(self._at(n)[0]), seconds)


def floors(probe: Probe, n: int) -> dict:
    """Floors at dual quaternion size n, medians of 9 and 5 bursts, with the
    flops and bytes of the same operations computed from array sizes."""
    m = 2 * n
    return {
        "dual_matvec_s": statistics.median(probe.dual_matvec_s(n, 0.002) for _ in range(9)),
        "eigh_s": statistics.median(probe.eigh_s(n, 0.02) for _ in range(5)),
        # three complex m x m matvecs (8 flops per multiply-add) and one vector add
        "dual_matvec_flop": 24 * m * m + 2 * m,
        # P1 and P2 read once, u and du read, both results written (complex128)
        "dual_matvec_bytes": 16 * (2 * m * m + 4 * m),
        # Golub-Van Loan 9 m^3 for a symmetric eigendecomposition with vectors,
        # times 4 for complex arithmetic
        "eigh_flop": 36 * m ** 3,
        # the matrix read, eigenvectors and eigenvalues written
        "eigh_bytes": 32 * m * m + 8 * m,
    }
