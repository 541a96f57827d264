"""Eigendecomposition kernel for ordinary complex Hermitian matrices."""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian
from .matrices import _sumsq

__all__ = ["ComplexHermitianEig", "eig_hermitian"]

# relative bound on the reconstruction residual of eig_hermitian
TOL_RECON = 1e-10


@dataclass(frozen=True)
class ComplexHermitianEig:
    """Eigenvalues sorted descending; eigenvectors are the matching columns.
    For a stack of matrices both carry the stack's leading axes."""

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(h) -> ComplexHermitianEig:
    """Full eigendecomposition of a complex Hermitian matrix, or of each
    matrix in a (..., m, m) stack, by _eigh: each must be Hermitian within
    1e-10 * max(1, its largest entry), otherwise NotHermitian."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise NotHermitian(f"expected a square matrix, got shape {h.shape}")
    asymmetry = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if np.any(asymmetry > 1e-10 * np.abs(h).max(axis=(-2, -1), initial=1.0)):
        raise NotHermitian("matrix is not Hermitian within 1e-10")
    return _eigh(h)


def _eigh(h) -> ComplexHermitianEig:
    """eig_hermitian of an h known to be Hermitian: NoConvergence unless
    |H - U diag(w) U*|_F <= TOL_RECON * max(1, |H|_F)."""
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    values, vectors = values[..., ::-1].copy(), vectors[..., ::-1].copy()
    recon = (vectors * values[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
    if np.any(_sumsq(h - recon, (-2, -1)) > TOL_RECON**2 * np.maximum(1.0, _sumsq(h, (-2, -1)))):
        raise NoConvergence("reconstruction residual exceeds tolerance")
    for a in (values, vectors):
        a.setflags(write=False)
    return ComplexHermitianEig(values, vectors)


def _runs(cut):
    """(starts, sizes) of the runs of len(cut) + 1 values that split after
    every position i where cut[i] is true."""
    bounds = np.concatenate(([0], np.flatnonzero(cut) + 1, [len(cut) + 1]))
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _run_means(x, starts, sizes):
    """np.mean of each run x[a:a+k] for a, k in zip(starts, sizes), bit for
    bit. numpy adds fewer than eight values one after another, so runs of up
    to seven are summed as rows padded with -0.0, which leaves every sum as it
    is; longer runs, which numpy sums pairwise, take np.mean of their slice."""
    k = np.arange(7)
    idx = np.minimum(starts[:, None] + k, len(x) - 1)
    means = np.where(k < sizes[:, None], x[idx], -0.0).sum(axis=-1) / sizes
    for i in np.flatnonzero(sizes > 7):
        means[i] = x[starts[i] : starts[i] + sizes[i]].mean()
    return means


def _clusters(values, tol_group: float):
    """(means, sizes) of the clusters of a descending eigenvalue array: runs
    of values within tol_group * max(1, max |values|) of the next."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.empty(0), np.empty(0, dtype=int)
    threshold = tol_group * max(1.0, abs(float(values[0])), abs(float(values[-1])))
    starts, sizes = _runs(values[:-1] - values[1:] > threshold)
    return _run_means(values, starts, sizes), sizes
