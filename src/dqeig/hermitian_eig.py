"""Eigendecomposition kernel for ordinary complex Hermitian matrices."""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian

__all__ = ["ComplexHermitianEig", "eig_hermitian", "cluster_eigenvalues"]


@dataclass(frozen=True)
class ComplexHermitianEig:
    """Eigenvalues sorted descending; eigenvectors are the matching columns."""

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(h, tol: float = 1e-10) -> ComplexHermitianEig:
    """Full eigendecomposition of a complex Hermitian matrix.

    The reconstruction residual must satisfy
    |H - U diag(w) U*|_F <= tol * max(1, |H|_F), otherwise NoConvergence.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, np.abs(h).max(initial=0.0))
    if np.abs(h - h.conj().T).max(initial=0.0) > 1e-10 * scale:
        raise NotHermitian("matrix is not Hermitian within 1e-10")
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    recon = (vectors * values) @ vectors.conj().T
    hnorm = np.linalg.norm(h)
    if np.linalg.norm(h - recon) > tol * max(1.0, hnorm):
        raise NoConvergence("reconstruction residual exceeds tolerance")
    values.setflags(write=False)
    vectors.setflags(write=False)
    return ComplexHermitianEig(values, vectors)


def cluster_eigenvalues(values, tol_group: float = 1e-8):
    """Group a descending eigenvalue list into (value, multiplicity) clusters.

    Consecutive values within tol_group * max(1, max |values|) of each other
    share a cluster; the cluster value is the mean of its members.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    threshold = tol_group * max(1.0, abs(float(values[0])), abs(float(values[-1])))
    clusters = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i - 1] - values[i] > threshold:
            clusters.append((float(values[start:i].mean()), i - start))
            start = i
    return clusters
