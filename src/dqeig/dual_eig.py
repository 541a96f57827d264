"""Eigendecomposition of dual complex Hermitian matrices and the full
eigenpair solver (EDDCAM-EA) for dual quaternion Hermitian matrices.

The dual complex decomposition is direct. Write P = P1 + P2*eps. A unitary U
diagonalizes P1 into clusters lam_i of multiplicity n_i. In the rotated frame
the dual part couples clusters; diagonalizing each diagonal block of
U* P2 U with a block-diagonal V fixes the dual parts mu, and the off-diagonal
coupling is absorbed to first order by T with

    T_ii = 0,   T_ij = Q_ij / (lam_j - lam_i),   Q = V* U* P2 U V.

Then U_hat = U V (I + T*eps) is unitary and U_hat* P U_hat is the diagonal of
dual numbers lam_i + mu_ij*eps.

EDDCAM-EA applies this to the adjoint of a dual quaternion Hermitian matrix:
every eigenvalue shows up there with doubled multiplicity, each group of
adjoint eigenvectors maps back through F^-1, and Gram-Schmidt in dual
quaternion arithmetic, run on the raw component arrays, strips the redundant
half.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import adjoint, vec_map_f_inverse
from .errors import ClusterInstability, NotAnEigenvector, NotHermitian
from .hermitian_eig import cluster_eigenvalues, eig_hermitian
from .matrices import (
    DualComplexMatrix,
    DualQuaternionMatrix,
    DualQuaternionVector,
    _dq_dot,
    _dq_mul,
    _dual_norm,
    _eig_residual,
    _norm_2r,
    _unit,
)
from .scalars import DualNumber

__all__ = [
    "DualEigenDecomposition",
    "EigenResult",
    "eig_dual_complex_hermitian",
    "orthogonalize_eigenvectors",
    "eddcam_ea",
]


@dataclass(frozen=True)
class DualEigenDecomposition:
    """Unitary dual complex U_hat and the diagonal sigma of dual numbers."""

    u_hat: DualComplexMatrix
    sigma: tuple


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues with orthonormal eigenvector groups, sorted descending.

    residual is e_lambda: the mean 2R-norm residual of Q w = w lam over all
    reported eigenvectors. iterations counts inner power iterations for the
    iterative solvers and is 0 for the direct one.
    """

    pairs: tuple
    residual: float
    iterations: int = 0

    def eigenvalues(self):
        """Flat eigenvalue list, one entry per eigenvector."""
        return [lam for lam, vecs in self.pairs for _ in vecs]

    def eigenvectors(self):
        return [v for _, vecs in self.pairs for v in vecs]


def _check_hermitian(m) -> None:
    """NotHermitian unless the dual quaternion or dual complex matrix m is
    square and Hermitian within 1e-10 * max(1, its largest entry)."""
    if m.rows != m.cols:
        raise NotHermitian(f"matrix is not square: {m.shape}")
    scale = max(1.0, *(float(np.abs(a).max(initial=0.0)) for a in m._parts))
    if not m.is_hermitian(1e-10 * scale):
        raise NotHermitian("matrix is not Hermitian within 1e-10 of its largest entry")


def eig_dual_complex_hermitian(
    p: DualComplexMatrix, tol_group: float = 1e-8
) -> DualEigenDecomposition:
    """Eigendecomposition of a dual complex Hermitian matrix."""
    _check_hermitian(p)

    base = eig_hermitian(p.st)
    clusters = cluster_eigenvalues(base.values, tol_group)
    scale = max(1.0, abs(clusters[0][0]), abs(clusters[-1][0])) if clusters else 1.0
    for (left, _), (right, _) in zip(clusters, clusters[1:]):
        if left - right < 10.0 * tol_group * scale:
            raise ClusterInstability(
                f"cluster gap {left - right:.3e} below 10*tol_group; "
                "dual coupling entries would blow up"
            )

    u = base.vectors
    p2 = u.conj().T @ p.du @ u

    # diagonalize each diagonal block of the rotated dual part
    v = np.zeros_like(u)
    mus = []
    offsets = []
    start = 0
    for _, count in clusters:
        block = p2[start : start + count, start : start + count]
        sub = eig_hermitian(0.5 * (block + block.conj().T))
        v[start : start + count, start : start + count] = sub.vectors
        mus.append(sub.values)
        offsets.append((start, start + count))
        start += count

    q = v.conj().T @ p2 @ v
    t = np.zeros_like(q)
    for (lam_i, _), (ai, bi) in zip(clusters, offsets):
        for (lam_j, _), (aj, bj) in zip(clusters, offsets):
            if (ai, bi) != (aj, bj):
                t[ai:bi, aj:bj] = q[ai:bi, aj:bj] / (lam_j - lam_i)

    u_st = u @ v
    u_hat = DualComplexMatrix(u_st, u_st @ t)
    sigma = tuple(
        DualNumber(lam, float(mu))
        for (lam, _), cluster_mus in zip(clusters, mus)
        for mu in cluster_mus
    )
    return DualEigenDecomposition(u_hat, sigma)


def orthogonalize_eigenvectors(
    vs,
    q: DualQuaternionMatrix,
    lam: DualNumber,
    tol_rank: float = 1e-8,
):
    """Gram-Schmidt over dual quaternion arithmetic for one eigenvalue.

    Every input must already satisfy Q v = v lam to residual 1e-8 (checked).
    Candidates whose remainder has a standard-part norm at or below tol_rank
    are redundant and dropped; survivors are orthonormal eigenvectors.
    """
    if not vs:
        return []
    scale = max(1.0, q.norm_fr())
    # the whole group is checked with one product of Q and the stacked candidates
    stacked = tuple(np.stack(part, axis=1) for part in zip(*(v._parts for v in vs)))
    sizes = _norm_2r(stacked, axis=0)
    res = _eig_residual(q._parts, stacked, lam.st, lam.du, axis=0)
    bad = np.flatnonzero(res > 1e-8 * scale * np.maximum(1.0, sizes))
    if bad.size:
        raise NotAnEigenvector(f"candidate residual {res[bad[0]]:.3e} too large for {lam}")
    out = []
    for v in vs:
        x = w = v._parts
        for u in out:
            c = _dq_mul(u, _dq_dot(u, x), np.multiply)
            w = tuple(a - b for a, b in zip(w, c))
        if _dual_norm(w)[0] > tol_rank * max(1.0, v.norm_2r()):
            out.append(_unit(w))
    return [DualQuaternionVector(*x) for x in out]


def _canonical_phase(v: DualQuaternionVector) -> DualQuaternionVector:
    """Right-scale by a unit dual quaternion so the entry with the largest
    standard part becomes a nonnegative dual number. Makes eigenvectors
    reproducible across runs; the eigenpair property is unchanged because
    dual-number eigenvalues commute with the scaling."""
    mags = (
        v.v1.real**2 + v.v1.imag**2 + v.v2.real**2 + v.v2.imag**2
    )
    idx = int(np.argmax(mags))
    e = v.entry(idx)
    a = e.conj() / e.magnitude()
    return v.scale_right(a)


def eddcam_ea(
    q: DualQuaternionMatrix,
    tol_group: float = 1e-8,
    tol_rank: float = 1e-8,
) -> EigenResult:
    """All eigenpairs of a dual quaternion Hermitian matrix, directly.

    Pipeline: adjoint -> dual complex eigendecomposition -> group the
    adjoint eigenvector columns by equal dual-number eigenvalues -> map each
    column back with F^-1 -> orthogonalize within each group. Each group of
    adjoint multiplicity t yields exactly t/2 eigenvectors.
    """
    _check_hermitian(q)
    n = q.rows
    if n == 0:
        return EigenResult((), 0.0)

    dec = eig_dual_complex_hermitian(adjoint(q), tol_group)
    sigma = dec.sigma
    st_scale = max(1.0, max(abs(s.st) for s in sigma))
    du_scale = max(1.0, max(abs(s.du) for s in sigma))

    # consecutive grouping: sigma is sorted descending in the dual order
    groups = []
    start = 0
    for i in range(1, len(sigma) + 1):
        if (
            i == len(sigma)
            or abs(sigma[i].st - sigma[i - 1].st) > tol_group * st_scale
            or abs(sigma[i].du - sigma[i - 1].du) > tol_group * du_scale
        ):
            groups.append((start, i))
            start = i

    pairs = []
    for a, b in groups:
        lam = DualNumber(
            float(np.mean([sigma[k].st for k in range(a, b)])),
            float(np.mean([sigma[k].du for k in range(a, b)])),
        )
        candidates = [vec_map_f_inverse(dec.u_hat.column(k)) for k in range(a, b)]
        vecs = orthogonalize_eigenvectors(candidates, q, lam, tol_rank)
        vecs = [_canonical_phase(v) for v in vecs]
        pairs.append((lam, tuple(vecs)))

    total = sum(len(vecs) for _, vecs in pairs)
    if total != n:
        raise ClusterInstability(
            f"recovered {total} eigenvectors for dimension {n}; "
            "eigenvalue grouping is unstable at this tolerance"
        )
    residuals = [
        _eig_residual(q._parts, v._parts, lam.st, lam.du) for lam, vecs in pairs for v in vecs
    ]
    return EigenResult(tuple(pairs), float(np.mean(residuals)))
