"""EDDCAM-EA one group and one cluster at a time: the reference the stacked
version in dqeig.dual_eig is checked against.

cluster_eigenvalues walks the eigenvalues one at a time.
eig_dual_complex_hermitian diagonalises each cluster's block with its own
eigh and builds T cluster pair by cluster pair. eddcam_ea maps every
adjoint column back with its own F^-1, and runs Gram-Schmidt, the canonical
phase and the residuals on the immutable DualQuaternionVector objects, one
vector and one projection at a time. tests/test_dual_eig_core.py states how
close the stacked version must come to it.
"""

import numpy as np

from dqeig.adjoint import adjoint, vec_map_f_inverse
from dqeig.dual_eig import DualEigenDecomposition, EigenResult, _check_hermitian
from dqeig.errors import ClusterInstability, NotAnEigenvector
from dqeig.hermitian_eig import eig_hermitian
from dqeig.matrices import DualComplexMatrix
from dqeig.scalars import DualNumber


def cluster_eigenvalues(values, tol_group=1e-8):
    """(value, multiplicity) clusters of a descending list, one value at a time."""
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


def eig_dual_complex_hermitian(p, tol_group=1e-8):
    _check_hermitian(p)
    base = eig_hermitian(p.st)
    clusters = cluster_eigenvalues(base.values, tol_group)
    scale = max(1.0, abs(clusters[0][0]), abs(clusters[-1][0])) if clusters else 1.0
    for (left, _), (right, _) in zip(clusters, clusters[1:]):
        if left - right < 10.0 * tol_group * scale:
            raise ClusterInstability(f"cluster gap {left - right:.3e} below 10*tol_group")

    u = base.vectors
    p2 = u.conj().T @ p.du @ u
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
    sigma = tuple(
        DualNumber(lam, float(mu))
        for (lam, _), cluster_mus in zip(clusters, mus)
        for mu in cluster_mus
    )
    return DualEigenDecomposition(DualComplexMatrix(u_st, u_st @ t), sigma)


def _canonical_phase(v):
    """v right-scaled by conj(e)/|e|, e its entry with the largest standard part."""
    mags = v.v1.real**2 + v.v1.imag**2 + v.v2.real**2 + v.v2.imag**2
    e = v.entry(int(np.argmax(mags)))
    return v.scale_right(e.conj() / e.magnitude())


def orthogonalize_eigenvectors(vs, q, lam, tol_rank=1e-8):
    scale = max(1.0, q.norm_fr())
    for v in vs:
        res = (q @ v - v.scale_right(lam)).norm_2r()
        if res > 1e-8 * scale * max(1.0, v.norm_2r()):
            raise NotAnEigenvector(f"candidate residual {res:.3e} too large for {lam}")
    out = []
    for v in vs:
        w = v
        for u in out:
            w = w - u.scale_right(u.dot(v))
        nrm = w.norm_2()
        if nrm.st > tol_rank * max(1.0, v.norm_2r()):
            out.append(w.scale_right(nrm.reciprocal()))
    return out


def e_lambda(q, pairs):
    """Mean |Q v - v lam| over the returned pairs, in object arithmetic."""
    residuals = [(q @ v - v.scale_right(lam)).norm_2r() for lam, vecs in pairs for v in vecs]
    return float(np.mean(residuals))


def groups(sigma, tol_group=1e-8):
    """(start, stop) of each run of equal dual-number eigenvalues in sigma."""
    st_scale = max(1.0, max(abs(s.st) for s in sigma))
    du_scale = max(1.0, max(abs(s.du) for s in sigma))
    out = []
    start = 0
    for i in range(1, len(sigma) + 1):
        if (
            i == len(sigma)
            or abs(sigma[i].st - sigma[i - 1].st) > tol_group * st_scale
            or abs(sigma[i].du - sigma[i - 1].du) > tol_group * du_scale
        ):
            out.append((start, i))
            start = i
    return out


def eddcam_ea(q, tol_group=1e-8, tol_rank=1e-8):
    _check_hermitian(q)
    n = q.rows
    if n == 0:
        return EigenResult((), 0.0)
    dec = eig_dual_complex_hermitian(adjoint(q), tol_group)
    sigma = dec.sigma
    pairs = []
    for a, b in groups(sigma, tol_group):
        lam = DualNumber(
            float(np.mean([sigma[k].st for k in range(a, b)])),
            float(np.mean([sigma[k].du for k in range(a, b)])),
        )
        candidates = [vec_map_f_inverse(dec.u_hat.column(k)) for k in range(a, b)]
        vecs = orthogonalize_eigenvectors(candidates, q, lam, tol_rank)
        pairs.append((lam, tuple(_canonical_phase(v) for v in vecs)))
    total = sum(len(vecs) for _, vecs in pairs)
    if total != n:
        raise ClusterInstability(f"recovered {total} eigenvectors for dimension {n}")
    return EigenResult(tuple(pairs), e_lambda(q, pairs))
