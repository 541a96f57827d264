"""EDDCAM-EA one group and one cluster at a time: the reference the stacked
version in dqeig.dual_eig is checked against.

cluster_eigenvalues walks the eigenvalues one at a time.
eig_dual_complex_hermitian diagonalises each cluster's block with its own
eigh and builds T cluster pair by cluster pair. eddcam_ea maps every
adjoint column back with its own F^-1, and runs Gram-Schmidt, the canonical
phase and the residuals on the immutable DualQuaternionVector objects, one
vector and one projection at a time. tests/test_dual_eig_core.py states how
close the stacked version must come to it.

gram_schmidt and redundant_second are the array kernels that picked the
eigenvectors in 4-part dual quaternion arithmetic before the selection moved
to the adjoint side; they are kept as references for the adjoint-side
Gram-Schmidt, for the vectors it keeps and for the second columns of groups
of 2 it drops.
"""

import numpy as np

from dqeig.adjoint import adjoint, vec_map_f_inverse
from dqeig.dual_eig import PHASE_TIE, DualEigenDecomposition, EigenResult, _check_hermitian
from dqeig.errors import ClusterInstability, NotAnEigenvector
from dqeig.hermitian_eig import eig_hermitian
from dqeig.matrices import (
    DualQuaternionVector, _dq_mul, _dual_norm, _norm_2r, _qmul, _scale_dual, _sumsq,
)
from dqeig.scalars import DualNumber
from tests.dq import dot, dual_norm, entry, norm_2r, scale_right


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
    st, du = p
    base = eig_hermitian(st)
    clusters = cluster_eigenvalues(base.values, tol_group)
    scale = max(1.0, abs(clusters[0][0]), abs(clusters[-1][0])) if clusters else 1.0
    for (left, _), (right, _) in zip(clusters, clusters[1:]):
        if left - right < 10.0 * tol_group * scale:
            raise ClusterInstability(f"cluster gap {left - right:.3e} below 10*tol_group")

    u = base.vectors
    p2 = u.conj().T @ du @ u
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
    lam = np.array([lam for lam, count in clusters for _ in range(count)])
    return DualEigenDecomposition(lam, np.concatenate(mus), u_st, u_st @ t)


def _canonical_phase(v):
    """v right-scaled by conj(e)/|e|, e its first entry whose standard part's
    squared modulus is within a relative PHASE_TIE of the largest."""
    mags = v.v1.real**2 + v.v1.imag**2 + v.v2.real**2 + v.v2.imag**2
    first = next(i for i, m in enumerate(mags) if m >= mags.max() * (1.0 - PHASE_TIE))
    e = entry(v, first)
    return scale_right(v, e.conj() / e.magnitude())


def orthogonalize_eigenvectors(vs, q, lam, tol_rank=1e-8):
    scale = max(1.0, norm_2r(q))
    for v in vs:
        res = norm_2r(q @ v - scale_right(v, lam))
        if res > 1e-8 * scale * max(1.0, norm_2r(v)):
            raise NotAnEigenvector(f"candidate residual {res:.3e} too large for {lam}")
    out = []
    for v in vs:
        w = v
        for u in out:
            w = w - scale_right(u, dot(u, v))
        nrm = dual_norm(w)
        if nrm.st > tol_rank * max(1.0, norm_2r(v)):
            out.append(scale_right(w, nrm.reciprocal()))
    return out


def gram_schmidt(x, tol_rank=1e-8):
    """Classical Gram-Schmidt over the columns of x, a stack of n x k dual
    quaternion parts, in 4-part dual quaternion arithmetic. Each column
    minus its projections onto all the vectors kept so far, taken as one
    stacked product, is normalised and kept unless the standard part of that
    remainder has norm at most tol_rank * max(1, |column|_2R). Returns the
    kept vectors as the rows of a stack of (kept, n) parts.
    """
    n, k = x[0].shape
    bounds = tol_rank * np.maximum(
        1.0, _norm_2r(np.ascontiguousarray(x.transpose(0, 2, 1)), axis=-1)
    )
    # kept vectors as the columns of U (stored as rows) and the rows of U*
    rows = np.empty((4, k, n), dtype=np.complex128)
    conj_rows = np.empty((4, k, n), dtype=np.complex128)
    r = 0
    for j in range(k):
        v = w = x[:, :, j]
        if r:
            c = _dq_mul(conj_rows[:, :r], v)
            w = v - _dq_mul(rows[:, :r].transpose(0, 2, 1), c)
        st, du = _dual_norm(w)
        if st > bounds[j]:
            w = _scale_dual(w, 1.0 / st, -du / (st * st))
            # (A + B j)* = conj(A)^T - B^T j, per part of the dual split
            rows[:, r] = w
            for conj_row, a, flip in zip(conj_rows, w, (np.conj, np.negative) * 2):
                conj_row[r] = flip(a)
            r += 1
    return rows[:, :r]


def redundant_second(x, y, tol_rank=1e-8):
    """Per column, whether Gram-Schmidt drops y after keeping x: the standard
    part of y minus its projection onto the quaternion line of x's has norm at
    most tol_rank * max(1, |y|_2R). x and y are part tuples of n x k dual
    quaternion arrays; only the standard part of x is read.
    """
    x1, x2, y1, y2 = x[0], x[1], y[0], y[1]
    norm_sq = _sumsq(x1, 0) + _sumsq(x2, 0)
    # <x, y> per column: the entrywise products conj(x_i) y_i, summed
    c1, c2 = (c.sum(axis=0) / norm_sq for c in _qmul(np.conj(x1), -x2, y1, y2, np.multiply))
    p1, p2 = _qmul(x1, x2, c1, c2, np.multiply)
    rest = np.sqrt(_sumsq(y1 - p1, 0) + _sumsq(y2 - p2, 0))
    return rest <= tol_rank * np.maximum(1.0, _norm_2r(y, axis=0))


def e_lambda(q, pairs):
    """Mean |Q v - v lam| over the returned pairs, in object arithmetic."""
    residuals = [norm_2r(q @ v - scale_right(v, lam)) for lam, vecs in pairs for v in vecs]
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
    _check_hermitian(q._parts)
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
        candidates = [DualQuaternionVector(*vec_map_f_inverse((dec.u_st[:, k], dec.u_du[:, k])))
                      for k in range(a, b)]
        vecs = orthogonalize_eigenvectors(candidates, q, lam, tol_rank)
        pairs.append((lam, tuple(_canonical_phase(v) for v in vecs)))
    total = sum(len(vecs) for _, vecs in pairs)
    if total != n:
        raise ClusterInstability(f"recovered {total} eigenvectors for dimension {n}")
    return EigenResult(tuple(pairs), e_lambda(q, pairs))
