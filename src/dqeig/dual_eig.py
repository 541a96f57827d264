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

Every stage is a stacked array operation rather than one per cluster, group
or vector: clusters, groups and their means as arrays, one batched eigh per
cluster block size, T in one masked division, F^-1 and the eigenvector check
over all columns of U_hat at once. The returned vectors are the rows of one
stacked (n, n) array per part: a group of adjoint multiplicity 2 gives its
first candidate, and all of these are normalised at once; larger groups
write their Gram-Schmidt survivors, which loops over the group's candidates.
One pass then applies the canonical phase to every row, e_lambda comes from
one residual product over the rows, and the DualQuaternionVector objects are
read-only views of the rows, built once at the end. Every reduction over a
vector runs along its row, in the order the per-vector kernels in
dqeig.matrices use, so the results are bit for bit those of normalising and
phasing each vector on its own.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import adjoint
from .errors import ClusterInstability, NotAnEigenvector, NotHermitian
from .hermitian_eig import _clusters, _run_means, _runs, eig_hermitian
from .matrices import (
    DualComplexMatrix,
    DualQuaternionMatrix,
    DualQuaternionVector,
    _dq_mul,
    _dual_norm,
    _eig_residual,
    _norm_2r,
    _qmul,
    _scale_dual,
    _sumsq,
    _unit_rows,
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
    values, counts = _clusters(base.values, tol_group)
    scale = max(1.0, abs(values[0]), abs(values[-1])) if values.size else 1.0
    gaps = values[:-1] - values[1:]
    narrow = np.flatnonzero(gaps < 10.0 * tol_group * scale)
    if narrow.size:
        raise ClusterInstability(
            f"cluster gap {gaps[narrow[0]]:.3e} below 10*tol_group; "
            "dual coupling entries would blow up"
        )

    u = base.vectors
    p2 = u.conj().T @ p.du @ u

    # diagonalize the diagonal blocks of the rotated dual part, all blocks of
    # one size in one batched eigh
    starts = np.cumsum(counts) - counts
    v = np.zeros_like(u)
    mu = np.zeros(len(u))
    for size in np.unique(counts):
        idx = starts[counts == size, None] + np.arange(size)
        rows, cols = idx[:, :, None], idx[:, None, :]
        blocks = p2[rows, cols]
        sub = eig_hermitian(0.5 * (blocks + blocks.conj().swapaxes(-1, -2)))
        v[rows, cols] = sub.vectors
        mu[idx] = sub.values

    # T_ij = Q_ij / (lam_j - lam_i) between distinct clusters, 0 within one
    lam = np.repeat(values, counts)
    cluster_id = np.repeat(np.arange(len(counts)), counts)
    q = v.conj().T @ p2 @ v
    t = np.zeros_like(q)
    np.divide(q, lam - lam[:, None], out=t, where=cluster_id != cluster_id[:, None])

    u_st = u @ v
    u_hat = DualComplexMatrix(u_st, u_st @ t)
    sigma = tuple(map(DualNumber, lam.tolist(), mu.tolist()))
    return DualEigenDecomposition(u_hat, sigma)


def _check_eigenvectors(q: DualQuaternionMatrix, x, st, du) -> None:
    """NotAnEigenvector unless every column of x (a part tuple of n x k arrays)
    satisfies Q x = x (st[j] + du[j] eps) to residual
    1e-8 * max(1, |Q|_F) * max(1, |x|_2R)."""
    scale = max(1.0, q.norm_fr())
    res = _eig_residual(q._parts, x, st, du, axis=0)
    bad = np.flatnonzero(res > 1e-8 * scale * np.maximum(1.0, _norm_2r(x, axis=0)))
    if bad.size:
        k = bad[0]
        lam = DualNumber(float(st[k]), float(du[k]))
        raise NotAnEigenvector(f"candidate residual {res[k]:.3e} too large for {lam}")


def _gram_schmidt(x, tol_rank: float):
    """Classical Gram-Schmidt over the columns of x, a part tuple of n x k
    dual quaternion arrays. Each column minus its projections onto all the
    vectors kept so far, taken as one stacked product, is normalised and kept
    unless the standard part of that remainder has norm at most
    tol_rank * max(1, |column|_2R). Returns the kept vectors as the rows of a
    part tuple of (kept, n) arrays.
    """
    n, k = x[0].shape
    # |column|_2R of every column, the columns copied to rows so that each is
    # reduced as _norm_2r reduces one vector
    bounds = tol_rank * np.maximum(
        1.0, _norm_2r(tuple(np.ascontiguousarray(a.T) for a in x), axis=-1)
    )
    # kept vectors as the columns of U (stored as rows) and the rows of U*
    rows = [np.empty((k, n), dtype=np.complex128) for _ in x]
    conj_rows = [np.empty((k, n), dtype=np.complex128) for _ in x]
    r = 0
    for j in range(k):
        v = w = tuple(a[:, j] for a in x)
        if r:
            c = _dq_mul(tuple(a[:r] for a in conj_rows), v)
            w = tuple(a - b for a, b in zip(v, _dq_mul(tuple(a[:r].T for a in rows), c)))
        st, du = _dual_norm(w)
        if st > bounds[j]:
            # _unit(w), whose standard part is nonzero here
            w = _scale_dual(w, 1.0 / st, -du / (st * st))
            # (A + B j)* = conj(A)^T - B^T j, per part of the dual split
            for row, conj_row, a, flip in zip(rows, conj_rows, w, (np.conj, np.negative) * 2):
                row[r] = a
                conj_row[r] = flip(a)
            r += 1
    return tuple(row[:r] for row in rows)


def _redundant_second(x, y, tol_rank: float):
    """Per column, whether Gram-Schmidt drops y after keeping x: the standard
    part of y minus its projection onto the quaternion line of x's has norm at
    most tol_rank * max(1, |y|_2R). x and y are part tuples of n x k arrays;
    only the standard part of x is read.
    """
    x1, x2, y1, y2 = x[0], x[1], y[0], y[1]
    norm_sq = _sumsq(x1, 0) + _sumsq(x2, 0)
    # <x, y> per column: the entrywise products conj(x_i) y_i, summed
    c1, c2 = (c.sum(axis=0) / norm_sq for c in _qmul(np.conj(x1), -x2, y1, y2, np.multiply))
    p1, p2 = _qmul(x1, x2, c1, c2, np.multiply)
    rest = np.sqrt(_sumsq(y1 - p1, 0) + _sumsq(y2 - p2, 0))
    return rest <= tol_rank * np.maximum(1.0, _norm_2r(y, axis=0))


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
    x = tuple(np.stack(part, axis=1) for part in zip(*(v._parts for v in vs)))
    _check_eigenvectors(q, x, np.full(len(vs), lam.st), np.full(len(vs), lam.du))
    return [DualQuaternionVector(*w) for w in zip(*_gram_schmidt(x, tol_rank))]


# DualQuaternion.conj on quaternion components (w, x, y, z)
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])[:, None]


def _canonical_phase(x):
    """Right-scale each row of x, a part tuple of (k, n) arrays of unit
    vectors, by the unit dual quaternion conj(e)/|e| of its entry e with the
    largest standard-part modulus, which makes that entry a nonnegative dual
    number. Makes eigenvectors reproducible across runs; the eigenpair
    property is unchanged because dual-number eigenvalues commute with the
    scaling. conj(e)/|e| is formed on the real components in the order of
    DualQuaternion.conj, magnitude and division."""
    v1, v2 = x[0], x[1]
    k = len(v1)
    mags = v1.real**2 + v1.imag**2 + v2.real**2 + v2.imag**2
    rows, cols = np.arange(k), mags.argmax(axis=-1)
    e = np.stack([a[rows, cols] for a in x])
    # the (w, x, y, z) components of e's standard and dual parts, conjugated
    st, du = e.view(np.float64).reshape(2, 2, k, 2).transpose(0, 1, 3, 2).reshape(2, 4, k)
    conj_st, conj_du = st * _CONJ, du * _CONJ
    # |e| = m + m' eps with m' = sc(conj(e_st) e_du) / m, m > 0 for unit rows
    sq = conj_st * conj_st
    m = np.sqrt(sq[0] + sq[1] + sq[2] + sq[3])
    cross = conj_st * du
    m_du = (cross[0] - cross[1] - cross[2] - cross[3]) / m
    # conj(e) (1/m - m'/m^2 eps), as complex pairs (a1, a2, a3, a4) per row
    r_st, r_du = 1.0 / m, -m_du / (m * m)
    a = np.concatenate([conj_st * r_st, conj_st * r_du + conj_du * r_st])
    c = np.ascontiguousarray(a.T).view(np.complex128)
    return _dq_mul(x, tuple(c[:, i : i + 1] for i in range(4)), np.multiply)


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
    st, du = np.array([(s.st, s.du) for s in dec.sigma]).T
    st_scale = max(1.0, float(np.abs(st).max()))
    du_scale = max(1.0, float(np.abs(du).max()))

    # consecutive grouping: sigma is sorted descending in the dual order
    cut = (np.abs(np.diff(st)) > tol_group * st_scale) | (
        np.abs(np.diff(du)) > tol_group * du_scale
    )
    starts, sizes = _runs(cut)
    lam_st, lam_du = _run_means(st, starts, sizes), _run_means(du, starts, sizes)

    # F^-1 of every column of U_hat at once, and every candidate checked
    s, d = dec.u_hat.st, dec.u_hat.du
    cand = (s[:n], -s[n:].conj(), d[:n], -d[n:].conj())
    _check_eigenvectors(q, cand, np.repeat(lam_st, sizes), np.repeat(lam_du, sizes))

    # A group of adjoint multiplicity 2 is one eigenvector and its H-partner:
    # Gram-Schmidt keeps the first candidate, normalised, and drops the second.
    # That the second is redundant is checked for all such groups at once: a
    # tiny tol_group can split a double eigenvalue into two groups of 2 that
    # are not H-partners, and those go through Gram-Schmidt, whose count the
    # check below then rejects.
    twos = np.flatnonzero(sizes == 2)
    first = starts[twos]
    redundant = _redundant_second(
        tuple(a[:, first] for a in cand[:2]), tuple(a[:, first + 1] for a in cand), tol_rank
    )
    shortcut = np.zeros(len(starts), dtype=bool)
    shortcut[twos[redundant]] = True
    kept = {
        g: _gram_schmidt(tuple(c[:, a : a + k] for c in cand), tol_rank)
        for g, a, k in zip(np.flatnonzero(~shortcut), starts[~shortcut], sizes[~shortcut])
    }
    counts = np.ones(len(starts), dtype=int)
    for g, rows in kept.items():
        counts[g] = len(rows[0])
    total = int(counts.sum())
    if total != n:
        raise ClusterInstability(
            f"recovered {total} eigenvectors for dimension {n}; "
            "eigenvalue grouping is unstable at this tolerance"
        )

    # every returned vector as a row of one stacked (n, n) array per part
    offsets = np.cumsum(counts) - counts
    x = [np.empty((n, n), dtype=np.complex128) for _ in cand]
    for a, u in zip(x, _unit_rows(tuple(c.T[starts[shortcut]] for c in cand))):
        a[offsets[shortcut]] = u
    for g, rows in kept.items():
        for a, u in zip(x, rows):
            a[offsets[g] : offsets[g] + len(u)] = u
    x = _canonical_phase(x)
    for a in x:
        a.setflags(write=False)

    # e_lambda from one residual product over the returned vectors
    res = _eig_residual(
        q._parts, tuple(a.T for a in x), np.repeat(lam_st, counts),
        np.repeat(lam_du, counts), axis=0,
    )
    vecs = [DualQuaternionVector._wrap(*parts) for parts in zip(*x)]
    pairs = tuple(
        (DualNumber(a, b), tuple(vecs[o : o + k]))
        for a, b, o, k in zip(lam_st.tolist(), lam_du.tolist(), offsets.tolist(), counts.tolist())
    )
    return EigenResult(pairs, float(np.mean(res)))
