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

EDDCAM-EA applies this to the adjoint of a dual quaternion Hermitian matrix,
where every eigenvalue shows up with doubled multiplicity, and picks the
eigenvectors on the adjoint side. A column u = F(v) of U_hat and its partner
Hu = F(v j) are orthogonal, and their span under the dual complex inner
product is the image under F of the quaternion line of v. So a group of
adjoint multiplicity 2 is one eigenvector, which one stacked projection onto
span{u, Hu} confirms for all such groups at once, and larger groups run one
Gram-Schmidt over their (st, du) columns that keeps u and Hu of every vector
it keeps. Only the kept vectors are mapped back with F^-1.

The other stages are stacked array operations on the arrays the decomposition
hands over: one batched eigh per cluster block size, T in one masked division,
one check of F^-1 of every column of U_hat, and the returned vectors as the
rows of one (4, n, n) stack of parts, phased, checked for e_lambda and made
read-only at once, each vector object a view of its row. Every
normalization takes the two BLAS dots of the per-vector kernels in
dqeig.matrices, so a group of multiplicity 2 gives bit for bit what they
would give.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import adjoint, vec_map_f_inverse
from .errors import ClusterInstability, DimensionMismatch, NotAnEigenvector, NotHermitian
from .hermitian_eig import _clusters, _run_means, _runs, eig_hermitian
from .matrices import (
    DualQuaternionMatrix, DualQuaternionVector, _carr, _dc_mul, _dq_mul, _dual_norm,
    _eig_residual, _is_hermitian, _norm_2r, _scale_dual, _sumsq, _unit_rows,
)
from .scalars import DualNumber

__all__ = ["DualEigenDecomposition", "EigenResult", "eig_dual_complex_hermitian", "eddcam_ea"]


@dataclass(frozen=True, eq=False)
class DualEigenDecomposition:
    """Unitary dual complex U_hat = u_st + u_du eps and the diagonal sigma of
    dual numbers lam + mu eps, kept as read-only arrays; sigma builds the
    DualNumber objects when asked."""

    lam: np.ndarray
    mu: np.ndarray
    u_st: np.ndarray
    u_du: np.ndarray

    def __post_init__(self):
        for a in (self.lam, self.mu, self.u_st, self.u_du):
            a.setflags(write=False)

    @property
    def sigma(self) -> tuple:
        return tuple(map(DualNumber, self.lam.tolist(), self.mu.tolist()))


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues with orthonormal eigenvector groups, sorted descending.

    residual is e_lambda: the mean 2R-norm residual of Q w = w lam over all
    reported eigenvectors. iterations counts inner power iterations for the
    iterative solvers and is 0 for the direct one. converged is False when a
    power loop hit its iteration cap; pairs then holds what was found.
    """

    pairs: tuple
    residual: float
    iterations: int = 0
    converged: bool = True

    def eigenvalues(self):
        """Flat eigenvalue list, one entry per eigenvector."""
        return [lam for lam, vecs in self.pairs for _ in vecs]

    def eigenvectors(self):
        return [v for _, vecs in self.pairs for v in vecs]


def _check_tol(**tols) -> None:
    """ValueError unless every given tolerance is finite and positive."""
    for name, value in tols.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_square(shape) -> None:
    if shape[0] != shape[1]:
        raise NotHermitian(f"matrix is not square: {shape}")


def _check_hermitian(parts) -> None:
    """NotHermitian unless the matrix with these parts is square and, by
    _is_hermitian, Hermitian within 1e-10 * max(1, its largest entry). The
    parts are (a1, a2, a3, a4) of a dual quaternion matrix Q or (st, du) of a
    dual complex one. The differences of the adjoint of Q are those of Q up
    to sign and conjugation, so a gate on either decides alike."""
    _check_square(parts[0].shape)
    tol = 1e-10 * max(1.0, *(float(np.abs(a).max(initial=0.0)) for a in parts))
    if not _is_hermitian(parts, tol):
        raise NotHermitian("matrix is not Hermitian within 1e-10 of its largest entry")


def eig_dual_complex_hermitian(p, tol_group=1e-8) -> DualEigenDecomposition:
    """Eigendecomposition of the dual complex Hermitian matrix p, the pair
    (st, du) of its parts: 2-d arrays of one shape, or DimensionMismatch."""
    _check_tol(tol_group=tol_group)
    st, du = (_carr(a, 2) for a in p)
    if st.shape != du.shape:
        raise DimensionMismatch(f"parts of shapes {st.shape} and {du.shape}")
    _check_hermitian((st, du))
    base = eig_hermitian(st)
    values, counts = _clusters(base.values, tol_group)
    scale = max(1.0, abs(values[0]), abs(values[-1])) if values.size else 1.0
    gaps = values[:-1] - values[1:]
    narrow = np.flatnonzero(gaps < 10.0 * tol_group * scale)
    if narrow.size:
        raise ClusterInstability(f"cluster gap {gaps[narrow[0]]:.3e} below 10*tol_group; "
                                 "dual coupling entries would blow up")

    u = base.vectors
    p2 = u.conj().T @ du @ u

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
    return DualEigenDecomposition(lam, mu, u_st, u_st @ t)


def _check_eigenvectors(q: DualQuaternionMatrix, x, st, du) -> None:
    """NotAnEigenvector unless every column of x (a stack of n x k parts)
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
    """Classical Gram-Schmidt in dual complex arithmetic over the columns F(v)
    of x, a (st, du) tuple of 2n x k arrays. Each column minus its projections
    onto all the rows kept so far, taken as one stacked product, is kept
    unless the standard part of that remainder w has norm at most
    tol_rank * max(1, |column|_2R). v = F^-1(w) is normalised as _unit would,
    and u = F(v) and F(v conj(j)) = -Hu are kept as rows: projecting onto both
    is projecting onto the quaternion line of v. Returns the kept v as the
    rows of a (4, kept, n) stack of dual quaternion parts.
    """
    m, k = x[0].shape
    n = m // 2
    # every column as one (2, 2n) row; as (4, n) its halves sit in the slots
    # of the parts (v1, v2, v3, v4), v2 and v4 as -conj(v2) and -conj(v4)
    cols = np.stack(x).transpose(2, 0, 1).copy()
    bounds = tol_rank * np.maximum(1.0, _norm_2r(cols.reshape(k, 4, n).transpose(1, 0, 2), -1))
    conj_cols = np.conj(cols)
    kept = np.empty((2, 2 * k, m), dtype=np.complex128)
    r = 0
    for j in range(k):
        w = cols[j]
        if r:
            # w minus the kept rows K weighted by <K, w> = conj(K conj(w))
            ks, kd = kept[0, : 2 * r], kept[1, : 2 * r]
            c = np.conj(_dc_mul((ks, kd), conj_cols[j]))
            w = w - _dc_mul((ks.T, kd.T), c)
        # the dual norm of v: the halves of w's rows hold v1, v2 (v3, v4) up
        # to conjugation and sign, which leave the real parts of the products
        # _dual_norm sums as they are
        st, du = _dual_norm(w)
        if st > bounds[j]:
            v = w.reshape(4, n)
            np.negative(np.conj(v[1::2]), out=v[1::2])
            v = _scale_dual(v, 1.0 / st, -du / (st * st))
            # u = (v1, -conj(v2); v3, -conj(v4)), -Hu = (v2, conj(v1); v4, conj(v3))
            u, hu = kept[:, 2 * r].reshape(2, 2, n), kept[:, 2 * r + 1].reshape(2, 2, n)
            u[:, 0], hu[:, 0] = v[0::2], v[1::2]
            np.negative(np.conj(v[1::2]), out=u[:, 1])
            np.conj(v[0::2], out=hu[:, 1])
            r += 1
    return np.stack([kept[p, h : 2 * r : 2, :n] for p in (0, 1) for h in (0, 1)])


def _redundant_partner(x, y, tol_rank: float):
    """Per row, whether Gram-Schmidt drops y after keeping x, on the adjoint
    side: the standard part of y minus its projection onto span{x, Hx} has
    norm at most tol_rank * max(1, |y|_2R). x is the standard part and y the
    (st, du) tuple of (g, 2n) arrays whose rows are F-mapped vectors. The
    Hx terms run on the halves, with Hx = (conj(x_bot), -conj(x_top)), and
    are taken off the remainder in place.
    """
    n = x.shape[-1] // 2
    xt, xb, yt, yb = x[:, :n], x[:, n:], y[0][:, :n], y[0][:, n:]
    norm_sq = _sumsq(x, -1)[:, None]
    a = np.add.reduce(np.conj(x) * y[0], -1)[:, None] / norm_sq
    b = np.add.reduce(xb * yt - xt * yb, -1)[:, None] / norm_sq
    rest = y[0] - x * a
    rest[:, :n] -= np.conj(xb) * b
    rest[:, n:] += np.conj(xt) * b
    return np.sqrt(_sumsq(rest, -1)) <= tol_rank * np.maximum(1.0, _norm_2r(y, -1))


# relative gap below which squared moduli tie for the canonical phase
PHASE_TIE = 1e-12
# DualQuaternion.conj on quaternion components (w, x, y, z)
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])[:, None]


def _canonical_phase(x):
    """Right-scale each row of x, the (4, k, n) stack of the parts of k unit
    vectors, by the unit dual quaternion conj(e)/|e| of its entry e with the
    largest standard-part modulus, which makes that entry a nonnegative dual
    number. e is the first entry whose squared modulus is within a relative
    PHASE_TIE of the largest, so entries that tie up to rounding do not make
    the choice depend on it. Makes eigenvectors reproducible across runs;
    the eigenpair property is unchanged because dual-number eigenvalues
    commute with the scaling. conj(e)/|e| is formed on the real components
    in the order of DualQuaternion.conj, magnitude and division."""
    v1, v2 = x[0], x[1]
    k = len(v1)
    mags = v1.real**2 + v1.imag**2 + v2.real**2 + v2.imag**2
    top = mags.max(axis=-1, keepdims=True)
    rows, cols = np.arange(k), (mags >= top * (1.0 - PHASE_TIE)).argmax(axis=-1)
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
    return _dq_mul(x, c.T[:, :, None], np.multiply)


def eddcam_ea(
    q: DualQuaternionMatrix, tol_group: float = 1e-8, tol_rank: float = 1e-8
) -> EigenResult:
    """All eigenpairs of a dual quaternion Hermitian matrix, directly.

    Pipeline: adjoint -> dual complex eigendecomposition -> group the
    adjoint eigenvector columns by equal dual-number eigenvalues -> check F^-1
    of every column -> orthogonalize each group on the adjoint side. Each
    group of adjoint multiplicity t yields exactly t/2 eigenvectors.

    A non-square Q raises NotHermitian with Q's shape. The Hermitian gate
    runs once, on the adjoint in the decomposition: its entries are those of
    Q's parts up to sign and conjugation, so it decides as a gate on Q would.
    """
    _check_tol(tol_group=tol_group, tol_rank=tol_rank)
    _check_square(q.shape)
    dec = eig_dual_complex_hermitian(adjoint(q), tol_group)
    n = q.rows
    if n == 0:
        return EigenResult((), 0.0)
    st, du, s, d = dec.lam, dec.mu, dec.u_st, dec.u_du

    # consecutive grouping: sigma is sorted descending in the dual order
    cut = np.zeros(len(st) - 1, dtype=bool)
    for a in (st, du):
        cut |= np.abs(a[1:] - a[:-1]) > tol_group * max(1.0, float(np.abs(a).max()))
    starts, sizes = _runs(cut)
    lam_st, lam_du = _run_means(st, starts, sizes), _run_means(du, starts, sizes)

    # F^-1 of every column of U_hat at once, and every candidate checked
    cand = vec_map_f_inverse((s, d))
    _check_eigenvectors(q, cand, np.repeat(lam_st, sizes), np.repeat(lam_du, sizes))

    # A group of adjoint multiplicity 2 is one eigenvector and its H-partner:
    # Gram-Schmidt keeps the first candidate, normalised, and drops the second.
    # That the second is redundant is checked for all such groups at once: a
    # tiny tol_group can split a double eigenvalue into two groups of 2 that
    # are not H-partners, and those go through Gram-Schmidt, whose count the
    # check below then rejects.
    twos = np.flatnonzero(sizes == 2)
    first = starts[twos]
    redundant = _redundant_partner(s.T[first], (s.T[first + 1], d.T[first + 1]), tol_rank)
    shortcut = np.zeros(len(starts), dtype=bool)
    shortcut[twos[redundant]] = True
    gs = np.flatnonzero(~shortcut)
    kept = [_gram_schmidt((s[:, a : a + k], d[:, a : a + k]), tol_rank)
            for a, k in zip(starts[gs], sizes[gs])]
    counts = np.ones(len(starts), dtype=int)
    counts[gs] = [len(rows[0]) for rows in kept]
    if counts.sum() != n:
        raise ClusterInstability(f"recovered {counts.sum()} eigenvectors for dimension {n}; "
                                 "eigenvalue grouping is unstable at this tolerance")

    # every returned vector as a row of one (4, n, n) array of parts
    offsets = np.cumsum(counts) - counts
    x = np.empty((4, n, n), dtype=np.complex128)
    x[:, offsets[shortcut]] = _unit_rows(cand.transpose(0, 2, 1)[:, starts[shortcut]])
    for o, rows in zip(offsets[gs], kept):
        x[:, o : o + len(rows[0])] = rows
    x = _canonical_phase(x)
    x.setflags(write=False)

    # e_lambda from one residual product over the returned vectors
    lam = np.repeat(lam_st, counts), np.repeat(lam_du, counts)
    res = _eig_residual(q._parts, x.transpose(0, 2, 1), *lam, axis=0)
    vecs = [DualQuaternionVector._of(x[:, k]) for k in range(n)]
    pairs = tuple(
        (DualNumber(a, b), tuple(vecs[o : o + k]))
        for a, b, o, k in zip(lam_st.tolist(), lam_du.tolist(), offsets.tolist(), counts.tolist())
    )
    return EigenResult(pairs, float(np.mean(res)))
