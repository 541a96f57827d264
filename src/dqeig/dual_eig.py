"""Eigendecomposition of dual complex Hermitian matrices and the full
eigenpair solver (EDDCAM-EA) for dual quaternion Hermitian matrices.

The dual complex decomposition is direct. Write P = P1 + P2*eps. A unitary U
diagonalizes P1 into clusters lam_i of multiplicity n_i. In the rotated frame
the dual part couples clusters; diagonalizing each diagonal block of U* P2 U
with a block-diagonal V fixes the dual parts mu, and T absorbs the
off-diagonal coupling to first order:

    T_ii = 0,   T_ij = Q_ij / (lam_j - lam_i),   Q = V* U* P2 U V.

Then U_hat = U V (I + T*eps) is unitary and U_hat* P U_hat is the diagonal of
dual numbers lam_i + mu_ij*eps.

EDDCAM-EA applies this to the adjoint of a dual quaternion Hermitian matrix,
where every eigenvalue shows up doubled. A column u = F(v) and Hu = F(v j)
span the image under F of the quaternion line of v, on which U* P2 U is mu I:
a cluster of 2 takes V = I and mu = Re(u* P2 u), and a group of 2 returns its
first column once a rank test finds its second on that span. Gram-Schmidt,
keeping u and Hu of each vector it keeps, picks the t/2 eigenvectors of every
larger group of t columns. One residual of the returned vectors checks them.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import adjoint, vec_map_f, vec_map_f_inverse
from .errors import ClusterInstability, DimensionMismatch, NotAnEigenvector, NotHermitian
from .hermitian_eig import TOL_RECON, _clusters, _eigh, _runs
from .matrices import (
    DualQuaternionMatrix, DualQuaternionVector, _asymmetry, _carr, _dq_mul, _eig_residual,
    _norm_2r, _scale_dual, _sumsq,
)
from .scalars import DualNumber

__all__ = ["DualEigenDecomposition", "EigenResult", "eig_dual_complex_hermitian", "eddcam_ea"]

# tolerances of the eigenvalue clustering and grouping and of the rank test
# of Gram-Schmidt, relative to max(1, the largest magnitude involved)
TOL_GROUP = 1e-8
TOL_RANK = 1e-8
# the most column entries per batched Gram-Schmidt: its temporaries stay a few MB at n = 200
GS_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class DualEigenDecomposition:
    """Unitary dual complex U_hat = u_st + u_du eps and the diagonal sigma of
    dual numbers lam + mu eps, as read-only arrays; sigma builds DualNumbers."""

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
    power loop hit its iteration cap; pairs then holds what was found."""

    pairs: tuple
    residual: float
    iterations: int = 0
    converged: bool = True

    def eigenvalues(self):
        """Flat eigenvalue list, one entry per eigenvector."""
        return [lam for lam, vecs in self.pairs for _ in vecs]

    def eigenvectors(self):
        return [v for _, vecs in self.pairs for v in vecs]


def _check_hermitian(parts):
    """NotHermitian unless the matrix with parts (a1, a2, a3, a4) of a dual
    quaternion Q, or (st, du) of Q's adjoint, which has Q's differences up to
    sign and conjugation, is square and no part's _asymmetry passes 1e-10 *
    max(1, its largest entry). Returns the asymmetries and largest entries."""
    if parts[0].shape[0] != parts[0].shape[1]:
        raise NotHermitian(f"matrix is not square: {parts[0].shape}")
    big, asym = np.abs(parts).max(axis=(1, 2), initial=0.0).tolist(), _asymmetry(parts)
    if not all(d <= 1e-10 * max(1.0, *big) for d in asym):
        raise NotHermitian("matrix is not Hermitian within 1e-10 of its largest entry")
    return asym, big


def _check_decomposable(parts) -> None:
    """_check_hermitian, and NotHermitian unless the standard half of the parts
    is Hermitian within 1e-10 * max(1, its own largest entry), as eig_hermitian."""
    (asym, big), h = _check_hermitian(parts), len(parts) // 2
    if max(asym[:h]) > 1e-10 * max(1.0, *big[:h]):
        raise NotHermitian("matrix is not Hermitian within 1e-10")


def _frame(st, du):
    """(lam, mu, w) of the gated dual complex Hermitian (st, du), m x m, with w
    the (m, 2m) stack X* [I | P2] of X = U V. Eigenvalues of P1 within TOL_GROUP
    * max(1, max |lam|) share a cluster; clusters closer than ten times that
    raise ClusterInstability. A cluster of 2 takes V = I and mu = Re(u* P2 u) of
    its first column u when its block of (U* P2) U is mu I within eigh's bound
    TOL_RECON * max(1, |block|_F); those of each other size take one batched
    eigh made exactly Hermitian, and V* goes onto their rows of w at once."""
    base = _eigh(st)
    values, counts = _clusters(base.values, TOL_GROUP)
    gaps = values[:-1] - values[1:]
    if (narrow := gaps[gaps < 10.0 * TOL_GROUP * np.abs(values).max(initial=1.0)]).size:
        raise ClusterInstability(f"cluster gap {narrow[0]:.3e} below 10*tol_group; "
                                 "dual coupling entries would blow up")

    m = len(st)
    w = np.empty((m, 2 * m), dtype=np.complex128)
    np.conj(base.vectors.T, out=w[:, :m])
    del base
    np.matmul(w[:, :m], du, out=w[:, m:])
    starts = np.cumsum(counts) - counts
    mu = np.empty(m)
    for size in set(counts.tolist()):
        idx = starts[counts == size, None] + np.arange(size)
        blocks = w[idx, m:] @ np.conj(w[idx, :m]).swapaxes(1, 2)
        mu[idx] = blocks.diagonal(0, 1, 2).real
        if size == 2:
            dev = _sumsq(blocks - mu[idx[:, :1, None]] * np.eye(2), (1, 2))
            scalar = dev <= TOL_RECON**2 * np.maximum(1.0, _sumsq(blocks, (1, 2)))
            mu[idx[scalar, 1]] = mu[idx[scalar, 0]]
            idx, blocks = idx[~scalar], blocks[~scalar]
        if len(idx):
            sub = _eigh(0.5 * (blocks + blocks.conj().swapaxes(-1, -2)))
            w[idx] = sub.vectors.conj().swapaxes(1, 2) @ w[idx]
            mu[idx] = sub.values
    return np.repeat(values, counts), mu, w


def _dual_part(lam, w, cols):
    """The columns cols of U_hat's dual part X T for _frame's lam and w:
    T_ij = Q_ij / (lam_j - lam_i) between distinct clusters, 0 within one,
    and Q[:, cols] = (X* P2) X[:, cols]."""
    m = len(lam)
    q = w[:, m:] @ w[cols, :m].conj().T
    gap = lam[cols] - lam[:, None]
    return w[:, :m].conj().T @ np.divide(q, gap, out=np.zeros_like(q), where=gap != 0.0)


def eig_dual_complex_hermitian(p) -> DualEigenDecomposition:
    """Eigendecomposition of the dual complex Hermitian matrix p, the pair
    (st, du) of its parts: 2-d arrays of one shape, or DimensionMismatch.
    _check_decomposable gates it, then _frame and _dual_part of every column."""
    st, du = (_carr(a, 2) for a in p)
    if st.shape != du.shape:
        raise DimensionMismatch(f"parts of shapes {st.shape} and {du.shape}")
    _check_decomposable(np.stack((st, du)))
    lam, mu, w = _frame(st, du)
    return DualEigenDecomposition(lam, mu, w[:, : len(st)].conj().T, _dual_part(lam, w, ...))


def _check_eigenvectors(p, x, st, du):
    """NotAnEigenvector unless every column of x, 2n x k columns (st, du) on
    the adjoint p of Q, of 2R norm sqrt(2) |Q|_F, satisfies P x = x (st[j] +
    du[j] eps) to residual 1e-8 * max(1, |Q|_F) * max(1, |x|_2R), which is
    |Q v - v lam|_2R for x = F(v). Returns the residuals."""
    res = _eig_residual(p, x, st, du, axis=0)
    scale = np.sqrt(sum(np.vdot(b, b).real for b in p) / 2)
    bad = np.flatnonzero(res > 1e-8 * max(1.0, scale) * np.maximum(1.0, _norm_2r(x, axis=0)))
    if bad.size:
        lam = DualNumber(float(st[bad[0]]), float(du[bad[0]]))
        raise NotAnEigenvector(f"eigenvector residual {res[bad[0]]:.3e} too large for {lam}")
    return res


def _gram_schmidt(x, tol_rank: float):
    """Classical Gram-Schmidt in dual complex arithmetic over the columns F(v)
    of x, a (st, du) tuple of (g, 2n, k) arrays, at once for the g groups of k
    columns x[0][i], x[1][i]. Each column minus its projections onto the rows
    its group has kept (as many as the fullest group; unfilled ones are zero)
    is kept unless the standard part of that remainder w has norm at most
    tol_rank * max(1, |column|_2R); v = F^-1(w), normalised as _unit would, is
    kept as the rows u = F(v) and -Hu, which span its line. Returns (rows,
    counts): group i keeps rows[:, :, i, :counts[i]] of a (2, 2, g, k, n) view
    whose first two axes index the parts (v1, v2; v3, v4)."""
    g, m, k = x[0].shape
    n = m // 2
    # column j of every group as one (2, 2n) row, whose halves hold v1, v2, v3,
    # v4 as (4, n) rows, v2 and v4 as -conj(v2) and -conj(v4)
    cols = np.ascontiguousarray(np.stack(x, axis=1).transpose(3, 0, 1, 2))
    bounds = tol_rank * np.maximum(1.0, np.sqrt(_sumsq(cols, (2, 3))))
    kept = np.zeros((g, 2, 2 * k, m), dtype=np.complex128)
    # the kept standard rows, as (g, 1, 2k, 2n) and transposed; dual, transposed
    ks, kst, kdt = kept[:, None, 0], kept[:, None, 0].swapaxes(2, 3), kept[:, 1].swapaxes(1, 2)
    counts = np.zeros(g, dtype=int)
    # rows the fullest group has kept; while all have kept alike, one slice
    r, even = 0, True
    for j in range(k):
        w = cols[j]
        if r:
            # w minus the kept rows K weighted by <K, w> = conj(K conj(w)),
            # each product per group and part as _dc_mul forms it
            b = np.conj(w)[..., None]
            c = ks[:, :, :r] @ b
            c_du = c[:, 1]
            c_du += kept[:, 1, :r] @ b[:, 0]
            np.conj(c, out=c)
            t = kst[..., :r] @ c
            t_du = t[:, 1]
            t_du += kdt[..., :r] @ c[:, 0]
            w = w - t[..., 0]
        # the dual norm of v from the two dots _unit takes, one per group
        s = np.conj(w[:, :1])
        st = np.sqrt((s @ w[:, 0, :, None]).real[:, 0])
        keep = st[:, 0] > bounds[j]
        if not keep.all():
            if not keep.any():
                continue
            w, s, st, even = w[keep], s[keep], st[keep], False
        du = (s @ w[:, 1, :, None]).real[:, 0] / st
        v = w.reshape(-1, 4, n).transpose(1, 0, 2)
        np.negative(np.conj(v[1::2]), out=v[1::2])
        v = _scale_dual(v, 1.0 / st, -du / (st * st))
        # u = (v1, -conj(v2); v3, -conj(v4)) and -Hu = (v2, conj(v1); v4, conj(v3))
        # as rows (group, part, u or -Hu, 2n), into the next two rows of kept
        # while the groups keep alike, else into each group's own through a buffer
        pair = kept[:, :, r : r + 2] if even else np.empty((len(st), 2, 2, m), np.complex128)
        halves = pair.reshape(-1, 2, 2, 2, n)
        halves[..., 0, :] = v.reshape(2, 2, -1, n).transpose(2, 0, 1, 3)
        np.negative(np.conj(v[1::2].swapaxes(0, 1)), out=halves[:, :, 0, 1])
        np.conj(v[0::2].swapaxes(0, 1), out=halves[:, :, 1, 1])
        if not even:
            at = np.flatnonzero(keep)
            kept[at[:, None], :, 2 * counts[at, None] + np.arange(2)] = pair.swapaxes(1, 2)
        counts += keep
        r = r + 2 if even else 2 * int(counts.max())
    # v1, v3 are the first halves of the u rows, v2, v4 those of the -Hu rows
    return kept[..., :n].reshape(g, 2, k, 2, n).transpose(1, 3, 0, 2, 4), counts


# relative gap below which squared moduli tie for the canonical phase
PHASE_TIE = 1e-12
# DualQuaternion.conj on quaternion components (w, x, y, z)
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])[:, None]


def _canonical_phase(x):
    """Right-scale each row of x, the (4, k, n) stack of the parts of k unit
    vectors, by the unit dual quaternion conj(e)/|e|, formed on the real
    components as DualQuaternion.conj, magnitude and division do: e becomes a
    nonnegative dual number, which the dual-number eigenvalues commute with,
    and the vectors reproducible. e is the first entry whose squared standard
    modulus is within a relative PHASE_TIE of the row's largest, so that ties
    up to rounding do not move it."""
    v1, v2, k = x[0], x[1], x.shape[1]
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


def eddcam_ea(q: DualQuaternionMatrix) -> EigenResult:
    """All eigenpairs of a dual quaternion Hermitian matrix, directly.

    Pipeline: the Hermitian gate on Q's parts -> adjoint -> _frame -> groups:
    the clusters, split where mu jumps by more than TOL_GROUP -> U_hat's dual
    part of the kept columns, the first of each group of 2 and every column
    of the others -> one vector per group of 2, Gram-Schmidt on the others, n
    in all or ClusterInstability -> _check_eigenvectors of those n vectors."""
    _check_decomposable(q._parts)
    if (n := q.rows) == 0:
        return EigenResult((), 0.0)
    p = adjoint(q)
    st, du, w = _frame(*p)

    # the clusters, whose columns share one value of st, split where mu jumps
    jump = TOL_GROUP * max(1.0, float(np.abs(du).max()))
    starts, sizes = _runs((st[1:] != st[:-1]) | (np.abs(du[1:] - du[:-1]) > jump))
    lam_st, lam_du = st[starts], np.add.reduceat(du, starts) / sizes
    pair = np.flatnonzero(sizes == 2)
    a = starts[pair]
    kept = np.ones(2 * n, dtype=bool)
    kept[a + 1] = False
    # column j of U_hat has its dual part in column at[j] of d
    d, s, at = _dual_part(st, w, np.flatnonzero(kept)), w[:, : 2 * n].conj().T, np.cumsum(kept) - 1
    del w

    # a group of 2 keeps its first column, normalised, and its second b if b
    # minus its projections onto the unit standard part u of the first and onto
    # Hu passes the rank test, at max(1, |column|_2R) of the parts formed
    u, b, u_du = s[:, a], s[:, a + 1], d[:, at[a]]
    norm = np.sqrt(_sumsq(u, 0))
    counts = np.empty(len(starts), dtype=int)
    counts[pair] = norm > TOL_RANK * np.maximum(1.0, _norm_2r((u, u_du), axis=0))
    u /= norm
    uc = u.conj()
    hu = np.concatenate((uc[n:], -uc[:n]))
    off = b - u * (uc * b).sum(0) - hu * (hu.conj() * b).sum(0)
    counts[pair] += _sumsq(off, 0) > (TOL_RANK * np.maximum(1.0, np.sqrt(_sumsq(b, 0)))) ** 2
    norm_du = (uc * u_du).real.sum(0) / norm**2
    del u, b, uc, hu, off
    vecs = _scale_dual(vec_map_f_inverse((s[:, a], u_du)), 1.0 / norm, -norm_du)

    # Gram-Schmidt on every other size, in batches of at most GS_ENTRIES entries
    picked = []
    for k in set(sizes[sizes != 2].tolist()):
        same = np.flatnonzero(sizes == k)
        step = max(1, GS_ENTRIES // (2 * n * k))
        for these in np.split(same, range(step, len(same), step)):
            cols = starts[these, None] + np.arange(k)
            rows, counts[these] = _gram_schmidt(
                (s[:, cols].transpose(1, 0, 2), d[:, at[cols]].transpose(1, 0, 2)), TOL_RANK)
            mine = np.arange(k) < counts[these, None]
            picked.append((these, mine, rows[:, :, mine]))
    if counts.sum() != n or (counts[pair] != 1).any():
        raise ClusterInstability(f"recovered {counts.sum()} eigenvectors for dimension {n}; "
                                 "eigenvalue grouping is unstable at this tolerance")

    # the returned vectors as the rows of one (4, n, n) array; the columns go
    offsets = np.cumsum(counts) - counts
    x = np.empty((4, n, n), dtype=np.complex128)
    x[:, offsets[pair]] = vecs.transpose(0, 2, 1)
    for these, mine, rows in picked:
        x.reshape(2, 2, n, n)[:, :, (offsets[these, None] + np.arange(mine.shape[1]))[mine]] = rows
    del s, d, u_du, vecs, picked
    x = _canonical_phase(x)
    x.setflags(write=False)

    lam = np.repeat(lam_st, counts), np.repeat(lam_du, counts)
    res = _check_eigenvectors(p, vec_map_f(x.transpose(0, 2, 1)), *lam)
    vecs = [DualQuaternionVector._of(x[:, k]) for k in range(n)]
    pairs = tuple(
        (DualNumber(a, b), tuple(vecs[o : o + k]))
        for a, b, o, k in zip(lam_st.tolist(), lam_du.tolist(), offsets.tolist(), counts.tolist())
    )
    return EigenResult(pairs, float(np.mean(res)))
