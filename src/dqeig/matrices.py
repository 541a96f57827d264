"""Dense dual quaternion matrices and vectors, and the array kernels of both
algebras the solvers run on.

Dual quaternion objects are stored as complex pairs: a quaternion entry
w + x*i + y*j + z*k is kept as (a, b) = (w + x*i, y + z*i) with value a + b*j.
The standard part of a matrix is the pair (a1, a2) and the dual part the pair
(a3, a4). This is the exact split the adjoint map works with, and it lets all
arithmetic run on complex ndarrays:

    (A + B j)(C + D j) = (AC - B conj(D)) + (AD + B conj(C)) j
    (A + B j)^*        = (conj(A)^T, -B^T)

Each dual-algebra formula is written once, as a kernel over raw parts: a
dual quaternion array is the parts (a1, a2, a3, a4) and a dual complex one,
the adjoint side, the parts (st, du), so the first half of the parts is the
standard part and the second half the dual part. Dual quaternion parts have
one layout, a single array that stacks them along its first axis: each
matrix or vector object keeps its parts as one read-only (4, rows, cols) or
(4, n) array, _parts, with a1..a4 or v1..v4 as views into it, and the power
loops keep each iterate as one (4, n) or (2, n) array. The kernels take and
return stacks, and the objects are thin wrappers over them; the adjoint side
has no objects, and the solvers' hot paths call the kernels on bare arrays.

The dual norm |x| = st + du eps has st^2 = |s|^2 and st du = Re<s, d> for
the standard half s and the dual half d of the parts, each flattened into one
vector in part order. Every normalization reduces these two numbers with one
BLAS dot each (np.vdot, or the batched matmul that runs the same dot per
row), so a vector normalized by any of them comes out bit for bit alike.
"""

import math

import numpy as np

from .errors import DimensionMismatch, ZeroVector
from .scalars import DualNumber

__all__ = [
    "DualQuaternionMatrix",
    "DualQuaternionVector",
    "random_unit_vector",
]


def _carr(x, ndim):
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != ndim:
        raise DimensionMismatch(f"expected {ndim}-d array, got shape {a.shape}")
    return a


def _freeze(ndim, a1, a2, a3, a4):
    """The parts as one read-only complex stack of shape (4, ...) of ndim-d
    parts; a missing dual part a3 or a4 is zero."""
    a1, a2 = _carr(a1, ndim), _carr(a2, ndim)
    a3, a4 = (np.zeros_like(a1) if a is None else _carr(a, ndim) for a in (a3, a4))
    if not (a1.shape == a2.shape == a3.shape == a4.shape):
        what = "shape" if ndim == 2 else "length"
        raise DimensionMismatch(f"component arrays must share one {what}")
    x = np.stack((a1, a2, a3, a4))
    x.setflags(write=False)
    return x


# -- kernels on raw parts --------------------------------------------------------


# np.add.reduce(a, axis) is a.sum(axis) without the Python-level wrapper


def _sumsq(a, axis=None):
    re, im = a.real, a.imag
    return np.add.reduce(re * re + im * im, axis)


def _qmul(a1, a2, b1, b2, mul):
    # (A1 + A2 j)(B1 + B2 j)
    return mul(a1, b1) - mul(a2, np.conj(b2)), mul(a1, b2) + mul(a2, np.conj(b1))


# Transposed, (A1 + A2 j) v = (A1 v1 + A2 w1) + (A1 v2 + A2 w2) j with
# (w1, w2) = (-conj(v2), conj(v1)). So the rows (v1, v2, v3, v4) of a stacked
# vector, side by side with their w rows, times [A1^T; A2^T] give all four
# rows of A_st v, and the standard rows times [A3^T; A4^T] add A_du v_st to
# the dual rows. w of all four rows is one gather.
_J_SWAP = np.array([1, 0, 3, 2], dtype=np.intp)
_J_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])[:, None]


def _dq_stack(a):
    """The parts of a dual quaternion matrix as the two arrays [A1^T; A2^T]
    and [A3^T; A4^T], each of shape (2 cols, rows), that _dq_matvec multiplies
    a stacked vector by."""
    return np.concatenate((a[0].T, a[1].T)), np.concatenate((a[2].T, a[3].T))


def _dq_mul(a, b, mul=np.matmul):
    """Dual quaternion product a b of the stacks a and b, part by part:
    matrix @ matrix or matrix @ vector, or with mul=np.multiply an array
    right-multiplied entrywise by a scalar. b may be any four parts that
    broadcast under mul; the product comes back stacked. The standard half
    goes into the stack before the dual half is formed, so that no more
    than about one stack of temporaries is alive at a time."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    st = _qmul(a1, a2, b1, b2, mul)
    out = np.empty((4, *st[0].shape), dtype=st[0].dtype)
    out[0], out[1] = st
    del st
    d1a, d2a = _qmul(a1, a2, b3, b4, mul)
    d1b, d2b = _qmul(a3, a4, b1, b2, mul)
    np.add(d1a, d1b, out=out[2])
    np.add(d2a, d2b, out=out[3])
    return out


def _dq_matvec(a, x):
    """A x for the pair a = _dq_stack(A) and a vector stacked as one (4, n)
    array, as two matrix products on the buffer [x | w]. It sums in another
    order than _dq_mul, so the two differ in the last bits."""
    st, du = a
    n = x.shape[-1]
    z = np.empty((4, 2 * n), dtype=np.complex128)
    z[:, :n] = x
    np.multiply(np.conjugate(x[_J_SWAP]), _J_SIGN, out=z[:, n:])
    y = z @ st
    y[2:] += z[:2] @ du
    return y


def _dc_mul(a, b):
    """Dual complex product a @ b, matrix @ matrix or matrix @ vector, with the
    parts of b and of the product stacked along the first axis."""
    b = np.asarray(b)
    if b.ndim == 2:
        out = np.matmul(a[0], b[..., None])[..., 0]
    else:
        out = np.matmul(a[0], b)
    out[1] += a[1] @ b[0]
    return out


def _dq_dot(x, y):
    """conj(x)^T y of dual quaternion vectors as the stacked complex pairs
    (s1, s2, d1, d2); one per row when the parts of y hold vectors as rows."""

    def hdot(x1, x2, y1, y2):
        # sum over conj(x_i) y_i with x = x1 + x2 j, y = y1 + y2 j
        a = np.add.reduce(np.conj(x1) * y1 + x2 * np.conj(y2), -1)
        b = np.add.reduce(np.conj(x1) * y2 - x2 * np.conj(y1), -1)
        return a, b

    x1, x2, x3, x4 = x
    s1, s2 = hdot(x1, x2, y[0], y[1])
    da1, da2 = hdot(x1, x2, y[2], y[3])
    db1, db2 = hdot(x3, x4, y[0], y[1])
    return np.stack((s1, s2, da1 + db1, da2 + db2))


def _scale_dual(x, st, du):
    """x (st + du eps), for either algebra, as stacked parts."""
    x = np.asarray(x)
    h = len(x) // 2
    out = x * st
    out[h:] += x[:h] * du
    return out


def _dual_norm(x):
    """(st, du) of the dual 2-norm (Frobenius for matrices) of the stack x;
    when the standard part vanishes the norm is pure dual, (0, |dual part|)."""
    # the halves flattened in part order
    k = len(x) // 2
    s, d = x[:k].ravel(), x[k:].ravel()
    st_sq = np.vdot(s, s).real
    if st_sq != 0.0:
        st = math.sqrt(st_sq)
        return st, np.vdot(s, d).real / st
    return 0.0, math.sqrt(np.vdot(d, d).real)


def _asymmetry(parts) -> list:
    """The largest modulus of an entry of each square part minus its flip,
    NaN where the part holds a NaN. Q = Q* reads A1 = A1^H, A2 = -A2^T,
    A3 = A3^H and A4 = -A4^T on the parts (a1, a2, a3, a4); a dual complex
    matrix is Hermitian when both its parts (st, du) are. The parts are
    compared as one stack, in a few calls whatever their number."""
    x = np.asarray(parts)
    flip = np.conj(x.swapaxes(1, 2))
    if len(x) == 4:
        np.negative(np.conj(flip[1::2]), out=flip[1::2])
    return np.abs(x - flip).max(axis=(1, 2), initial=0.0).tolist()


def _is_hermitian(parts, tol) -> bool:
    """Whether no part's _asymmetry exceeds tol, and no entry is NaN."""
    return all(d <= tol for d in _asymmetry(parts))


# stacks of up to this many entries are squared and summed in one pass,
# larger ones part by part: one pass took under 0.9 of the part-by-part time
# on every stack of up to 2^14 entries timed, and up to 3 times as long on
# some larger ones, whose temporaries pass 128 KiB
_ONE_PASS = 1 << 14


def _norm_2r(x, axis=None):
    """sqrt of the sum of squared moduli over all parts; per column with
    axis=0. Each part's squares are summed as _sumsq(part, axis) sums them,
    and the parts' sums are added in part order."""
    if isinstance(x, np.ndarray) and x.size <= _ONE_PASS:
        sq = _sumsq(x, tuple(range(1, x.ndim)) if axis is None else axis % (x.ndim - 1) + 1)
    else:
        sq = [_sumsq(a, axis) for a in x]
    total = sq[0]
    for part in sq[1:]:
        total = total + part
    return np.sqrt(total)


def _unit(x):
    """Projection onto unit 2-norm of a vector stacked as one (4, n) or (2, n)
    array of parts: x (st + du eps)^-1 with (st, du) = _dual_norm(x). A
    pure-dual x becomes its dual part times 1/|dual part|, with zero dual
    part."""
    st, du = _dual_norm(x)
    if st != 0.0:
        return _scale_dual(x, 1.0 / st, -du / (st * st))
    if du == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    h = len(x) // 2
    out = np.zeros_like(x)
    out[:h] = x[h:] * (1.0 / du)
    return out


def _eig_residual(a, x, st, du, axis=None):
    """|A x - x (st + du eps)| in the 2R norm of the stacks a and x of
    dual quaternion parts, or of the pairs (st, du) a and x of dual complex
    ones; per column with axis=0."""
    if len(a) == 4:
        r = _dq_mul(a, x)
        r -= _scale_dual(x, st, du)
        return _norm_2r(r, axis)
    r = a[0] @ x[1]
    r += a[1] @ x[0]
    r -= x[1] * st
    r -= x[0] * du
    return _norm_2r((a[0] @ x[0] - x[0] * st, r), axis)


def _part(k):
    return property(lambda self: self._parts[k], doc=f"Part {k + 1}, a view of _parts.")


class _Stacked:
    """Immutable dual quaternion array whose parts (a1, a2, a3, a4) are one
    read-only complex array _parts of shape (4, ...); the operators act on
    the whole stack."""

    __slots__ = ("_parts",)

    @classmethod
    def _of(cls, x):
        """The object whose parts are the stack x, without a copy; x becomes
        read-only, and no other code may write to it."""
        obj = cls.__new__(cls)
        x.setflags(write=False)
        obj._parts = x
        return obj

    def __add__(self, other):
        return self._of(self._parts + other._parts)

    def __sub__(self, other):
        return self._of(self._parts - other._parts)

    def __neg__(self):
        return self._of(-self._parts)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return self._of(self._parts * s)
        if isinstance(s, DualNumber):
            return self._of(_scale_dual(self._parts, s.st, s.du))
        return NotImplemented

    __rmul__ = __mul__


class DualQuaternionMatrix(_Stacked):
    """Dense dual quaternion matrix, stacked as one (4, rows, cols) array."""

    __slots__ = ()

    a1, a2, a3, a4 = map(_part, range(4))

    def __init__(self, a1, a2, a3=None, a4=None):
        self._parts = _freeze(2, a1, a2, a3, a4)

    @classmethod
    def from_entries(cls, rows) -> "DualQuaternionMatrix":
        """Build from a nested list of DualQuaternion entries (row major); no
        rows give the 0 x 0 matrix."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        x = np.zeros((4, r, c), dtype=np.complex128)
        for i, row in enumerate(rows):
            if len(row) != c:
                raise DimensionMismatch("ragged entry rows")
            for j, q in enumerate(row):
                x[:, i, j] = q.st.as_complex_pair() + q.du.as_complex_pair()
        return cls._of(x)

    @property
    def shape(self):
        return self._parts.shape[1:]

    @property
    def rows(self) -> int:
        return self._parts.shape[1]

    @property
    def cols(self) -> int:
        return self._parts.shape[2]

    def __matmul__(self, other):
        if isinstance(other, DualQuaternionMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape} @ {other.shape}")
            return DualQuaternionMatrix._of(_dq_mul(self._parts, other._parts))
        if isinstance(other, DualQuaternionVector):
            if self.cols != other.n:
                raise DimensionMismatch(f"{self.shape} @ vector of length {other.n}")
            return DualQuaternionVector._of(_dq_mul(self._parts, other._parts))
        return NotImplemented

    def conj_transpose(self) -> "DualQuaternionMatrix":
        a1, a2, a3, a4 = self._parts
        return DualQuaternionMatrix(a1.conj().T, -a2.T, a3.conj().T, -a4.T)

    def is_hermitian(self) -> bool:
        """Whether every entry of Q - Q* is at most 1e-10 in modulus."""
        return _is_hermitian(self._parts, 1e-10)


class DualQuaternionVector(_Stacked):
    """Column vector of dual quaternions, stacked as one (4, n) array."""

    __slots__ = ()

    v1, v2, v3, v4 = map(_part, range(4))

    def __init__(self, v1, v2, v3=None, v4=None):
        self._parts = _freeze(1, v1, v2, v3, v4)

    @property
    def n(self) -> int:
        return self._parts.shape[1]

    def unit(self) -> "DualQuaternionVector":
        """Projection onto unit 2-norm vectors (degenerate branch: zero dual part)."""
        return self._of(_unit(self._parts))


def random_unit_vector(n: int, rng: np.random.Generator) -> DualQuaternionVector:
    """Random dual quaternion vector with unit 2-norm.

    Every real coordinate is standard normal, then the vector is projected.
    """
    parts = rng.standard_normal((8, n))
    v = DualQuaternionVector(
        parts[0] + 1j * parts[1],
        parts[2] + 1j * parts[3],
        parts[4] + 1j * parts[5],
        parts[6] + 1j * parts[7],
    )
    return v.unit()
