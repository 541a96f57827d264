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
standard part and the second half the dual part. The parts are a tuple of
arrays, or one array that stacks them along its first axis: the power loops
keep each vector as one (4, n) or (2, n) array, and the dual-number scaling,
the normalization and both products take and return that layout. The dual
quaternion object methods are thin wrappers over these kernels; the adjoint
side has no objects, and the solvers' hot paths call the kernels on bare
arrays.

The dual norm |x| = st + du eps has st^2 = |s|^2 and st du = Re<s, d> for
the standard half s and the dual half d of the parts, each flattened into one
vector in part order. Every normalization reduces these two numbers with one
BLAS dot each (np.vdot, or the batched matmul that runs the same dot per
row), so a vector normalized by any of them comes out bit for bit alike.
"""

import math

import numpy as np

from .errors import DimensionMismatch, ZeroVector
from .scalars import DualNumber, DualQuaternion, Quaternion

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


def _freeze(*arrays):
    out = []
    for a in arrays:
        a = np.array(a, dtype=np.complex128)
        a.setflags(write=False)
        out.append(a)
    return out


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
    and [A3^T; A4^T], each of shape (2 cols, rows), that _dq_mul multiplies
    a stacked vector by."""
    return np.concatenate((a[0].T, a[1].T)), np.concatenate((a[2].T, a[3].T))


def _dq_mul(a, b, mul=np.matmul):
    """Dual quaternion product a b: matrix @ matrix or matrix @ vector, or with
    mul=np.multiply an array right-multiplied entrywise by a scalar. A vector
    stacked as one (4, n) array is multiplied as a batch and comes back
    stacked: a may then also be the pair _dq_stack(a) made once per matrix,
    and the product is two matrix products on the buffer [v | w]."""
    if isinstance(b, np.ndarray):
        st, du = a if len(a) == 2 else _dq_stack(a)
        n = b.shape[-1]
        z = np.empty((4, 2 * n), dtype=np.complex128)
        z[:, :n] = b
        np.multiply(np.conjugate(b[_J_SWAP]), _J_SIGN, out=z[:, n:])
        y = z @ st
        y[2:] += z[:2] @ du
        return y
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    c1, c2 = _qmul(a1, a2, b1, b2, mul)
    d1a, d2a = _qmul(a1, a2, b3, b4, mul)
    d1b, d2b = _qmul(a3, a4, b1, b2, mul)
    return c1, c2, d1a + d1b, d2a + d2b


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
    """conj(x)^T y of dual quaternion vectors as complex pairs (s1, s2, d1, d2);
    one per row when y is a stack of vectors stored as rows."""

    def hdot(x1, x2, y1, y2):
        # sum over conj(x_i) y_i with x = x1 + x2 j, y = y1 + y2 j
        a = np.add.reduce(np.conj(x1) * y1 + x2 * np.conj(y2), -1)
        b = np.add.reduce(np.conj(x1) * y2 - x2 * np.conj(y1), -1)
        return a, b

    x1, x2, x3, x4 = x
    s1, s2 = hdot(x1, x2, y[0], y[1])
    da1, da2 = hdot(x1, x2, y[2], y[3])
    db1, db2 = hdot(x3, x4, y[0], y[1])
    return s1, s2, da1 + db1, da2 + db2


def _scale_dual(x, st, du):
    """x (st + du eps), for either algebra, as stacked parts."""
    x = np.asarray(x)
    h = len(x) // 2
    out = x * st
    out[h:] += x[:h] * du
    return out


def _dual_norm(x):
    """(st, du) of the dual 2-norm (Frobenius for matrices); when the standard
    part vanishes the norm is pure dual, (0, |dual part|)."""
    # the halves flattened in part order: views of a stacked array
    k = len(x) // 2
    if isinstance(x, np.ndarray):
        s, d = x[:k].ravel(), x[k:].ravel()
    else:
        s, d = (np.concatenate([a.ravel() for a in half]) for half in (x[:k], x[k:]))
    st_sq = np.vdot(s, s).real
    if st_sq != 0.0:
        st = math.sqrt(st_sq)
        return st, np.vdot(s, d).real / st
    return 0.0, math.sqrt(np.vdot(d, d).real)


def _is_hermitian(parts, tol) -> bool:
    """Whether every entry of each square part differs from its flip by at
    most tol in modulus, and no entry is NaN. Q = Q* reads A1 = A1^H,
    A2 = -A2^T, A3 = A3^H and A4 = -A4^T on the parts (a1, a2, a3, a4); a
    dual complex matrix is Hermitian when both its parts (st, du) are."""
    flips = (np.conj, np.negative) * 2 if len(parts) == 4 else (np.conj, np.conj)
    return all(np.abs(a - f(a).T).max(initial=0.0) <= tol for a, f in zip(parts, flips))


def _norm_2r(x, axis=None):
    """sqrt of the sum of squared moduli over all parts; per column with axis=0."""
    return np.sqrt(sum([_sumsq(a, axis) for a in x]))


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


def _unit_rows(x):
    """_unit of every row of x, a part tuple of (k, n) arrays whose rows have a
    nonzero standard part. The two dots of each row run as one batched
    matmul, which takes the BLAS dot np.vdot takes, so every row comes out
    bit for bit as _unit would return it."""
    h = len(x) // 2
    s, d = np.concatenate(x[:h], -1), np.concatenate(x[h:], -1)
    c = np.conj(s)[:, None, :]
    st = np.sqrt((c @ s[:, :, None]).real[:, 0])
    du = (c @ d[:, :, None]).real[:, 0] / st
    return _scale_dual(x, 1.0 / st, -du / (st * st))


def _eig_residual(a, x, st, du, axis=None):
    """|A x - x (st + du eps)| in the 2R norm; per column with axis=0. x is a
    part tuple, scaled one part at a time in _scale_dual's order, so that no
    stacked copy of x is made."""
    y = _dq_mul(a, x)
    h = len(x) // 2
    scaled = [b * st for b in x[:h]] + [b * st + c * du for b, c in zip(x[h:], x)]
    return _norm_2r([p - r for p, r in zip(y, scaled)], axis)


class DualQuaternionMatrix:
    """Dense dual quaternion matrix."""

    __slots__ = ("a1", "a2", "a3", "a4")

    def __init__(self, a1, a2, a3=None, a4=None):
        a1 = _carr(a1, 2)
        a2 = _carr(a2, 2)
        a3 = np.zeros_like(a1) if a3 is None else _carr(a3, 2)
        a4 = np.zeros_like(a1) if a4 is None else _carr(a4, 2)
        if not (a1.shape == a2.shape == a3.shape == a4.shape):
            raise DimensionMismatch("component arrays must share one shape")
        self.a1, self.a2, self.a3, self.a4 = _freeze(a1, a2, a3, a4)

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DualQuaternionMatrix":
        z = np.zeros((rows, cols), dtype=np.complex128)
        return cls(z, z, z, z)

    @classmethod
    def identity(cls, n: int) -> "DualQuaternionMatrix":
        e = np.eye(n, dtype=np.complex128)
        z = np.zeros((n, n), dtype=np.complex128)
        return cls(e, z, z, z)

    @classmethod
    def from_entries(cls, rows) -> "DualQuaternionMatrix":
        """Build from a nested list of DualQuaternion entries (row major)."""
        r = len(rows)
        c = len(rows[0])
        a1 = np.zeros((r, c), dtype=np.complex128)
        a2 = np.zeros((r, c), dtype=np.complex128)
        a3 = np.zeros((r, c), dtype=np.complex128)
        a4 = np.zeros((r, c), dtype=np.complex128)
        for i, row in enumerate(rows):
            if len(row) != c:
                raise DimensionMismatch("ragged entry rows")
            for j, q in enumerate(row):
                a1[i, j], a2[i, j] = q.st.as_complex_pair()
                a3[i, j], a4[i, j] = q.du.as_complex_pair()
        return cls(a1, a2, a3, a4)

    # -- shape and access --------------------------------------------------

    @property
    def _parts(self):
        return self.a1, self.a2, self.a3, self.a4

    @property
    def shape(self):
        return self.a1.shape

    @property
    def rows(self) -> int:
        return self.a1.shape[0]

    @property
    def cols(self) -> int:
        return self.a1.shape[1]

    def entry(self, i: int, j: int) -> DualQuaternion:
        return DualQuaternion(
            Quaternion.from_complex_pair(complex(self.a1[i, j]), complex(self.a2[i, j])),
            Quaternion.from_complex_pair(complex(self.a3[i, j]), complex(self.a4[i, j])),
        )

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        return DualQuaternionMatrix(
            self.a1 + other.a1, self.a2 + other.a2, self.a3 + other.a3, self.a4 + other.a4
        )

    def __sub__(self, other):
        return DualQuaternionMatrix(
            self.a1 - other.a1, self.a2 - other.a2, self.a3 - other.a3, self.a4 - other.a4
        )

    def __neg__(self):
        return DualQuaternionMatrix(-self.a1, -self.a2, -self.a3, -self.a4)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return DualQuaternionMatrix(self.a1 * s, self.a2 * s, self.a3 * s, self.a4 * s)
        if isinstance(s, DualNumber):
            return DualQuaternionMatrix(*_scale_dual(self._parts, s.st, s.du))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, DualQuaternionMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape} @ {other.shape}")
            return DualQuaternionMatrix(*_dq_mul(self._parts, other._parts))
        if isinstance(other, DualQuaternionVector):
            if self.cols != other.n:
                raise DimensionMismatch(f"{self.shape} @ vector of length {other.n}")
            return DualQuaternionVector(*_dq_mul(self._parts, other._parts))
        return NotImplemented

    def conj_transpose(self) -> "DualQuaternionMatrix":
        return DualQuaternionMatrix(
            self.a1.conj().T, -self.a2.T, self.a3.conj().T, -self.a4.T
        )

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        """Whether every entry of Q - Q* is at most tol in modulus."""
        return _is_hermitian(self._parts, tol)

    def max_abs_diff(self, other) -> float:
        return max(
            np.abs(self.a1 - other.a1).max(initial=0.0),
            np.abs(self.a2 - other.a2).max(initial=0.0),
            np.abs(self.a3 - other.a3).max(initial=0.0),
            np.abs(self.a4 - other.a4).max(initial=0.0),
        )

    # -- norms ---------------------------------------------------------------

    def norm_f(self) -> DualNumber:
        """Frobenius norm as a dual number, with the pure-dual degenerate branch."""
        return DualNumber(*_dual_norm(self._parts))

    def norm_fr(self) -> float:
        """sqrt of the sum of squared Frobenius norms of both parts."""
        return float(_norm_2r(self._parts))


class DualQuaternionVector:
    """Column vector of dual quaternions."""

    __slots__ = ("v1", "v2", "v3", "v4")

    def __init__(self, v1, v2, v3=None, v4=None):
        v1 = _carr(v1, 1)
        v2 = _carr(v2, 1)
        v3 = np.zeros_like(v1) if v3 is None else _carr(v3, 1)
        v4 = np.zeros_like(v1) if v4 is None else _carr(v4, 1)
        if not (v1.shape == v2.shape == v3.shape == v4.shape):
            raise DimensionMismatch("component arrays must share one length")
        self.v1, self.v2, self.v3, self.v4 = _freeze(v1, v2, v3, v4)

    @classmethod
    def _wrap(cls, v1, v2, v3, v4) -> "DualQuaternionVector":
        """Wrap four read-only 1-d arrays, such as the rows of a frozen
        stacked array, without copying them."""
        v = cls.__new__(cls)
        v.v1, v.v2, v.v3, v.v4 = v1, v2, v3, v4
        return v

    @classmethod
    def zeros(cls, n: int) -> "DualQuaternionVector":
        z = np.zeros(n, dtype=np.complex128)
        return cls(z, z, z, z)

    @classmethod
    def basis(cls, n: int, i: int) -> "DualQuaternionVector":
        e = np.zeros(n, dtype=np.complex128)
        e[i] = 1.0
        return cls(e, np.zeros(n, dtype=np.complex128))

    @classmethod
    def from_entries(cls, entries) -> "DualQuaternionVector":
        n = len(entries)
        v1 = np.zeros(n, dtype=np.complex128)
        v2 = np.zeros(n, dtype=np.complex128)
        v3 = np.zeros(n, dtype=np.complex128)
        v4 = np.zeros(n, dtype=np.complex128)
        for i, q in enumerate(entries):
            v1[i], v2[i] = q.st.as_complex_pair()
            v3[i], v4[i] = q.du.as_complex_pair()
        return cls(v1, v2, v3, v4)

    @property
    def _parts(self):
        return self.v1, self.v2, self.v3, self.v4

    @property
    def n(self) -> int:
        return self.v1.shape[0]

    def entry(self, i: int) -> DualQuaternion:
        return DualQuaternion(
            Quaternion.from_complex_pair(complex(self.v1[i]), complex(self.v2[i])),
            Quaternion.from_complex_pair(complex(self.v3[i]), complex(self.v4[i])),
        )

    def __add__(self, other):
        return DualQuaternionVector(
            self.v1 + other.v1, self.v2 + other.v2, self.v3 + other.v3, self.v4 + other.v4
        )

    def __sub__(self, other):
        return DualQuaternionVector(
            self.v1 - other.v1, self.v2 - other.v2, self.v3 - other.v3, self.v4 - other.v4
        )

    def __neg__(self):
        return DualQuaternionVector(-self.v1, -self.v2, -self.v3, -self.v4)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return DualQuaternionVector(self.v1 * s, self.v2 * s, self.v3 * s, self.v4 * s)
        return NotImplemented

    __rmul__ = __mul__

    def scale_right(self, c) -> "DualQuaternionVector":
        """Entrywise right multiplication by a scalar dual quaternion or dual number."""
        if isinstance(c, DualNumber):
            return DualQuaternionVector(*_scale_dual(self._parts, c.st, c.du))
        c = c.st.as_complex_pair() + c.du.as_complex_pair()
        return DualQuaternionVector(*_dq_mul(self._parts, c, np.multiply))

    def dot(self, other: "DualQuaternionVector") -> DualQuaternion:
        """conj(self)^T other, a scalar dual quaternion."""
        s1, s2, d1, d2 = map(complex, _dq_dot(self._parts, other._parts))
        return DualQuaternion(
            Quaternion.from_complex_pair(s1, s2), Quaternion.from_complex_pair(d1, d2)
        )

    def outer(self, other: "DualQuaternionVector") -> DualQuaternionMatrix:
        """self @ conj(other)^T."""

        def houter(x1, x2, y1, y2):
            m1 = np.outer(x1, np.conj(y1)) + np.outer(x2, np.conj(y2))
            m2 = -np.outer(x1, y2) + np.outer(x2, y1)
            return m1, m2

        s1, s2 = houter(self.v1, self.v2, other.v1, other.v2)
        da1, da2 = houter(self.v1, self.v2, other.v3, other.v4)
        db1, db2 = houter(self.v3, self.v4, other.v1, other.v2)
        return DualQuaternionMatrix(s1, s2, da1 + db1, da2 + db2)

    def norm_2(self) -> DualNumber:
        """2-norm as a dual number; pure-dual vectors get |du| * eps."""
        return DualNumber(*_dual_norm(self._parts))

    def norm_2r(self) -> float:
        return float(_norm_2r(self._parts))

    def unit(self) -> "DualQuaternionVector":
        """Projection onto unit 2-norm vectors (degenerate branch: zero dual part)."""
        return DualQuaternionVector(*_unit(np.stack(self._parts)))


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
