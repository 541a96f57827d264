"""Dense matrices and vectors over dual quaternions and dual complex numbers.

Dual quaternion objects are stored as complex pairs: a quaternion entry
w + x*i + y*j + z*k is kept as (a, b) = (w + x*i, y + z*i) with value a + b*j.
The standard part of a matrix is the pair (a1, a2) and the dual part the pair
(a3, a4). This is the exact split the adjoint map works with, and it lets all
arithmetic run on complex ndarrays:

    (A + B j)(C + D j) = (AC - B conj(D)) + (AD + B conj(C)) j
    (A + B j)^*        = (conj(A)^T, -B^T)

Each dual-algebra formula is written once, as a kernel over raw parts: a
dual quaternion array is the tuple (a1, a2, a3, a4) and a dual complex one
the tuple (st, du), so the first half of a tuple is the standard part and the
second half the dual part. The object methods are thin wrappers over these
kernels, and the solvers' hot paths call them on bare arrays.
"""

import math

import numpy as np

from .errors import DimensionMismatch, ZeroVector
from .scalars import DualNumber, DualComplex, DualQuaternion, Quaternion

__all__ = [
    "DualQuaternionMatrix",
    "DualQuaternionVector",
    "DualComplexMatrix",
    "DualComplexVector",
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


# np.add.reduce(a, axis) is a.sum(axis) without the Python-level wrapper; these
# run on short vectors in every power iteration


def _sumsq(a, axis=None):
    re, im = a.real, a.imag
    return np.add.reduce(re * re + im * im, axis)


def _redot(a, b) -> float:
    """Real part of <a, b>, i.e. sc(tr(A* B)) summed over entries."""
    return float(np.add.reduce(a.real * b.real + a.imag * b.imag, None))


def _qmul(a1, a2, b1, b2, mul):
    # (A1 + A2 j)(B1 + B2 j)
    return mul(a1, b1) - mul(a2, np.conj(b2)), mul(a1, b2) + mul(a2, np.conj(b1))


def _dq_mul(a, b, mul=np.matmul):
    """Dual quaternion product a b: matrix @ matrix or matrix @ vector, or with
    mul=np.multiply an array right-multiplied entrywise by a scalar."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    c1, c2 = _qmul(a1, a2, b1, b2, mul)
    d1a, d2a = _qmul(a1, a2, b3, b4, mul)
    d1b, d2b = _qmul(a3, a4, b1, b2, mul)
    return c1, c2, d1a + d1b, d2a + d2b


def _dc_mul(a, b):
    """Dual complex product a @ b."""
    return a[0] @ b[0], a[0] @ b[1] + a[1] @ b[0]


def _dq_dot(x, y):
    """conj(x)^T y of dual quaternion vectors as complex pairs (s1, s2, d1, d2)."""

    def hdot(x1, x2, y1, y2):
        # sum over conj(x_i) y_i with x = x1 + x2 j, y = y1 + y2 j
        a = np.sum(np.conj(x1) * y1 + x2 * np.conj(y2))
        b = np.sum(np.conj(x1) * y2 - x2 * np.conj(y1))
        return complex(a), complex(b)

    x1, x2, x3, x4 = x
    s1, s2 = hdot(x1, x2, y[0], y[1])
    da1, da2 = hdot(x1, x2, y[2], y[3])
    db1, db2 = hdot(x3, x4, y[0], y[1])
    return s1, s2, da1 + db1, da2 + db2


def _scale_dual(x, st, du):
    """x (st + du eps), for either algebra."""
    out = [a * st for a in x]
    for a, b in zip(x, out[len(x) // 2:]):
        b += a * du
    return tuple(out)


def _dual_norm(x):
    """(st, du) of the dual 2-norm (Frobenius for matrices); when the standard
    part vanishes the norm is pure dual, (0, |dual part|)."""
    k = len(x) // 2
    st_sq = cross = 0.0
    for a, b in zip(x, x[k:]):
        st_sq += _sumsq(a)
        cross += _redot(a, b)
    if st_sq != 0.0:
        st = math.sqrt(st_sq)
        return st, cross / st
    return 0.0, math.sqrt(sum(map(_sumsq, x[k:])))


def _norm_2r(x, axis=None):
    """sqrt of the sum of squared moduli over all parts; per column with axis=0."""
    return np.sqrt(sum([_sumsq(a, axis) for a in x]))


def _unit(x):
    """Projection onto unit 2-norm: x times the reciprocal of its dual norm; a
    pure-dual x becomes its dual part times 1/|dual part|, with zero dual part."""
    st, du = _dual_norm(x)
    if st != 0.0:
        return _scale_dual(x, 1.0 / st, -du / (st * st))
    if du == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    d = x[len(x) // 2:]
    return (*[b * (1.0 / du) for b in d], *[np.zeros_like(b) for b in d])


def _eig_residual(a, x, st, du, axis=None):
    """|A x - x (st + du eps)| in the 2R norm; per column with axis=0."""
    y = _dq_mul(a, x)
    return _norm_2r(tuple(p - r for p, r in zip(y, _scale_dual(x, st, du))), axis)


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
    def from_real(cls, arr) -> "DualQuaternionMatrix":
        a = np.asarray(arr, dtype=float)
        z = np.zeros_like(a, dtype=np.complex128)
        return cls(a.astype(np.complex128), z, z, z)

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

    def column(self, j: int) -> "DualQuaternionVector":
        return DualQuaternionVector(self.a1[:, j], self.a2[:, j], self.a3[:, j], self.a4[:, j])

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
        h = self.conj_transpose()
        return self.max_abs_diff(h) <= tol

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

    @property
    def appreciable(self) -> bool:
        return bool(np.any(self.v1) or np.any(self.v2))

    def entry(self, i: int) -> DualQuaternion:
        return DualQuaternion(
            Quaternion.from_complex_pair(complex(self.v1[i]), complex(self.v2[i])),
            Quaternion.from_complex_pair(complex(self.v3[i]), complex(self.v4[i])),
        )

    def as_column(self) -> DualQuaternionMatrix:
        return DualQuaternionMatrix(
            self.v1[:, None], self.v2[:, None], self.v3[:, None], self.v4[:, None]
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
        s1, s2, d1, d2 = _dq_dot(self._parts, other._parts)
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
        return DualQuaternionVector(*_unit(self._parts))


class DualComplexMatrix:
    """Dense dual complex matrix st + du*eps."""

    __slots__ = ("st", "du")

    def __init__(self, st, du=None):
        st = _carr(st, 2)
        du = np.zeros_like(st) if du is None else _carr(du, 2)
        if st.shape != du.shape:
            raise DimensionMismatch("parts must share one shape")
        self.st, self.du = _freeze(st, du)

    @classmethod
    def identity(cls, n: int) -> "DualComplexMatrix":
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DualComplexMatrix":
        return cls(np.zeros((rows, cols), dtype=np.complex128))

    @property
    def _parts(self):
        return self.st, self.du

    @property
    def shape(self):
        return self.st.shape

    @property
    def rows(self) -> int:
        return self.st.shape[0]

    @property
    def cols(self) -> int:
        return self.st.shape[1]

    def entry(self, i: int, j: int) -> DualComplex:
        return DualComplex(complex(self.st[i, j]), complex(self.du[i, j]))

    def column(self, j: int) -> "DualComplexVector":
        return DualComplexVector(self.st[:, j], self.du[:, j])

    def __add__(self, other):
        return DualComplexMatrix(self.st + other.st, self.du + other.du)

    def __sub__(self, other):
        return DualComplexMatrix(self.st - other.st, self.du - other.du)

    def __neg__(self):
        return DualComplexMatrix(-self.st, -self.du)

    def __mul__(self, s):
        if isinstance(s, (int, float, complex)):
            return DualComplexMatrix(self.st * s, self.du * s)
        if isinstance(s, DualNumber):
            return DualComplexMatrix(*_scale_dual(self._parts, s.st, s.du))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, DualComplexMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape} @ {other.shape}")
            return DualComplexMatrix(*_dc_mul(self._parts, other._parts))
        if isinstance(other, DualComplexVector):
            if self.cols != other.n:
                raise DimensionMismatch(f"{self.shape} @ vector of length {other.n}")
            return DualComplexVector(*_dc_mul(self._parts, other._parts))
        return NotImplemented

    def conj_transpose(self) -> "DualComplexMatrix":
        return DualComplexMatrix(self.st.conj().T, self.du.conj().T)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return (
            np.abs(self.st - self.st.conj().T).max(initial=0.0) <= tol
            and np.abs(self.du - self.du.conj().T).max(initial=0.0) <= tol
        )

    def max_abs_diff(self, other) -> float:
        return max(
            np.abs(self.st - other.st).max(initial=0.0),
            np.abs(self.du - other.du).max(initial=0.0),
        )

    def is_adjoint_structured(self, tol: float = 1e-12) -> bool:
        from .adjoint import adjoint_block_deviation

        if self.rows % 2 or self.cols % 2:
            return False
        scale = max(1.0, np.abs(self.st).max(initial=0.0), np.abs(self.du).max(initial=0.0))
        return adjoint_block_deviation(self) <= tol * scale

    def norm_f(self) -> DualNumber:
        return DualNumber(*_dual_norm(self._parts))

    def norm_fr(self) -> float:
        return float(_norm_2r(self._parts))


class DualComplexVector:
    """Column vector of dual complex numbers."""

    __slots__ = ("st", "du")

    def __init__(self, st, du=None):
        st = _carr(st, 1)
        du = np.zeros_like(st) if du is None else _carr(du, 1)
        if st.shape != du.shape:
            raise DimensionMismatch("parts must share one length")
        self.st, self.du = _freeze(st, du)

    @property
    def _parts(self):
        return self.st, self.du

    @property
    def n(self) -> int:
        return self.st.shape[0]

    def entry(self, i: int) -> DualComplex:
        return DualComplex(complex(self.st[i]), complex(self.du[i]))

    def __add__(self, other):
        return DualComplexVector(self.st + other.st, self.du + other.du)

    def __sub__(self, other):
        return DualComplexVector(self.st - other.st, self.du - other.du)

    def __neg__(self):
        return DualComplexVector(-self.st, -self.du)

    def __mul__(self, s):
        if isinstance(s, (int, float, complex)):
            return DualComplexVector(self.st * s, self.du * s)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "DualComplexVector":
        """Multiply by a dual number or dual complex scalar."""
        return DualComplexVector(*_scale_dual(self._parts, c.st, c.du))

    def dot(self, other: "DualComplexVector") -> DualComplex:
        """conj(self)^T other."""
        return DualComplex(
            complex(np.vdot(self.st, other.st)),
            complex(np.vdot(self.st, other.du) + np.vdot(self.du, other.st)),
        )

    def outer(self, other: "DualComplexVector") -> DualComplexMatrix:
        """self @ conj(other)^T."""
        return DualComplexMatrix(
            np.outer(self.st, np.conj(other.st)),
            np.outer(self.st, np.conj(other.du)) + np.outer(self.du, np.conj(other.st)),
        )

    def norm_2(self) -> DualNumber:
        return DualNumber(*_dual_norm(self._parts))

    def norm_2r(self) -> float:
        return float(_norm_2r(self._parts))

    def unit(self) -> "DualComplexVector":
        return DualComplexVector(*_unit(self._parts))


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
