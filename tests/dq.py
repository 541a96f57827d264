"""Dual quaternion helpers for the tests: quaternions from complex pairs,
entries, basis vectors, the Hermitian dot and outer products, right scaling,
the norms and the Hermitian test at a given tolerance, each on the parts
stack of the objects and the kernels of dqeig.matrices."""

import numpy as np

from dqeig.matrices import (
    DualQuaternionMatrix,
    DualQuaternionVector,
    _dq_dot,
    _dq_mul,
    _dual_norm,
    _is_hermitian,
    _norm_2r,
    _scale_dual,
)
from dqeig.scalars import DualNumber, DualQuaternion, Quaternion


def quaternion(a: complex, b: complex) -> Quaternion:
    """The quaternion a + b j of the complex pair (a, b)."""
    return Quaternion(a.real, a.imag, b.real, b.imag)


def max_abs_diff(a, b):
    """Largest entry of a - b over all parts of two part stacks or sequences."""
    return max(float(np.abs(x - y).max(initial=0.0)) for x, y in zip(a, b))


def entry(x, *index) -> DualQuaternion:
    """The entry of a dual quaternion matrix or vector at index."""
    a1, a2, a3, a4 = (complex(a[index]) for a in x._parts)
    return DualQuaternion(quaternion(a1, a2), quaternion(a3, a4))


def identity(n: int) -> DualQuaternionMatrix:
    return DualQuaternionMatrix(np.eye(n), np.zeros((n, n)))


def zeros(rows: int, cols: int) -> DualQuaternionMatrix:
    return DualQuaternionMatrix(np.zeros((rows, cols)), np.zeros((rows, cols)))


def basis(n: int, i: int) -> DualQuaternionVector:
    e = np.zeros(n)
    e[i] = 1.0
    return DualQuaternionVector(e, np.zeros(n))


def dot(x, y) -> DualQuaternion:
    """conj(x)^T y of two dual quaternion vectors."""
    s1, s2, d1, d2 = map(complex, _dq_dot(x._parts, y._parts))
    return DualQuaternion(quaternion(s1, s2), quaternion(d1, d2))


def outer(x, y) -> DualQuaternionMatrix:
    """x conj(y)^T of two dual quaternion vectors."""

    def houter(x1, x2, y1, y2):
        m1 = np.outer(x1, np.conj(y1)) + np.outer(x2, np.conj(y2))
        m2 = -np.outer(x1, y2) + np.outer(x2, y1)
        return m1, m2

    x1, x2, x3, x4 = x._parts
    y1, y2, y3, y4 = y._parts
    s1, s2 = houter(x1, x2, y1, y2)
    da1, da2 = houter(x1, x2, y3, y4)
    db1, db2 = houter(x3, x4, y1, y2)
    return DualQuaternionMatrix(s1, s2, da1 + db1, da2 + db2)


def scale_right(v, c) -> DualQuaternionVector:
    """Entrywise right multiplication by a scalar dual quaternion or dual number."""
    if isinstance(c, DualNumber):
        return DualQuaternionVector(*_scale_dual(v._parts, c.st, c.du))
    c = c.st.as_complex_pair() + c.du.as_complex_pair()
    return DualQuaternionVector(*_dq_mul(v._parts, c, np.multiply))


def dual_norm(x) -> DualNumber:
    """2-norm of a vector, Frobenius norm of a matrix, as a dual number; a
    pure-dual x gets |dual part| eps."""
    return DualNumber(*_dual_norm(x._parts))


def norm_2r(x) -> float:
    """sqrt of the sum of squared moduli over all parts; |Q|_F of a matrix."""
    return float(_norm_2r(x._parts))


def is_hermitian(x, tol: float) -> bool:
    """Whether every entry of X - X* is at most tol in modulus."""
    return _is_hermitian(x._parts, tol)
