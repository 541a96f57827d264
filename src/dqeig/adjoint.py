"""Structure-preserving maps between dual quaternion and dual complex objects.

An n x m dual quaternion matrix with complex-pair parts (A1, A2) and
(A3, A4) maps to the 2n x 2m dual complex adjoint matrix

    [ A1        A2      ]     [ A3        A4      ]
    [ -conj(A2) conj(A1)]  +  [ -conj(A4) conj(A3)] * eps.

The map is a ring isomorphism onto the set of matrices carrying this block
pattern; vectors travel through the companion maps F, F^-1 and H.
"""

import numpy as np

from .errors import OddLength
from .matrices import (
    DualComplexMatrix,
    DualComplexVector,
    DualQuaternionMatrix,
    DualQuaternionVector,
)

__all__ = ["adjoint", "vec_map_f", "vec_map_f_inverse", "vec_map_h"]


def _block(a, b):
    """[[a, b], [-conj(b), conj(a)]], written block by block into one array."""
    r, c = a.shape
    out = np.empty((2 * r, 2 * c), dtype=np.complex128)
    out[:r, :c] = a
    out[:r, c:] = b
    np.negative(np.conj(b, out=out[r:, :c]), out=out[r:, :c])
    np.conj(a, out=out[r:, c:])
    return out


def adjoint(q: DualQuaternionMatrix) -> DualComplexMatrix:
    """Dual complex adjoint matrix of a dual quaternion matrix."""
    return DualComplexMatrix._wrap(_block(q.a1, q.a2), _block(q.a3, q.a4))


def vec_map_f(v: DualQuaternionVector) -> DualComplexVector:
    """F: stack (v1, -conj(v2)) for the standard part and (v3, -conj(v4)) for the dual."""
    return DualComplexVector(
        np.concatenate([v.v1, -v.v2.conj()]),
        np.concatenate([v.v3, -v.v4.conj()]),
    )


def vec_map_f_inverse(u: DualComplexVector) -> DualQuaternionVector:
    """Inverse of F; requires even length."""
    if u.n % 2:
        raise OddLength(f"length {u.n} is odd")
    n = u.n // 2
    return DualQuaternionVector(
        u.st[:n], -u.st[n:].conj(), u.du[:n], -u.du[n:].conj()
    )


def vec_map_h(u: DualComplexVector) -> DualComplexVector:
    """H: per part, (u_top, u_bot) -> (conj(u_bot), -conj(u_top)).

    H(F(v)) equals F(v * j), and H(H(u)) = -u.
    """
    if u.n % 2:
        raise OddLength(f"length {u.n} is odd")
    n = u.n // 2
    return DualComplexVector(
        np.concatenate([u.st[n:].conj(), -u.st[:n].conj()]),
        np.concatenate([u.du[n:].conj(), -u.du[:n].conj()]),
    )
