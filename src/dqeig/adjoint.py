"""Structure-preserving maps between dual quaternion objects and the arrays
of the dual complex adjoint side.

An n x m dual quaternion matrix with complex-pair parts (A1, A2) and
(A3, A4) maps to the 2n x 2m dual complex adjoint matrix

    [ A1        A2      ]     [ A3        A4      ]
    [ -conj(A2) conj(A1)]  +  [ -conj(A4) conj(A3)] * eps.

The map is a ring isomorphism onto the set of matrices carrying this block
pattern. On the adjoint side a matrix or vector is the pair (st, du) of
complex arrays of its standard and dual parts, the first axis of length 2n.
Vectors travel through the companion maps F, F^-1 and H, which take a whole
stack of vectors at once as the columns of (2n, k) arrays.
"""

import numpy as np

from .errors import OddLength
from .matrices import DualQuaternionMatrix

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


def adjoint(q: DualQuaternionMatrix):
    """The (st, du) pair of read-only arrays of the dual complex adjoint of q."""
    st, du = _block(q.a1, q.a2), _block(q.a3, q.a4)
    st.setflags(write=False)
    du.setflags(write=False)
    return st, du


def _half(u) -> int:
    m = len(u[0])
    if m % 2:
        raise OddLength(f"length {m} is odd")
    return m // 2


def vec_map_f(v):
    """F of the parts (v1, v2, v3, v4) of a dual quaternion vector, or of the
    columns of n x k parts: (st, du) = ((v1, -conj(v2)), (v3, -conj(v4)))
    stacked along the first axis."""
    v1, v2, v3, v4 = v
    return np.concatenate([v1, -v2.conj()]), np.concatenate([v3, -v4.conj()])


def vec_map_f_inverse(u):
    """Inverse of F: the parts (v1, v2, v3, v4), stacked as one array, of the
    (st, du) pair u of even length 2n."""
    st, du = u
    n = _half(u)
    return np.stack((st[:n], -st[n:].conj(), du[:n], -du[n:].conj()))


def vec_map_h(u):
    """H: per part, (u_top, u_bot) -> (conj(u_bot), -conj(u_top)).

    H(F(v)) equals F(v * j), and H(H(u)) = -u.
    """
    n = _half(u)
    return tuple(np.concatenate([a[n:].conj(), -a[:n].conj()]) for a in u)
