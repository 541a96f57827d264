"""Structure-preserving maps between dual quaternion and dual complex objects.

An n x m dual quaternion matrix with complex-pair parts (A1, A2) and
(A3, A4) maps to the 2n x 2m dual complex adjoint matrix

    [ A1        A2      ]     [ A3        A4      ]
    [ -conj(A2) conj(A1)]  +  [ -conj(A4) conj(A3)] * eps.

The map is a ring isomorphism onto the set of matrices carrying this block
pattern; vectors travel through the companion maps F, F^-1 and H.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAdjointStructured, OddLength
from .matrices import (
    DualComplexMatrix,
    DualComplexVector,
    DualQuaternionMatrix,
    DualQuaternionVector,
)
from .scalars import DualComplex, Quaternion, DualQuaternion

__all__ = [
    "adjoint",
    "adjoint_inverse",
    "adjoint_block_deviation",
    "vec_map_f",
    "vec_map_f_inverse",
    "vec_map_h",
    "check_eigen_equivalence",
    "EigenEquivalenceReport",
]


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


def adjoint_block_deviation(m: DualComplexMatrix) -> float:
    """Largest entrywise violation of the adjoint block pattern."""
    r, c = m.rows // 2, m.cols // 2
    dev = 0.0
    for part in (m.st, m.du):
        tl, tr = part[:r, :c], part[:r, c:]
        bl, br = part[r:, :c], part[r:, c:]
        dev = max(
            dev,
            np.abs(tl - br.conj()).max(initial=0.0),
            np.abs(tr + bl.conj()).max(initial=0.0),
        )
    return dev


def adjoint_inverse(m: DualComplexMatrix, tol: float = 1e-12) -> DualQuaternionMatrix:
    """Invert the adjoint map.

    Small violations of the block pattern are symmetrized away by averaging
    the redundant blocks; deviations above tol (relative to the largest
    entry) raise NotAdjointStructured.
    """
    if m.rows % 2 or m.cols % 2:
        raise NotAdjointStructured(f"adjoint matrices have even dimensions, got {m.shape}")
    scale = max(1.0, np.abs(m.st).max(initial=0.0), np.abs(m.du).max(initial=0.0))
    if adjoint_block_deviation(m) > tol * scale:
        raise NotAdjointStructured(
            f"block pattern deviation {adjoint_block_deviation(m):.3e} exceeds tolerance"
        )
    r, c = m.rows // 2, m.cols // 2

    def halves(part):
        tl, tr = part[:r, :c], part[:r, c:]
        bl, br = part[r:, :c], part[r:, c:]
        return 0.5 * (tl + br.conj()), 0.5 * (tr - bl.conj())

    a1, a2 = halves(m.st)
    a3, a4 = halves(m.du)
    return DualQuaternionMatrix(a1, a2, a3, a4)


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


@dataclass(frozen=True)
class EigenEquivalenceReport:
    """Residuals of the three equivalent eigenvalue equations.

    residual_direct  : |Q v - v lam|        (dual quaternion side)
    residual_adjoint : |P u1 - lam u1|      with u1 = F(v)
    residual_partner : |P u2 - conj(lam) u2| with u2 = H(F(v))
    """

    residual_direct: float
    residual_adjoint: float
    residual_partner: float

    def max_spread(self) -> float:
        r = (self.residual_direct, self.residual_adjoint, self.residual_partner)
        return max(r) - min(r)


def check_eigen_equivalence(
    q: DualQuaternionMatrix, lam: DualComplex, v: DualQuaternionVector
) -> EigenEquivalenceReport:
    """Residuals of the direct and adjoint-side eigenvalue equations.

    The three residuals agree (up to rounding) whenever the adjoint map is
    implemented correctly, regardless of whether (lam, v) is an eigenpair.
    """
    if q.rows != q.cols or q.cols != v.n:
        raise DimensionMismatch("matrix and vector sizes must agree")
    lam_dq = DualQuaternion(
        Quaternion.from_complex_pair(lam.st, 0j),
        Quaternion.from_complex_pair(lam.du, 0j),
    )
    direct = (q @ v - v.scale_right(lam_dq)).norm_2r()

    p = adjoint(q)
    u1 = vec_map_f(v)
    u2 = vec_map_h(u1)
    r1 = (p @ u1 - u1.scale(lam)).norm_2r()
    r2 = (p @ u2 - u2.scale(lam.conjugate())).norm_2r()
    return EigenEquivalenceReport(direct, r1, r2)
