"""Object-based Gram-Schmidt: the reference the array version in dqeig.dual_eig
is checked against.

Every step runs on the immutable DualQuaternionVector objects, one candidate
and one projection at a time. tests/test_dual_eig_core.py requires
dqeig.dual_eig.orthogonalize_eigenvectors, and eddcam_ea through it, to give
bit-identical results.
"""

import numpy as np

from dqeig.errors import NotAnEigenvector


def orthogonalize_eigenvectors(vs, q, lam, tol_rank=1e-8):
    scale = max(1.0, q.norm_fr())
    for v in vs:
        res = (q @ v - v.scale_right(lam)).norm_2r()
        if res > 1e-8 * scale * max(1.0, v.norm_2r()):
            raise NotAnEigenvector(f"candidate residual {res:.3e} too large for {lam}")
    out = []
    for v in vs:
        w = v
        for u in out:
            w = w - u.scale_right(u.dot(v))
        nrm = w.norm_2()
        if nrm.st > tol_rank * max(1.0, v.norm_2r()):
            out.append(w.scale_right(nrm.reciprocal()))
    return out


def e_lambda(q, pairs):
    """Mean |Q v - v lam| over the returned pairs, in object arithmetic."""
    residuals = [(q @ v - v.scale_right(lam)).norm_2r() for lam, vecs in pairs for v in vecs]
    return float(np.mean(residuals))
