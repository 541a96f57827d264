"""The generators in dqeig.bench one entry and one column at a time: the
references their array versions are checked against, byte for byte.

build_laplacian forms every adjacency entry conj(q_i) * q_j as a
DualQuaternion object and assembles the matrix with from_entries.
synth_known_spectrum runs left-looking modified Gram-Schmidt on
DualQuaternionVector objects: each column takes its projections onto the
finished basis vectors one after another.
"""

import numpy as np

from dqeig.errors import DegenerateRandomDraw
from dqeig.matrices import DualQuaternionMatrix, DualQuaternionVector
from dqeig.scalars import DualQuaternion, Quaternion
from tests.dq import dot, dual_norm, scale_right


def build_laplacian(g):
    zero = DualQuaternion()
    entries = [[zero for _ in range(g.n)] for _ in range(g.n)]
    degree = [0] * g.n
    for i, j in g.edges:
        prod = g.poses[i].conj() * g.poses[j]
        entries[i][j] = -prod
        entries[j][i] = -prod.conj()
        degree[i] += 1
        degree[j] += 1
    for i in range(g.n):
        entries[i][i] = DualQuaternion(Quaternion(float(degree[i])), Quaternion())
    return DualQuaternionMatrix.from_entries(entries)


def synth_known_spectrum(n, sigma, seed):
    sigma = tuple(sigma)
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    basis = []
    for j in range(n):
        v = DualQuaternionVector(g1[:, j], g2[:, j])
        for u in basis:
            v = v - scale_right(u, dot(u, v))
        if dual_norm(v).st <= 1e-8:
            raise DegenerateRandomDraw("random columns were numerically dependent")
        basis.append(v.unit())
    vmat = DualQuaternionMatrix(
        np.column_stack([u.v1 for u in basis]), np.column_stack([u.v2 for u in basis])
    )
    diag = DualQuaternionMatrix(
        np.diag([s.st for s in sigma]).astype(np.complex128),
        np.zeros((n, n), dtype=np.complex128),
        np.diag([s.du for s in sigma]).astype(np.complex128),
        np.zeros((n, n), dtype=np.complex128),
    )
    return vmat @ diag @ vmat.conj_transpose(), sigma
