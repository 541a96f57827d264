"""Problem generators and benchmark runners.

Covers the visibility-graph Laplacians used in multi-agent formation
control, random Hermitian test matrices, known-spectrum fixtures (the
synthesis oracle for accuracy tests), the hard-coded pentagon fixture whose
spectrum has repeated standard parts with distinct dual parts, and the
benchmark driver that feeds the CLI.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRandomDraw, SparsityTooHigh
from .matrices import (
    DualQuaternionMatrix,
    _dq_dot,
    _dq_mul,
    _dual_norm,
    _unit,
    random_unit_vector,
)
from .power import PowerIterConfig
from .scalars import DualNumber, DualQuaternion, Quaternion, project_unit_dual_quaternion
from .solve import solve

__all__ = [
    "VisibilityGraph",
    "BenchRecord",
    "build_laplacian",
    "pentagon_fixture",
    "PENTAGON_REFERENCE_EIGENVALUES",
    "random_graph",
    "random_hermitian",
    "synth_known_spectrum",
    "run_benchmark",
]


@dataclass(frozen=True)
class VisibilityGraph:
    """Undirected agent graph with a unit dual quaternion pose per vertex."""

    n: int
    edges: tuple
    poses: tuple

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge ({i}, {j}) for n={self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        if len(self.poses) != self.n:
            raise ValueError("one pose per vertex required")
        for k, pose in enumerate(self.poses):
            if not pose.is_unit(1e-12):
                raise ValueError(f"pose {k} is not a unit dual quaternion")

    @property
    def sparsity(self) -> float:
        return 2.0 * len(self.edges) / float(self.n * self.n)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark trial row."""

    algorithm: str
    n: int
    sparsity: float | None
    seed: int
    trial: int
    e_lambda: float
    iterations: float
    wall_seconds: float
    converged: bool = True

    def __post_init__(self):
        if self.e_lambda < 0.0:
            raise ValueError("e_lambda must be nonnegative")


def _quaternion_product(p, q):
    """Components (w, x, y, z) of p q for component arrays p and q, in the
    order of Quaternion.__mul__."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def build_laplacian(g: VisibilityGraph) -> DualQuaternionMatrix:
    """Laplacian L = D - A with adjacency entries conj(q_i) * q_j.

    The products run over the edge list on real component arrays, in the
    order of DualQuaternion.__mul__: st = p.st q.st, du = p.st q.du + p.du q.st.
    """
    n = g.n
    poses = np.array([
        (p.st.w, p.st.x, p.st.y, p.st.z, p.du.w, p.du.x, p.du.y, p.du.z) for p in g.poses
    ]).reshape(n, 8).T
    i, j = np.array(g.edges, dtype=int).reshape(-1, 2).T
    conj = np.array([1.0, -1.0, -1.0, -1.0] * 2)[:, None]
    p, q = poses[:, i] * conj, poses[:, j]
    st = _quaternion_product(p[:4], q[:4])
    du = _quaternion_product(p[:4], q[4:]) + _quaternion_product(p[4:], q[:4])
    prod = np.concatenate([st, du])
    # entry (i, j) is -prod and entry (j, i) is -conj(prod), whose quaternion
    # components are (-w, x, y, z): only the real parts of a1 and a3 flip
    parts = np.zeros((4, n, n), dtype=np.complex128)
    for k, (re, im) in enumerate(zip(prod[0::2], prod[1::2])):
        parts[k].real[i, j], parts[k].imag[i, j] = -re, -im
        parts[k].real[j, i] = -re if k % 2 == 0 else re
        parts[k].imag[j, i] = im
    degree = np.bincount(np.concatenate([i, j]), minlength=n)
    parts[0].real[np.arange(n), np.arange(n)] = degree
    return DualQuaternionMatrix._of(parts)


# Poses of the five-agent ring fixture, transcribed at four decimals. The
# published digits are a rounded unit dual quaternion vector; rounding breaks
# the exact degeneracy of the standard-part spectrum that the fixture exists
# to exhibit, so each pose is projected back onto the unit set when the
# matrix is built.
_PENTAGON_ST = (
    (-0.5103, -0.2661, -0.2632, -0.7743),
    (0.2881, -0.6705, -0.2305, -0.6437),
    (-0.1236, 0.1789, -0.7519, -0.6223),
    (-0.5605, -0.2485, -0.6001, -0.5138),
    (-0.5946, -0.1002, -0.2584, -0.7547),
)
_PENTAGON_DU = (
    (0.2645, -0.4286, 0.4180, -0.1691),
    (-0.3885, -0.5378, 0.2295, 0.3042),
    (-0.9227, -0.9461, 0.1770, -0.3027),
    (-0.2963, -0.3621, 0.6937, -0.3117),
    (-0.2488, 0.2520, 0.0635, 0.1408),
)
_PENTAGON_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))

PENTAGON_REFERENCE_EIGENVALUES = (
    DualNumber(2.0000, 3.0000),
    DualNumber(0.6180, 3.5257),
    DualNumber(0.6180, 2.4743),
    DualNumber(-1.6180, 3.8507),
    DualNumber(-1.6180, 2.1493),
)


def pentagon_poses() -> tuple:
    """The five ring poses, projected onto the unit dual quaternion set."""
    return tuple(
        project_unit_dual_quaternion(DualQuaternion(Quaternion(*st), Quaternion(*du)))
        for st, du in zip(_PENTAGON_ST, _PENTAGON_DU)
    )


def pentagon_fixture() -> DualQuaternionMatrix:
    """5x5 Hermitian fixture over the five-cycle.

    Off-diagonal entries are conj(q_i) * q_j on ring edges; the diagonal
    entry of row i is the dual number (i+1) * eps. Its spectrum has two
    pairs of eigenvalues sharing a standard part with distinct dual parts,
    the configuration on which plain power iteration stalls.
    """
    poses = pentagon_poses()
    zero = DualQuaternion()
    entries = [[zero for _ in range(5)] for _ in range(5)]
    for i, j in _PENTAGON_EDGES:
        prod = poses[i].conj() * poses[j]
        entries[i][j] = prod
        entries[j][i] = prod.conj()
    for i in range(5):
        entries[i][i] = DualQuaternion(Quaternion(), Quaternion(float(i + 1)))
    return DualQuaternionMatrix.from_entries(entries)


def random_graph(n: int, s: float, seed) -> VisibilityGraph:
    """Random graph with round(s * n^2 / 2) edges and random unit poses."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"sparsity must be in (0, 1], got {s}")
    rng = np.random.default_rng(seed)
    target = round(s * n * n / 2.0)
    capacity = n * (n - 1) // 2
    if target > capacity:
        raise SparsityTooHigh(f"{target} edges requested, capacity is {capacity}")
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = sorted(rng.choice(len(all_pairs), size=target, replace=False).tolist())
    edges = tuple(all_pairs[k] for k in chosen)
    poses = tuple(
        project_unit_dual_quaternion(
            DualQuaternion(
                Quaternion(*rng.standard_normal(4)), Quaternion(*rng.standard_normal(4))
            )
        )
        for _ in range(n)
    )
    return VisibilityGraph(n, edges, poses)


def random_hermitian(n: int, seed) -> DualQuaternionMatrix:
    """Random Hermitian matrix (A + A*)/2, A with components uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=(8, n, n))
    a1 = c[0] + 1j * c[1]
    a2 = c[2] + 1j * c[3]
    a3 = c[4] + 1j * c[5]
    a4 = c[6] + 1j * c[7]
    return DualQuaternionMatrix(
        0.5 * (a1 + a1.conj().T),
        0.5 * (a2 - a2.T),
        0.5 * (a3 + a3.conj().T),
        0.5 * (a4 - a4.T),
    )


def synth_known_spectrum(n: int, sigma, seed):
    """Hermitian matrix with a planted dual-number spectrum.

    Builds a unitary quaternion matrix V by Gram-Schmidt on a random draw
    and returns (V diag(sigma) V*, sigma). The planted values are exactly
    the eigenvalues, which makes this the independent oracle for the
    eigensolvers.
    """
    sigma = tuple(sigma)
    if len(sigma) != n:
        raise ValueError(f"need {n} eigenvalues, got {len(sigma)}")
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # modified Gram-Schmidt, right-looking: the columns are stored as the rows
    # of one stack of parts, and each finished basis vector's projection
    # leaves all later rows at once
    x = np.zeros((4, n, n), dtype=np.complex128)
    x[0], x[1] = g1.T, g2.T
    for j in range(n):
        if _dual_norm(x[:, j])[0] <= 1e-8:
            raise DegenerateRandomDraw("random columns were numerically dependent")
        u = x[:, j] = _unit(x[:, j])
        rest = x[:, j + 1 :]
        rest -= _dq_mul(u, _dq_dot(u, rest)[:, :, None], np.multiply)
    vmat = DualQuaternionMatrix(x[0].T, x[1].T)
    diag = DualQuaternionMatrix(
        np.diag([s.st for s in sigma]).astype(np.complex128),
        np.zeros((n, n), dtype=np.complex128),
        np.diag([s.du for s in sigma]).astype(np.complex128),
        np.zeros((n, n), dtype=np.complex128),
    )
    return vmat @ diag @ vmat.conj_transpose(), sigma


# -- benchmark driver ---------------------------------------------------------

_BENCH_DEFAULTS = {
    "aitken": {"tol": 1e-6, "max_iter": 50000},
    "laplacian": {"tol": 1e-10, "max_iter": 50000},
}


def _timed_records(q, algorithms, cfg, v0=None, **fields):
    """One BenchRecord per algorithm, each timing one solve of q."""
    records = []
    for name in algorithms:
        t0 = time.perf_counter()
        res = solve(q, name, cfg, v0)
        dt = time.perf_counter() - t0
        records.append(
            BenchRecord(
                algorithm=name,
                e_lambda=res.residual,
                iterations=float(res.iterations),
                wall_seconds=dt,
                converged=res.converged,
                **fields,
            )
        )
    return records


def _aitken_trial(n, trial, seed, tol, max_iter):
    rng = np.random.default_rng([seed, n, trial])
    q = random_hermitian(n, rng)
    v0 = random_unit_vector(n, rng)
    cfg = PowerIterConfig(max_iter=max_iter, tol=tol, aitken_trigger=1e-3, seed=seed)
    return _timed_records(
        q, ("dcam", "adcam"), cfg, v0, n=n, sparsity=None, seed=seed, trial=trial
    )


def _laplacian_trial(n, s, trial, seed, tol, max_iter):
    np.linalg.eigh(np.eye(2, dtype=np.complex128))  # pay LAPACK warm-up outside the timers
    rng = np.random.default_rng([seed, n, int(round(1000 * s)), trial])
    lap = build_laplacian(random_graph(n, s, rng))
    inner_seed = int(rng.integers(0, 2**31))
    cfg = PowerIterConfig(
        max_iter=max_iter, tol=tol, aitken_trigger=max(tol, 1e-3), seed=inner_seed
    )
    return _timed_records(
        lap, ("pm", "dcama", "eddcam"), cfg, n=n, sparsity=s, seed=seed, trial=trial
    )


def run_benchmark(
    kind: str,
    *,
    sizes=(10,),
    sparsities=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
    trials: int = 10,
    seed: int = 0,
    tol: float | None = None,
    max_iter: int | None = None,
):
    """Run one benchmark family and return the per-trial records.

    Trials are independent and seeded from (seed, size, sparsity, trial), so
    identical arguments reproduce identical records apart from wall times.
    Trials run one after another.
    """
    if kind not in _BENCH_DEFAULTS:
        raise ValueError(f"unknown benchmark kind {kind!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    tol = _BENCH_DEFAULTS[kind]["tol"] if tol is None else tol
    max_iter = _BENCH_DEFAULTS[kind]["max_iter"] if max_iter is None else max_iter

    if kind == "aitken":
        grouped = [_aitken_trial(n, t, seed, tol, max_iter) for n in sizes for t in range(trials)]
    else:
        grouped = [
            _laplacian_trial(n, s, t, seed, tol, max_iter)
            for n in sizes
            for s in sparsities
            for t in range(trials)
        ]
    return [record for records in grouped for record in records]
