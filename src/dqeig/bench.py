"""Problem generators and benchmark runners.

Covers the visibility-graph Laplacians used in multi-agent formation
control, random Hermitian test matrices, known-spectrum fixtures (the
synthesis oracle for accuracy tests), the hard-coded pentagon fixture whose
spectrum has repeated standard parts with distinct dual parts, and the
benchmark driver that feeds the CLI.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dual_eig import eddcam_ea
from .errors import DegenerateRandomDraw, InnerNoConvergence, SparsityTooHigh
from .matrices import (
    DualQuaternionMatrix,
    _dq_dot,
    _dq_mul,
    _dual_norm,
    _unit,
    random_unit_vector,
)
from .power import (
    PowerIterConfig,
    adcam_pm,
    dcam_pm,
    dcama_pm,
    pair_residual,
    power_method_spectrum,
)
from .scalars import DualNumber, DualQuaternion, Quaternion, project_unit_dual_quaternion

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


def build_laplacian(g: VisibilityGraph) -> DualQuaternionMatrix:
    """Laplacian L = D - A with adjacency entries conj(q_i) * q_j."""
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
    zero = np.zeros(n, dtype=np.complex128)
    basis = []
    for j in range(n):
        v = (g1[:, j], g2[:, j], zero, zero)
        for u in basis:
            v = tuple(a - b for a, b in zip(v, _dq_mul(u, _dq_dot(u, v), np.multiply)))
        if _dual_norm(v)[0] <= 1e-8:
            raise DegenerateRandomDraw("random columns were numerically dependent")
        basis.append(_unit(v))
    v1 = np.column_stack([u[0] for u in basis])
    v2 = np.column_stack([u[1] for u in basis])
    vmat = DualQuaternionMatrix(v1, v2)
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


def _worker_count() -> int:
    raw = os.environ.get("DQEIG_THREADS", "1")
    try:
        k = int(raw)
    except ValueError:
        return 1
    if k == 0:
        return os.cpu_count() or 1
    return max(1, k)


def _aitken_trial(args):
    n, trial, seed, tol, max_iter = args
    rng = np.random.default_rng([seed, n, trial])
    q = random_hermitian(n, rng)
    v0 = random_unit_vector(n, rng)
    cfg = PowerIterConfig(max_iter=max_iter, tol=tol, aitken_trigger=1e-3, seed=seed)
    records = []
    for name, solver in (("dcam", dcam_pm), ("adcam", adcam_pm)):
        t0 = time.perf_counter()
        lam, v, tr = solver(q, v0, cfg)
        dt = time.perf_counter() - t0
        records.append(
            BenchRecord(
                algorithm=name,
                n=n,
                sparsity=None,
                seed=seed,
                trial=trial,
                e_lambda=pair_residual(q, lam, v),
                iterations=float(tr.iterations),
                wall_seconds=dt,
                converged=tr.converged,
            )
        )
    return records


def _laplacian_trial(args):
    n, s, trial, seed, tol, max_iter = args
    np.linalg.eigh(np.eye(2, dtype=np.complex128))  # pay LAPACK warm-up outside the timers
    rng = np.random.default_rng([seed, n, int(round(1000 * s)), trial])
    lap = build_laplacian(random_graph(n, s, rng))
    inner_seed = int(rng.integers(0, 2**31))
    cfg = PowerIterConfig(
        max_iter=max_iter, tol=tol, aitken_trigger=max(tol, 1e-3), seed=inner_seed
    )
    records = []
    for name in ("pm", "dcama", "eddcam"):
        t0 = time.perf_counter()
        converged = True
        if name == "eddcam":
            result = eddcam_ea(lap)
        else:
            driver = power_method_spectrum if name == "pm" else dcama_pm
            try:
                result = driver(lap, cfg)
            except InnerNoConvergence as exc:
                result = exc.partial
                converged = False
        dt = time.perf_counter() - t0
        records.append(
            BenchRecord(
                algorithm=name,
                n=n,
                sparsity=s,
                seed=seed,
                trial=trial,
                e_lambda=result.residual,
                iterations=float(result.iterations),
                wall_seconds=dt,
                converged=converged,
            )
        )
    return records


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
    DQEIG_THREADS > 1 runs trials in a process pool (0 means all cores).
    """
    if kind not in _BENCH_DEFAULTS:
        raise ValueError(f"unknown benchmark kind {kind!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    tol = _BENCH_DEFAULTS[kind]["tol"] if tol is None else tol
    max_iter = _BENCH_DEFAULTS[kind]["max_iter"] if max_iter is None else max_iter

    if kind == "aitken":
        fn = _aitken_trial
        tasks = [(n, t, seed, tol, max_iter) for n in sizes for t in range(trials)]
    else:
        fn = _laplacian_trial
        tasks = [
            (n, s, t, seed, tol, max_iter)
            for n in sizes
            for s in sparsities
            for t in range(trials)
        ]

    workers = _worker_count()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(fn, tasks))
    else:
        grouped = [fn(task) for task in tasks]
    return [record for group in grouped for record in group]
