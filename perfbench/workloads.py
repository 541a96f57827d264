"""Seeded problem sets, the timed solver calls, and an independent oracle per solve.

formation  Laplacians of random formation graphs (n=10, sparsity 0.1-0.6),
           each solved by pm, dcama and eddcam at tol 1e-10: full-spectrum
           deflation in dual quaternion and adjoint arithmetic, plus a small
           direct solve.
dominant   random Hermitian matrices (n=100 and 200), dcam and adcam from the
           same start vector at tol 1e-6: one long power loop on a fixed
           adjoint, no deflation and no eigh.
direct     `dqeig solve FILE --alg eddcam --out FILE` at n=200 on Laplacians
           from disconnected (large eigenvalue groups) to connected, and on a
           planted spectrum whose values share standard parts in pairs.

Every dqeig function is looked up through its module at call time, so the
tracer's wrappers see the calls.
"""

import importlib
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

MODULES = ("bench", "cli", "dual_eig", "errors", "matrices", "power", "scalars")

SOLVERS = {
    "formation": ("pm", "dcama", "eddcam"),
    "dominant": ("dcam", "adcam"),
    "direct": ("cli_solve",),
}
ITERATIVE = ("pm", "dcama", "dcam", "adcam")

# The formation settings are the `dqeig bench laplacian` defaults and the
# dominant ones the `dqeig bench aitken` defaults.
FULL = {
    "formation": {"n": 10, "sparsities": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), "graphs": 3},
    "dominant": {"sizes": (100, 100, 200) * 4},
    "direct": {"n": 200, "sparsities": (0.005, 0.02, 0.1), "synth": 1},
}
SMOKE = {
    "formation": {"n": 6, "sparsities": (0.2, 0.5), "graphs": 1},
    "dominant": {"sizes": (8, 12)},
    "direct": {"n": 12, "sparsities": (0.05, 0.3), "synth": 1},
}
FORMATION_TOL, DOMINANT_TOL, MAX_ITER = 1e-10, 1e-6, 50000
ORACLE_TOL = 1e-6  # eigenvalue agreement, relative to max(1, largest |eigenvalue|)


class Modules:
    """The dqeig modules the benchmark calls into."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"dqeig.{name}"))


@dataclass
class Problem:
    key: str
    n: int
    matrix: object
    kind: str  # "laplacian", "synth" or "random"
    cfg: object = None
    v0: object = None
    path: str = None
    edges: tuple = ()
    planted: tuple = ()
    ref: np.ndarray = None  # oracle eigenvalues, descending
    model_iters: float = None  # iterations a textbook power method needs, from ref


@dataclass
class Outcome:
    solver: str
    key: str
    n: int
    seconds: float
    iterations: int = 0
    converged: bool = True
    eigenvalues: list = field(default_factory=list)  # [st, du] pairs, descending
    aitken_exit: bool = False
    error: str = None
    extra: dict = field(default_factory=dict)
    op_s: float = None  # one floor operation (raw dual matvec or eigh), timed beside the solve
    floor_s: float = None  # op_s times the operations the input needs (see harness)


def build(m: Modules, workload: str, seed: int, spec: dict, work_dir: str):
    """Generate the seeded problem set with the package's public generators."""
    if workload == "formation":
        return _build_formation(m, seed, spec)
    if workload == "dominant":
        return _build_dominant(m, seed, spec)
    return _build_direct(m, seed, spec, work_dir)


def sizes(workload: str, spec: dict):
    if workload == "dominant":
        return sorted(set(spec["sizes"]))
    return [spec["n"]]


def _build_formation(m, seed, spec):
    n = spec["n"]
    problems = []
    # sparsities interleaved so a partial pass covers all of them
    for g in range(spec["graphs"]):
        for s in spec["sparsities"]:
            rng = np.random.default_rng([seed, int(round(1000 * s)), g])
            graph = m.bench.random_graph(n, s, rng)
            cfg = m.power.PowerIterConfig(
                max_iter=MAX_ITER, tol=FORMATION_TOL, aitken_trigger=1e-3,
                seed=int(rng.integers(0, 2**31)),
            )
            problems.append(Problem(
                f"s{s:g}#{g}", n, m.bench.build_laplacian(graph), "laplacian",
                cfg=cfg, edges=graph.edges,
            ))
    return problems


def _build_dominant(m, seed, spec):
    problems = []
    cfg = m.power.PowerIterConfig(
        max_iter=MAX_ITER, tol=DOMINANT_TOL, aitken_trigger=1e-3, seed=seed
    )
    for k, n in enumerate(spec["sizes"]):
        rng = np.random.default_rng([seed, n, k])
        q = m.bench.random_hermitian(n, rng)
        v0 = m.matrices.random_unit_vector(n, rng)
        problems.append(Problem(f"n{n}#{k}", n, q, "random", cfg=cfg, v0=v0))
    return problems


def planted_pairs(m, n: int, rng):
    """n dual-number eigenvalues whose standard parts repeat in pairs, with
    distinct dual parts: the pentagon fixture's configuration at scale."""
    st = 3.0 - np.cumsum(rng.uniform(0.02, 0.06, (n + 1) // 2))
    du = rng.uniform(-2.0, 2.0, 2 * len(st))
    values = [m.scalars.DualNumber(float(s), float(d)) for s, d in zip(np.repeat(st, 2), du)]
    return values[:n]


def _build_direct(m, seed, spec, work_dir):
    n = spec["n"]
    problems = []
    for s in spec["sparsities"]:
        rng = np.random.default_rng([seed, int(round(100000 * s))])
        graph = m.bench.random_graph(n, s, rng)
        problems.append(Problem(
            f"s{s:g}", n, m.bench.build_laplacian(graph), "laplacian", edges=graph.edges
        ))
    for k in range(spec["synth"]):
        rng = np.random.default_rng([seed, n, k])
        q, planted = m.bench.synth_known_spectrum(n, planted_pairs(m, n, rng), rng)
        problems.append(Problem(f"synth#{k}", n, q, "synth", planted=tuple(planted)))
    for p in problems:
        p.path = os.path.join(work_dir, f"in-{p.key}.json")
        m.cli.save_matrix(p.path, p.matrix)
    return problems


# -- oracles ------------------------------------------------------------------

def _graph_laplacian(n, edges):
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, j] = lap[j, i] = -1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def adjoint_standard(q):
    return np.block([[q.a1, q.a2], [-q.a2.conj(), q.a1.conj()]])


def attach_references(problems):
    """Oracle values, computed with numpy alone: the real graph Laplacian
    spectrum (dual parts zero), the planted spectrum, or the spectrum of the
    adjoint standard part. Problems for the power loops also get the
    iteration count the oracle spectrum implies."""
    for p in problems:
        if p.kind == "laplacian":
            p.ref = np.linalg.eigvalsh(_graph_laplacian(p.n, p.edges))[::-1]
        elif p.kind == "synth":
            p.ref = np.array(sorted(((s.st, s.du) for s in p.planted), reverse=True))
        else:
            p.ref = np.linalg.eigvalsh(adjoint_standard(p.matrix))[::-1]
        if p.cfg is not None:
            p.model_iters = model_iterations(
                p.ref, p.cfg.tol, p.cfg.max_iter, full_spectrum=p.kind == "laplacian")


def model_iterations(ref, tol, max_iter, full_spectrum):
    """Iterations a textbook power method needs on this spectrum, capped at
    max_iter per eigenvalue: log(mu / tol) / log(mu / below) for each
    extracted modulus mu, with `below` the next smaller distinct modulus.
    The full-spectrum drivers extract every eigenvalue until the rest drains
    below 1e-8 of the norm, as dqeig.power does. Independent of the solver,
    so a solver that needs fewer iterations shows a lower ratio over it."""
    a = np.sort(np.abs(ref))[::-1]
    drain = 1e-8 * max(1.0, float(np.linalg.norm(a)))
    total = 0.0
    for i, mu in enumerate(a if full_spectrum else a[:1]):
        if np.linalg.norm(a[i:]) <= drain:
            break
        below = a[i:][a[i:] < mu * (1.0 - 1e-9)]
        if mu <= tol or len(below) == 0 or below[0] <= 0.0:
            total += 1.0
        else:
            total += min(max_iter, max(1.0, math.log(mu / tol) / math.log(mu / below[0])))
    return total


def _dq_residual(q, lam, v):
    """|Q v - v lam| in the 2R norm, in complex-pair arithmetic:
    (A1 + A2 j)(x1 + x2 j) = (A1 x1 - A2 conj(x2)) + (A1 x2 + A2 conj(x1)) j."""
    def mul(a1, a2, x1, x2):
        return a1 @ x1 - a2 @ x2.conj(), a1 @ x2 + a2 @ x1.conj()

    s1, s2 = mul(q.a1, q.a2, v.v1, v.v2)
    d1, d2 = mul(q.a1, q.a2, v.v3, v.v4)
    e1, e2 = mul(q.a3, q.a4, v.v1, v.v2)
    st, du = lam
    parts = (s1 - v.v1 * st, s2 - v.v2 * st,
             d1 + e1 - v.v3 * st - v.v1 * du, d2 + e2 - v.v4 * st - v.v2 * du)
    return float(np.sqrt(sum(np.sum(np.abs(x) ** 2) for x in parts)))


def check(p: Problem, out: Outcome, vector=None):
    """None if the outcome matches the oracle, else the reason it does not."""
    got = np.array(out.eigenvalues, dtype=float).reshape(-1, 2)
    if p.kind == "random":
        dom = p.ref[np.argmax(np.abs(p.ref))]
        scale = max(1.0, abs(dom))
        if len(got) != 1 or abs(got[0, 0] - dom) > ORACLE_TOL * scale:
            return f"dominant eigenvalue {got.tolist()} != oracle {dom:.12g}"
        res = _dq_residual(p.matrix, got[0], vector)
        if res > 10.0 * DOMINANT_TOL * scale:
            return f"recomputed pair residual {res:.3e} exceeds 10 * tol"
        return None
    if p.kind == "synth":
        ref_st, ref_du = p.ref[:, 0], p.ref[:, 1]
    else:
        ref_st, ref_du = p.ref, np.zeros_like(p.ref)
    scale = max(1.0, float(np.abs(ref_st).max(initial=0.0)))
    k = len(got)
    # deflation (pm, dcama) stops once the rest drains: what is missing must be zero
    if k == 0 or k > p.n or (k < p.n and out.solver not in ("pm", "dcama")):
        return f"{k} eigenvalues for n={p.n}"
    if np.abs(ref_st[k:]).max(initial=0.0) > ORACLE_TOL * scale:
        return f"{p.n - k} nonzero eigenvalues missing"
    got = got[np.argsort(-got[:, 0], kind="stable")]
    ref_st, ref_du = ref_st[:k], ref_du[:k].copy()
    # within a run of equal oracle standard parts, match dual parts as sets
    got_du = got[:, 1].copy()
    start = 0
    for i in range(1, k + 1):
        if i == k or abs(ref_st[i] - ref_st[start]) > ORACLE_TOL * scale:
            got_du[start:i] = np.sort(got_du[start:i])
            ref_du[start:i] = np.sort(ref_du[start:i])
            start = i
    err_st = np.abs(got[:, 0] - ref_st).max()
    err_du = np.abs(got_du - ref_du).max()
    if max(err_st, err_du) > ORACLE_TOL * scale:
        return f"eigenvalues off the oracle by {max(err_st, err_du):.3e}"
    return None


# -- timed solves -------------------------------------------------------------

def _pairs(result):
    return [[lam.st, lam.du] for lam in result.eigenvalues()]


def solve(m: Modules, p: Problem, solver: str, work_dir: str, tracer=None, solve_id=None):
    """Time one solve; returns (Outcome, eigenvector for the dominant oracle).

    Only the call into dqeig is timed, and with a tracer the root span covers
    the same interval. Any exception is recorded as a failed solve, so one bad
    input cannot stop the run."""
    vector = None
    out = Outcome(solver, p.key, p.n, 0.0)
    result_path = os.path.join(work_dir, "out.json")
    root = tracer.open(f"solve.{solver}", solve_id) if tracer else None
    t0 = time.perf_counter()
    try:
        if solver == "eddcam":
            result = m.dual_eig.eddcam_ea(p.matrix)
        elif solver in ("pm", "dcama"):
            full_spectrum = m.power.power_method_spectrum if solver == "pm" else m.power.dcama_pm
            try:
                result = full_spectrum(p.matrix, p.cfg)
            except m.errors.InnerNoConvergence as exc:
                result = exc.partial
                out.converged = False
        elif solver in ("dcam", "adcam"):
            fn = m.power.dcam_pm if solver == "dcam" else m.power.adcam_pm
            lam, vector, trace = fn(p.matrix, p.v0, p.cfg)
        else:
            code = m.cli.main(["solve", p.path, "--alg", "eddcam", "--out", result_path])
    except Exception:  # a failed solve is counted and listed, never fatal
        out.converged = False
        out.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    finally:
        out.seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
    if out.error is not None:
        return out, None

    if solver in ("dcam", "adcam"):
        out.iterations = trace.iterations
        out.converged = trace.converged
        out.eigenvalues = [[lam.st, lam.du]]
        # an extrapolated exit appends one record beyond the raw iterations
        out.aitken_exit = trace.converged and len(trace.residuals) > trace.iterations
    elif solver == "cli_solve":
        out.extra = {"input_mb": os.path.getsize(p.path) / 1e6}
        if code != 0:
            out.converged = False
            out.error = f"exit code {code}"
            return out, None
        out.extra["output_mb"] = os.path.getsize(result_path) / 1e6
        with open(result_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        out.eigenvalues = doc["eigenvalues"]
    else:
        out.iterations = result.iterations
        out.eigenvalues = _pairs(result)
    if not out.converged:
        out.error = f"no convergence after {out.iterations} iterations"
    return out, vector
