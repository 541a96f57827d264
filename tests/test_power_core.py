"""The array-native power core against the object-based reference loops.

tests/reference_power.py keeps the loops that ran every step on the
immutable vector objects. The core must stop after the same number of
iterations with the same convergence flag, and its per-step eigenvalue and
residual traces must agree to TRACE_TOL * max(1, |lam|). Its reductions
differ from the objects' only in summation order, so the tolerance is a
rounding-level one, fixed before the core was written.
"""

import numpy as np
import pytest

from dqeig.bench import build_laplacian, random_graph, random_hermitian
from dqeig.errors import InnerNoConvergence
from dqeig.matrices import (
    DualQuaternionMatrix,
    DualQuaternionVector,
    _dq_mul,
    _dq_stack,
    random_unit_vector,
)
from dqeig.power import (
    PowerIterConfig,
    _power,
    _Quaternion,
    adcam_pm,
    dcam_pm,
    dcama_pm,
    power_method_baseline,
    power_method_spectrum,
)
from dqeig.scalars import DualNumber
from tests import reference_power as ref

TRACE_TOL = 1e-13
SPARSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

# formation-style Laplacians at the `bench laplacian` tolerance, and random
# Hermitian matrices; on seed 2 both deflation drivers fail at pair 10
LAPLACIANS = [("laplacian", s, 1e-10) for s in SPARSITIES]
RANDOM = [("random", seed, 1e-8) for seed in range(3)]
# the size and tolerance of the benchmark's dominant workload
DOMINANT = [("dominant", 0, 1e-6)]
PROBLEMS = LAPLACIANS + RANDOM + DOMINANT
DRIVER_PROBLEMS = LAPLACIANS + RANDOM[2:]


def ids(problems):
    return [f"{kind}-{param}" for kind, param, _ in problems]


def problem(kind, param, tol):
    if kind == "laplacian":
        q = build_laplacian(random_graph(10, param, [7, SPARSITIES.index(param)]))
    else:
        q = random_hermitian(100 if kind == "dominant" else 20, param)
    return q, PowerIterConfig(max_iter=5000, tol=tol, aitken_trigger=1e-3, seed=1)


def scale(lams):
    return TRACE_TOL * np.maximum(1.0, np.abs(lams).max(axis=1))


def as_array(lams):
    return np.array([(lam.st, lam.du) for lam in lams]).reshape(-1, 2)


def assert_same_trace(got, want):
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert len(got.residuals) == len(want.residuals)
    lam, lam_ref = as_array(got.eigenvalues), as_array(want.eigenvalues)
    bound = scale(lam_ref)
    assert np.all(np.abs(lam - lam_ref).max(axis=1) <= bound)
    assert np.all(np.abs(np.array(got.residuals) - np.array(want.residuals)) <= bound)
    assert abs(got.dropped_imag - want.dropped_imag) <= bound.max()
    assert got.imag_flag == want.imag_flag


@pytest.mark.parametrize("kind,param,tol", PROBLEMS, ids=ids(PROBLEMS))
@pytest.mark.parametrize(
    "solver,reference",
    [
        (power_method_baseline, ref.power_method_baseline),
        (dcam_pm, ref.dcam_pm),
        (adcam_pm, ref.adcam_pm),
    ],
    ids=["pm", "dcam", "adcam"],
)
def test_single_pair_solver_follows_the_reference(kind, param, tol, solver, reference):
    q, cfg = problem(kind, param, tol)
    v0 = random_unit_vector(q.rows, np.random.default_rng(2))
    lam, v, trace = solver(q, v0, cfg)
    lam_ref, v_ref, trace_ref = reference(q, v0, cfg)
    assert_same_trace(trace, trace_ref)
    # adcam exits through Aitken on every problem here, which records the
    # extrapolated pair once more than there were iterations
    assert len(trace.residuals) == trace.iterations + (solver is adcam_pm)
    assert (lam.st, lam.du) == (trace.eigenvalues[-1].st, trace.eigenvalues[-1].du)
    bound = TRACE_TOL * max(1.0, abs(lam_ref.st), abs(lam_ref.du))
    for a, b in zip((v.v1, v.v2, v.v3, v.v4), (v_ref.v1, v_ref.v2, v_ref.v3, v_ref.v4)):
        assert np.abs(a - b).max() <= bound


# (nonzero components (a1, a2, a3, a4) of Q and of the start vector, seed),
# one case for each of the six components of v^* Q v that the cast to a dual
# number drops, chosen so that this component is the largest one in the trace
DROPPED = {
    "s1-imag": ((1, 0, 0, 0), 8),
    "s2-real": ((1, 1, 0, 0), 8),
    "s2-imag": ((1, 1, 0, 0), 2),
    "d1-imag": ((1, 1, 1, 1), 0),
    "d2-real": ((1, 1, 1, 1), 8),
    "d2-imag": ((1, 1, 1, 1), 1),
}


@pytest.mark.parametrize("mask,seed", DROPPED.values(), ids=DROPPED.keys())
@pytest.mark.parametrize(
    "solver,reference",
    [
        (power_method_baseline, ref.power_method_baseline),
        (dcam_pm, ref.dcam_pm),
        (adcam_pm, ref.adcam_pm),
    ],
    ids=["pm", "dcam", "adcam"],
)
def test_traces_drop_the_imaginary_components_the_reference_drops(mask, seed, solver, reference):
    # on a non-Hermitian Q the dropped components are O(1)
    rng = np.random.default_rng(seed)
    mask = np.array(mask)
    q = DualQuaternionMatrix(*(mask[:, None, None] * (
        rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8)))))
    v0 = DualQuaternionVector(*(mask[:, None] * (
        rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))))).unit()
    cfg = PowerIterConfig(max_iter=50, tol=1e-300)
    _, _, trace = solver(q, v0, cfg)
    _, _, trace_ref = reference(q, v0, cfg)
    assert trace_ref.imag_flag and trace_ref.dropped_imag > 0.1
    assert_same_trace(trace, trace_ref)


DEFLATED = LAPLACIANS[2:3] + RANDOM[:1]


@pytest.mark.parametrize("kind,param,tol", DEFLATED, ids=ids(DEFLATED))
def test_deflated_quaternion_table_multiplies_by_its_deflated_matrix(kind, param, tol):
    # the matrix _Quaternion stacks once is the one it deflated to
    q, cfg = problem(kind, param, tol)
    n = q.rows
    rng = np.random.default_rng(5)
    alg = _Quaternion(q._parts)
    for _ in range(3):
        st, du, x, _, converged = _power(alg, alg.enter(random_unit_vector(n, rng)), cfg)
        assert converged
        alg = alg.deflated(x, DualNumber(st, du))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(alg.a, _dq_stack(alg.parts)))
        v = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        want = _dq_mul(alg.parts, v)
        assert np.abs(alg.matvec(v) - want).max() <= 1e-14 * n


def spectrum(driver, q, cfg):
    """(result, index of the failed pair or None)."""
    try:
        return driver(q, cfg), None
    except InnerNoConvergence as exc:
        return exc.partial, exc.pair_index


@pytest.mark.parametrize("kind,param,tol", DRIVER_PROBLEMS, ids=ids(DRIVER_PROBLEMS))
@pytest.mark.parametrize(
    "driver,reference",
    [(power_method_spectrum, ref.power_method_spectrum), (dcama_pm, ref.dcama_pm)],
    ids=["pm", "dcama"],
)
def test_deflation_driver_follows_the_reference(kind, param, tol, driver, reference):
    q, cfg = problem(kind, param, tol)
    got, failed = spectrum(driver, q, cfg)
    want, failed_ref = spectrum(reference, q, cfg)
    assert (got.iterations, failed) == (want.iterations, failed_ref)
    assert (failed is not None) == (kind == "random")
    lam, lam_ref = as_array(got.eigenvalues()), as_array(want.eigenvalues())
    assert lam.shape == lam_ref.shape
    assert np.all(np.abs(lam - lam_ref).max(axis=1) <= scale(lam_ref))
    bound = TRACE_TOL * max(1.0, np.abs(lam_ref).max(initial=0.0))
    assert abs(got.residual - want.residual) <= bound


@pytest.mark.parametrize("seed", range(3))
def test_pm_and_dcam_follow_one_trajectory(seed):
    # F is an isometry that commutes with Q, so the power iteration in dual
    # quaternion arithmetic and on the adjoint are the same sequence
    q = random_hermitian(20, seed)
    v0 = random_unit_vector(20, np.random.default_rng([seed, 1]))
    cfg = PowerIterConfig(max_iter=300, tol=1e-300)
    _, _, trace_pm = power_method_baseline(q, v0, cfg)
    _, _, trace_dcam = dcam_pm(q, v0, cfg)
    assert len(trace_pm.eigenvalues) == len(trace_dcam.eigenvalues) == 300
    gap = np.abs(as_array(trace_pm.eigenvalues) - as_array(trace_dcam.eigenvalues)).max()
    assert gap <= 1e-13


# Iterations per problem of perfbench's formation set at seed 7, in its
# order, 29116 in all; pm and dcama follow one trajectory, so they agree
# problem by problem
FORMATION_SEED = 7
FORMATION_ITERATIONS = [
    207, 491, 1204, 1937, 1473, 4122,
    112, 837, 917, 1387, 2057, 3313,
    115, 493, 1164, 2453, 2645, 4189,
]


def formation_problems(seed):
    """(Q, config) of the formation workload, built as perfbench builds them:
    three graphs per sparsity, interleaved, each from its own seeded stream."""
    for g in range(3):
        for s in SPARSITIES:
            rng = np.random.default_rng([seed, int(round(1000 * s)), g])
            q = build_laplacian(random_graph(10, s, rng))
            yield q, PowerIterConfig(
                max_iter=50000, tol=1e-10, aitken_trigger=1e-3,
                seed=int(rng.integers(0, 2**31)),
            )


@pytest.mark.parametrize("driver", [power_method_spectrum, dcama_pm], ids=["pm", "dcama"])
def test_formation_iterations_stay_pinned(driver):
    # a change to the loop's arithmetic must not move a stopping decision
    outcomes = [spectrum(driver, q, cfg) for q, cfg in formation_problems(FORMATION_SEED)]
    assert [failed for _, failed in outcomes] == [None] * len(FORMATION_ITERATIONS)
    assert [result.iterations for result, _ in outcomes] == FORMATION_ITERATIONS
