"""solve() against the drivers it dispatches to, and the rule that only it
turns InnerNoConvergence into a result."""

import ast
import pathlib

import numpy as np
import pytest

import dqeig
from dqeig import power
from dqeig.bench import build_laplacian, pentagon_fixture, random_graph, random_hermitian
from dqeig.dual_eig import EigenResult, eddcam_ea
from dqeig.errors import DimensionMismatch, InnerNoConvergence, NotHermitian
from dqeig.matrices import DualQuaternionMatrix, DualQuaternionVector, random_unit_vector
from dqeig.power import (
    PowerIterConfig,
    adcam_pm,
    dcam_pm,
    dcama_pm,
    pair_residual,
    power_method_spectrum,
)
from dqeig.solve import ALGORITHMS, solve

CFG = PowerIterConfig(max_iter=50000, tol=1e-10, aitken_trigger=1e-3, seed=5)
SRC = pathlib.Path(dqeig.__file__).parent


def flat(pairs):
    """Every (st, du, vector bytes) of a pairs tuple, in order."""
    return [
        (lam.st, lam.du, b"".join(a.tobytes() for a in v._parts))
        for lam, vecs in pairs
        for v in vecs
    ]


def formation():
    return build_laplacian(random_graph(8, 0.4, [7, 400, 0]))


def test_eddcam_is_the_driver():
    q = formation()
    got, want = solve(q, "eddcam"), eddcam_ea(q)
    assert flat(got.pairs) == flat(want.pairs)
    assert (got.residual, got.iterations, got.converged) == (want.residual, 0, True)


@pytest.mark.parametrize("alg,driver", [("dcama", dcama_pm), ("pm", power_method_spectrum)])
def test_deflation_is_the_driver(alg, driver):
    q = formation()
    got, want = solve(q, alg, CFG), driver(q, CFG)
    assert flat(got.pairs) == flat(want.pairs)
    assert (got.residual, got.iterations) == (want.residual, want.iterations)
    assert got.converged and got.pairs


@pytest.mark.parametrize("alg,driver", [("dcam", dcam_pm), ("adcam", adcam_pm)])
def test_single_pair_is_the_driver_from_the_seeded_start(alg, driver):
    q = random_hermitian(6, 3)
    v0 = random_unit_vector(6, np.random.default_rng(CFG.seed))
    lam, v, trace = driver(q, v0, CFG)
    got = solve(q, alg, CFG)
    assert flat(got.pairs) == flat(((lam, (v,)),))
    assert got.residual == pair_residual(q, lam, v)
    assert (got.iterations, got.converged) == (trace.iterations, True)


@pytest.mark.parametrize("alg,driver", [("dcam", dcam_pm), ("adcam", adcam_pm)])
def test_single_pair_takes_the_given_start(alg, driver):
    q = random_hermitian(6, 3)
    v0 = random_unit_vector(6, np.random.default_rng(99))
    lam, v, trace = driver(q, v0, CFG)
    got = solve(q, alg, CFG, v0)
    assert flat(got.pairs) == flat(((lam, (v,)),))
    assert got.iterations == trace.iterations


def test_single_pair_reports_the_iteration_cap():
    q = random_hermitian(6, 3)
    cfg = PowerIterConfig(max_iter=3, tol=1e-12, aitken_trigger=1e-3)
    got = solve(q, "dcam", cfg)
    assert (got.iterations, got.converged, len(got.pairs)) == (3, False, 1)


@pytest.mark.parametrize("alg,driver", [("dcama", dcama_pm), ("pm", power_method_spectrum)])
def test_pentagon_sweep_returns_the_partial_pairs(alg, driver):
    # plain power iteration stalls on the pentagon's repeated standard parts
    q = pentagon_fixture()
    cfg = PowerIterConfig(max_iter=5000, tol=1e-6, aitken_trigger=1e-3)
    with pytest.raises(InnerNoConvergence) as info:
        driver(q, cfg)
    want = info.value.partial
    got = solve(q, alg, cfg)
    assert got.converged is False and want.converged is True
    assert flat(got.pairs) == flat(want.pairs)
    assert (got.residual, got.iterations) == (want.residual, want.iterations)


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_non_hermitian_raises_for_every_algorithm(alg):
    q = DualQuaternionMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(NotHermitian):
        solve(q, alg, CFG)


def test_unknown_algorithm_raises_value_error():
    with pytest.raises(ValueError, match="unknown algorithm"):
        solve(formation(), "qr")


def _names(node):
    """Every plain or dotted name in an except clause's type expression."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_solve_catches_inner_no_convergence():
    catching = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "InnerNoConvergence" in _names(node.type):
                    catching.add(path.name)
    assert catching == {"solve.py"}


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_non_square_names_the_shape_of_q_for_every_algorithm(alg):
    q = DualQuaternionMatrix(np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(NotHermitian, match=r"^matrix is not square: \(2, 3\)$"):
        solve(q, alg, CFG)
    if alg == "eddcam":
        with pytest.raises(NotHermitian, match=r"^matrix is not square: \(2, 3\)$"):
            eddcam_ea(q)


@pytest.mark.parametrize("part", range(4))
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_a_nan_entry_fails_the_hermitian_gate_for_every_algorithm(alg, part):
    # every part is compared on its own, so no part's NaN hides behind another's
    parts = [a.copy() for a in random_hermitian(4, 1)._parts]
    parts[part][0, 1] = np.nan
    with pytest.raises(NotHermitian):
        solve(DualQuaternionMatrix(*parts), alg, CFG)


@pytest.mark.parametrize("alg", ["dcam", "adcam"])
def test_a_start_vector_of_another_length_names_both_lengths(alg):
    v0 = random_unit_vector(3, np.random.default_rng(0))
    message = r"^start vector of length 3 for a matrix of 4 rows$"
    with pytest.raises(DimensionMismatch, match=message):
        solve(random_hermitian(4, 1), alg, CFG, v0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("alg", ["dcam", "adcam"])
def test_a_non_finite_start_vector_raises_before_the_loop(alg, bad, monkeypatch):
    def never(*args):
        raise AssertionError("the power loop ran")

    monkeypatch.setattr(power, "dcam_pm", never)
    monkeypatch.setattr(power, "adcam_pm", never)
    parts = random_unit_vector(4, np.random.default_rng(0))._parts.copy()
    parts[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        solve(random_hermitian(4, 1), alg, CFG, DualQuaternionVector(*parts))


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_the_empty_matrix_gives_the_empty_converged_result_for_every_algorithm(alg):
    # dcam and adcam return it before drawing a start vector, which cannot be
    # normalised at length 0
    assert solve(DualQuaternionMatrix.from_entries([]), alg, CFG) == EigenResult((), 0.0)
