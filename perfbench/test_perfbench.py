"""The benchmark's own checks, on smoke-sized problem sets.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def smoke(workload, trace, out_dir):
    run = harness.Run(workload, SEED, str(ROOT), spec=workloads.SMOKE, out_dir=str(out_dir))
    result, detail = run.execute(0.01, trace)
    return run, result, detail


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, tmp_path):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        _, result, _ = smoke(workload, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        for v in result["metrics"].values():
            assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_oracle_rejects_a_perturbed_eigenvalue(workload, tmp_path):
    m = workloads.Modules()
    problems = workloads.build(m, workload, SEED, workloads.SMOKE[workload], str(tmp_path))
    workloads.attach_references(problems)
    p = problems[-1]
    out, vector = workloads.solve(m, p, workloads.SOLVERS[workload][-1], str(tmp_path))
    assert out.error is None
    assert workloads.check(p, out, vector) is None
    for part in (0, 1) if p.kind == "synth" else (0,):
        bad = workloads.Outcome(**{**vars(out), "eigenvalues": [list(e) for e in out.eigenvalues]})
        bad.eigenvalues[0][part] += 1e-3
        assert workloads.check(p, bad, vector) is not None


@pytest.mark.parametrize("workload", ["formation", "dominant"])
def test_same_seed_gives_identical_counts_and_eigenvalues(workload, tmp_path):
    runs = [smoke(workload, 1, tmp_path) for _ in range(2)]
    keys = [k for k in runs[0][1]["metrics"]
            if k.startswith("power.iters.") or k == "dual_eig.groups"]
    assert [runs[0][1]["metrics"][k] for k in keys] == [runs[1][1]["metrics"][k] for k in keys]
    eigenvalues = [[o.eigenvalues for o in run.outcomes] for run, _, _ in runs]
    assert eigenvalues[0] == eigenvalues[1]


@pytest.mark.parametrize("workload", ["formation", "dominant"])
def test_traced_iterations_equal_untraced(workload, tmp_path):
    timed, _, detail0 = smoke(workload, 0, tmp_path)
    _, traced, detail1 = smoke(workload, 1, tmp_path)
    assert detail0["passes"] == 1 and detail1["trace_mismatches"] == []
    for s in workloads.ITERATIVE:
        untraced = sum(o.iterations for o in timed.outcomes if o.solver == s)
        assert traced["metrics"][f"power.iters.{s}"]["value"] == untraced


def test_model_iterations_follow_the_spectral_gaps():
    steps = lambda mu, below, tol: math.log(mu / tol) / math.log(mu / below)
    # dominant only: the adjoint doubles every eigenvalue, and the sign does not count
    ref = np.array([2.0, 2.0, -1.0, -1.0, 0.5, 0.5])
    assert workloads.model_iterations(ref, 1e-6, 50000, False) == pytest.approx(
        steps(2.0, 1.0, 1e-6))
    # full spectrum: a repeated eigenvalue converges at the next distinct one,
    # the last nonzero one in one step, and the zero drains
    ref = np.array([3.0, 3.0, 1.0, 0.0])
    assert workloads.model_iterations(ref, 1e-10, 50000, True) == pytest.approx(
        2 * steps(3.0, 1.0, 1e-10) + 1)
    # a near tie is capped at max_iter
    assert workloads.model_iterations(np.array([1.0, 1.0 - 1e-7]), 1e-6, 500, False) == 500


def test_power_floor_depends_on_the_input_not_the_solver(tmp_path):
    run = harness.Run("dominant", SEED, str(ROOT), spec=workloads.SMOKE, out_dir=str(tmp_path))
    p = run.setup()[0]
    workloads.attach_references([p])
    for solver in ("dcam", "adcam"):
        out = run._solve_checked(p, solver)
        assert out.error is None and out.iterations > 0
        assert out.floor_s / out.op_s == pytest.approx(p.model_iters)


def test_missing_trace_target_is_reported_absent():
    tracer = spans.Tracer()
    owner = types.SimpleNamespace(__name__="gone_module", kept=lambda: 1)
    tracer.install(owner, "removed_function", "x.removed")
    tracer.install(owner, "kept", "x.kept")
    root = tracer.open("solve.x", 0)
    assert owner.kept() == 1
    tracer.close(root)
    tracer.uninstall()
    assert tracer.absent == ["gone_module.removed_function"]
    assert [s[spans.NAME] for s in tracer.spans] == ["solve.x", "x.kept"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "formation", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
