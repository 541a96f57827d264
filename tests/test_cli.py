import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqeig.bench import pentagon_fixture, random_hermitian, synth_known_spectrum
from dqeig.cli import _vector_components, load_matrix, main, save_matrix
from dqeig.dual_eig import eddcam_ea
from dqeig.errors import ParseError
from dqeig.matrices import DualQuaternionMatrix, DualQuaternionVector
from dqeig.power import pair_residual
from dqeig.scalars import DualNumber
from tests.test_matrices import rand_dq_matrix, rand_dq_vector


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    save_matrix(str(path), pentagon_fixture())
    return str(path)


class TestMatrixFile:
    def test_round_trip_bit_exact(self, tmp_path):
        m = rand_dq_matrix(4, 4, np.random.default_rng(0))
        path = str(tmp_path / "m.json")
        save_matrix(path, m)
        back = load_matrix(path)
        assert back.max_abs_diff(m) == 0.0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "dqh-1", "n": 2, "entries": [[1,0,0,0,0,0,0,0]]}')
        with pytest.raises(ParseError):
            load_matrix(str(path))

    def test_wrong_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope", "n": 1, "entries": [[1,0,0,0,0,0,0,0]]}')
        with pytest.raises(ParseError):
            load_matrix(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{garbage")
        with pytest.raises(ParseError):
            load_matrix(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_matrix("/nonexistent/never/matrix.json")

    def test_written_rows_are_the_entry_components(self, tmp_path):
        # the round trip cannot see a layout swap that load_matrix mirrors
        m = rand_dq_matrix(3, 4, np.random.default_rng(5))
        path = str(tmp_path / "m.json")
        save_matrix(path, m)
        with open(path) as fh:
            rows = json.load(fh)["entries"]
        assert rows == [components(m.entry(i, j)) for i in range(3) for j in range(4)]

    def test_vector_rows_are_the_entry_components(self):
        v = rand_dq_vector(5, np.random.default_rng(6))
        assert _vector_components(v) == [components(v.entry(i)) for i in range(5)]


def components(q):
    return [q.st.w, q.st.x, q.st.y, q.st.z, q.du.w, q.du.x, q.du.y, q.du.z]


def one_entry_doc(row):
    return {"format": "dqh-1", "n": 1, "entries": [row]}


BAD_DOCUMENTS = {
    "string-component": one_entry_doc(["a", 0, 0, 0, 0, 0, 0, 0]),
    "null-component": one_entry_doc([None, 0, 0, 0, 0, 0, 0, 0]),
    "null-row": one_entry_doc(None),
    "number-row": one_entry_doc(5),
    "nested-component": one_entry_doc([[1], 0, 0, 0, 0, 0, 0, 0]),
    "entries-not-a-list": {"format": "dqh-1", "n": 1, "entries": 5},
    "nan-component": one_entry_doc([float("nan"), 0, 0, 0, 0, 0, 0, 0]),
    "infinite-component": one_entry_doc([float("inf"), 0, 0, 0, 0, 0, 0, 0]),
    "infinite-n": {"format": "dqh-1", "n": float("inf"), "entries": []},
}


@pytest.mark.parametrize("doc", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS.keys())
def test_bad_document_exits_1_with_one_line(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_matrix(str(path))
    assert main(["solve", str(path), "--alg", "eddcam"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Hermitian" not in lines[0]


_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_rows = st.lists(st.floats() | st.integers() | _json, min_size=8, max_size=8) | _json
_documents = _json | st.fixed_dictionaries({
    "format": st.just("dqh-1"),
    "n": st.integers(-1, 2) | _json,
    "entries": st.lists(_rows, max_size=4) | _json,
})


@settings(max_examples=300, deadline=None)
@given(doc=_documents)
def test_load_matrix_gives_a_matrix_or_parse_error(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        m = load_matrix(str(path))
    except ParseError:
        return
    assert isinstance(m, DualQuaternionMatrix)
    assert all(np.isfinite(a).all() for a in (m.a1, m.a2, m.a3, m.a4))


class TestSolve:
    def test_eddcam_on_pentagon(self, pentagon_file, tmp_path):
        out = str(tmp_path / "result.json")
        code = main(["solve", pentagon_file, "--alg", "eddcam", "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["converged"] is True
        assert len(doc["eigenvalues"]) == 5
        assert len(doc["eigenvectors"]) == 5
        assert doc["e_lambda"] <= 1e-10
        sts = [ev[0] for ev in doc["eigenvalues"]]
        assert sts == sorted(sts, reverse=True)
        assert all(len(vec) == 5 and len(vec[0]) == 8 for vec in doc["eigenvectors"])

    def test_pm_on_pentagon_exits_2_with_partial(self, pentagon_file, tmp_path, capsys):
        code = main(["solve", pentagon_file, "--alg", "pm"])
        captured = capsys.readouterr()
        assert code == 2
        doc = json.loads(captured.out)
        assert doc["converged"] is False
        assert len(doc["eigenvalues"]) == 1
        assert abs(doc["eigenvalues"][0][0] - 2.0) <= 1e-4

    def test_dcam_single_pair(self, pentagon_file, capsys):
        code = main(["solve", pentagon_file, "--alg", "dcam", "--seed", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["eigenvalues"]) == 1
        assert abs(doc["eigenvalues"][0][0] - 2.0) <= 1e-4
        assert abs(doc["eigenvalues"][0][1] - 3.0) <= 1e-3

    def test_adcam_single_pair(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        save_matrix(path, random_hermitian(6, 3))
        code = main(["solve", path, "--alg", "adcam", "--max-iter", "50000"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True and len(doc["eigenvalues"]) == 1

    @pytest.mark.parametrize("alg", ["dcam", "adcam"])
    def test_e_lambda_is_the_residual_of_the_returned_pair(self, alg, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        save_matrix(path, random_hermitian(8, 3))
        assert main(["solve", path, "--alg", alg, "--max-iter", "50000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        comp = np.array(doc["eigenvectors"][0])
        v = DualQuaternionVector(
            comp[:, 0] + 1j * comp[:, 1],
            comp[:, 2] + 1j * comp[:, 3],
            comp[:, 4] + 1j * comp[:, 5],
            comp[:, 6] + 1j * comp[:, 7],
        )
        lam = DualNumber(*doc["eigenvalues"][0])
        residual = pair_residual(load_matrix(path), lam, v)
        assert doc["e_lambda"] == pytest.approx(residual, rel=1e-9)

    @pytest.mark.parametrize(
        "flags", [["--tol", "0"], ["--tol", "nan"], ["--max-iter", "0"]],
        ids=["tol-0", "tol-nan", "max-iter-0"],
    )
    def test_bad_config_exits_1_with_one_line(self, flags, pentagon_file, capsys):
        assert main(["solve", pentagon_file, "--alg", "dcam", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_truncated_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "dqh-1", "n": 2, "entries": []}')
        assert main(["solve", str(path), "--alg", "eddcam"]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_hermitian_exits_1(self, tmp_path, capsys):
        path = str(tmp_path / "nh.json")
        save_matrix(path, rand_dq_matrix(3, 3, np.random.default_rng(1)))
        assert main(["solve", path, "--alg", "eddcam"]) == 1
        assert "Hermitian" in capsys.readouterr().err

    def test_hermitian_gate_is_relative_to_the_largest_entry(self, tmp_path, capsys):
        # rounding in V diag(sigma) V* leaves an asymmetry of about 5e-10 at this scale
        sigma = [DualNumber(1e6 * (k + 1), 1e5 * k) for k in range(8)]
        q, _ = synth_known_spectrum(8, sigma, 0)
        assert q.max_abs_diff(q.conj_transpose()) > 1e-10
        got = sorted(((lam.st, lam.du) for lam in eddcam_ea(q).eigenvalues()), reverse=True)
        want = sorted(((s.st, s.du) for s in sigma), reverse=True)
        assert np.abs(np.subtract(got, want)).max() <= 1e-8 * 8e6
        path = str(tmp_path / "big.json")
        save_matrix(path, q)
        assert main(["solve", path, "--alg", "eddcam"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["eigenvalues"]) == 8


class TestBench:
    def test_aitken_csv_schema(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code = main(
            ["bench", "aitken", "--sizes", "4", "5", "--trials", "2",
             "--seed", "3", "--csv", out]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "algorithm", "n", "sparsity", "trials", "mean_e_lambda",
            "mean_iters", "mean_seconds", "seed",
        ]
        assert len(rows) == 1 + 4  # 2 algorithms x 2 sizes
        assert {r[0] for r in rows[1:]} == {"adcam", "dcam"}
        for r in rows[1:]:
            assert r[2] == ""  # no sparsity dimension
            assert r[3] == "2"
            float(r[4]), float(r[5]), float(r[6])

    def test_laplacian_csv_rows(self, tmp_path):
        out = str(tmp_path / "lap.csv")
        code = main(
            ["bench", "laplacian", "--sizes", "6", "--sparsities", "0.3", "0.5",
             "--trials", "1", "--seed", "3", "--csv", out]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 6  # 3 algorithms x 2 sparsities
        assert all("." in r[2] for r in rows[1:])

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["bench", "aitken", "--trials", "0", "--csv", out]) == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["aitken", "--sizes", "0"], ["aitken", "--sizes", "4", "-1"],
         ["laplacian", "--sparsities", "0"], ["laplacian", "--sparsities", "0.5", "1.5"]],
        ids=["size-0", "size-negative", "sparsity-0", "sparsity-above-1"],
    )
    def test_bad_grid_exits_1_with_one_line(self, flags, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["bench", *flags, "--trials", "1", "--csv", out]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert flags[1] in lines[0]

    def test_unwritable_csv(self, capsys):
        code = main(
            ["bench", "aitken", "--sizes", "4", "--trials", "1",
             "--csv", "/nonexistent/dir/x.csv"]
        )
        assert code == 1


class TestPentagonCommand:
    def test_default_run_matches_reference(self, capsys):
        assert main(["pentagon"]) == 0
        out = capsys.readouterr().out
        assert "2.0000" in out and "e_lambda" in out
        assert "reference match: yes" in out

    def test_json_variant(self, capsys):
        assert main(["pentagon", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reference_match"] is True
        assert len(doc["eigenvalues"]) == 5
        assert doc["e_lambda"] <= 1e-10
        want = [
            (2.0, 3.0), (0.618, 3.5257), (0.618, 2.4743),
            (-1.618, 3.8507), (-1.618, 2.1493),
        ]
        for (st, du), (ws, wd) in zip(doc["eigenvalues"], want):
            assert abs(st - ws) <= 5e-4 and abs(du - wd) <= 5e-4

    def test_pm_reports_non_convergence(self, capsys):
        assert main(["pentagon", "--alg", "pm"]) == 2
        assert "iteration cap" in capsys.readouterr().out

    def test_pm_json(self, capsys):
        assert main(["pentagon", "--alg", "pm", "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
