import numpy as np
import pytest

from dqeig.bench import (
    BenchRecord,
    VisibilityGraph,
    build_laplacian,
    pentagon_fixture,
    pentagon_poses,
    random_graph,
    random_hermitian,
    run_benchmark,
    synth_known_spectrum,
)
from dqeig.dual_eig import eddcam_ea
from dqeig.errors import DegenerateRandomDraw, SparsityTooHigh
from dqeig.hermitian_eig import eig_hermitian
from dqeig.matrices import DualQuaternionMatrix
from dqeig.scalars import DualNumber, DualQuaternion, Quaternion
from tests import reference_bench as ref
from tests.dq import entry, identity, is_hermitian, max_abs_diff, zeros


def identity_pose():
    return DualQuaternion.one()


def matrix_bytes(m):
    return b"".join(a.tobytes() for a in m._parts)


class TestBuildLaplacian:
    def test_empty_graph_is_zero_matrix(self):
        g = VisibilityGraph(3, (), (identity_pose(),) * 3)
        lap = build_laplacian(g)
        assert max_abs_diff(lap._parts, zeros(3, 3)._parts) == 0.0

    def test_triangle_with_identity_poses_is_classical(self):
        g = VisibilityGraph(3, ((0, 1), (0, 2), (1, 2)), (identity_pose(),) * 3)
        lap = build_laplacian(g)
        classical = DualQuaternionMatrix(
            np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]), np.zeros((3, 3))
        )
        assert max_abs_diff(lap._parts, classical._parts) == 0.0
        # spectrum {3, 3, 0} by the classical Laplacian fact
        values = eig_hermitian(lap.a1).values
        assert np.allclose(values, [3.0, 3.0, 0.0], atol=1e-12)

    def test_hermitian_and_degree_diagonal(self):
        g = random_graph(8, 0.3, 123)
        lap = build_laplacian(g)
        assert is_hermitian(lap, 1e-14)
        degree = {i: 0 for i in range(8)}
        for i, j in g.edges:
            degree[i] += 1
            degree[j] += 1
        for i in range(8):
            d = entry(lap, i, i)
            assert d.st.w == degree[i]
            assert d.du.magnitude() <= 1e-15

    def test_standard_part_positive_semidefinite_for_identity_poses(self):
        rng = np.random.default_rng(5)
        g0 = random_graph(6, 0.4, rng)
        g = VisibilityGraph(6, g0.edges, (identity_pose(),) * 6)
        values = eig_hermitian(build_laplacian(g).a1).values
        assert values.min() >= -1e-12

    @pytest.mark.parametrize(
        "n,s", [(3, 0.5), (10, 0.3), (50, 0.1), (200, 0.005), (200, 0.1)]
    )
    def test_matches_the_object_build_byte_for_byte(self, n, s):
        g = random_graph(n, s, [11, n, int(1000 * s)])
        assert matrix_bytes(build_laplacian(g)) == matrix_bytes(ref.build_laplacian(g))

    def test_zero_eigenvalue_is_exactly_dual_zero(self):
        # the pose vector itself spans the kernel with eigenvalue 0 + 0 eps
        g = random_graph(6, 0.5, 777)
        lap = build_laplacian(g)
        res = eddcam_ea(lap)
        tail = res.eigenvalues()[-1]
        assert abs(tail.st) <= 1e-12 and abs(tail.du) <= 1e-11


class TestPentagonFixture:
    def test_hermitian(self):
        assert is_hermitian(pentagon_fixture(), 1e-14)

    def test_poses_projected_to_unit(self):
        for pose in pentagon_poses():
            assert pose.is_unit(1e-14)

    def test_diagonal_is_index_times_eps(self):
        fix = pentagon_fixture()
        for i in range(5):
            d = entry(fix, i, i)
            assert d.st.is_zero()
            assert d.du == Quaternion(float(i + 1))

    def test_standard_part_spectrum(self):
        values = eig_hermitian(adjoint_standard(pentagon_fixture())).values
        golden = (np.sqrt(5) - 1) / 2, -(np.sqrt(5) + 1) / 2
        want = np.sort([2.0, golden[0], golden[0], golden[1], golden[1]] * 2)[::-1]
        assert np.allclose(values, want, atol=1e-12)

    def test_ring_edges_only(self):
        fix = pentagon_fixture()
        for i in range(5):
            for j in range(5):
                gap = abs(i - j)
                expected_zero = i != j and gap not in (1, 4)
                e = entry(fix, i, j)
                size = e.st.magnitude() + e.du.magnitude()
                if expected_zero:
                    assert size == 0.0
                elif i != j:
                    assert abs(e.st.magnitude() - 1.0) <= 1e-12


def adjoint_standard(m):
    from dqeig.adjoint import adjoint

    return adjoint(m)[0]


class TestRandomGraph:
    def test_edge_count(self):
        g = random_graph(10, 0.2, 1)
        assert len(g.edges) == 10
        assert abs(g.sparsity - 0.2) <= 1e-12

    def test_sparsity_too_high(self):
        with pytest.raises(SparsityTooHigh):
            random_graph(10, 1.0, 1)

    def test_deterministic(self):
        a = random_graph(9, 0.3, 42)
        b = random_graph(9, 0.3, 42)
        assert a.edges == b.edges
        for p, q in zip(a.poses, b.poses):
            assert p == q

    def test_poses_unit(self):
        g = random_graph(7, 0.4, 3)
        for pose in g.poses:
            assert pose.is_unit(1e-12)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            random_graph(5, 0.0, 1)

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            VisibilityGraph(3, ((0, 0),), (identity_pose(),) * 3)
        with pytest.raises(ValueError):
            VisibilityGraph(3, ((0, 5),), (identity_pose(),) * 3)
        not_unit = DualQuaternion(Quaternion(2.0), Quaternion())
        with pytest.raises(ValueError):
            VisibilityGraph(1, (), (not_unit,))


class TestRandomHermitian:
    def test_exactly_hermitian(self):
        q = random_hermitian(6, 9)
        assert max_abs_diff(q._parts, q.conj_transpose()._parts) == 0.0

    def test_deterministic(self):
        assert max_abs_diff(random_hermitian(5, 7)._parts, random_hermitian(5, 7)._parts) == 0.0

    def test_n1_standard_part_is_real_scalar(self):
        q = random_hermitian(1, 11)
        e = entry(q, 0, 0)
        assert max(abs(e.st.x), abs(e.st.y), abs(e.st.z)) == 0.0
        assert max(abs(e.du.x), abs(e.du.y), abs(e.du.z)) == 0.0


class TestSynthKnownSpectrum:
    def test_round_trip_small(self):
        sigma = (DualNumber(3, 1), DualNumber(1, 0))
        q, planted = synth_known_spectrum(2, sigma, 13)
        got = eddcam_ea(q).eigenvalues()
        assert abs(got[0].st - 3) <= 1e-10 and abs(got[0].du - 1) <= 1e-10
        assert abs(got[1].st - 1) <= 1e-10 and abs(got[1].du) <= 1e-10

    def test_equal_sigma_gives_scaled_identity(self):
        sigma = (DualNumber(2.0, -1.0),) * 3
        q, _ = synth_known_spectrum(3, sigma, 17)
        target = identity(3) * DualNumber(2.0, -1.0)
        assert max_abs_diff(q._parts, target._parts) <= 1e-13

    def test_n5_recovery(self):
        rng = np.random.default_rng(19)
        sts = np.arange(5, 0, -1) + rng.uniform(0, 0.3, 5)
        sigma = tuple(
            DualNumber(float(s), float(d)) for s, d in zip(sts, rng.uniform(-1, 1, 5))
        )
        q, _ = synth_known_spectrum(5, sigma, 23)
        got = eddcam_ea(q).eigenvalues()
        want = sorted(sigma, key=lambda t: (t.st, t.du), reverse=True)
        for g, s in zip(got, want):
            assert abs(g.st - s.st) <= 1e-8 and abs(g.du - s.du) <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 12, 60, 150])
    def test_matches_the_left_looking_reference_byte_for_byte(self, n):
        # 150 columns exceed numpy's 128-element pairwise-sum block
        rng = np.random.default_rng([29, n])
        sigma = [DualNumber(float(a), float(b)) for a, b in rng.standard_normal((n, 2))]
        got, _ = synth_known_spectrum(n, sigma, [31, n])
        want, _ = ref.synth_known_spectrum(n, sigma, [31, n])
        assert matrix_bytes(got) == matrix_bytes(want)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            synth_known_spectrum(3, (DualNumber(1, 0),), 1)

    def test_degenerate_draw_raises(self, monkeypatch):
        class ZeroRng:
            def standard_normal(self, shape):
                return np.zeros(shape)

        monkeypatch.setattr(
            "dqeig.bench.np.random.default_rng", lambda seed=None: ZeroRng()
        )
        with pytest.raises(DegenerateRandomDraw):
            synth_known_spectrum(2, (DualNumber(1, 0), DualNumber(0, 0)), 1)

    def test_dependent_later_column_raises_alike(self, monkeypatch):
        # column 2 of every draw repeats column 0, so the third basis vector
        # has nothing left after its projections
        class RepeatingRng:
            def __init__(self, seed):
                self.rng = np.random.RandomState(seed)

            def standard_normal(self, shape):
                draw = self.rng.standard_normal(shape)
                draw[:, 2] = draw[:, 0]
                return draw

        monkeypatch.setattr("dqeig.bench.np.random.default_rng", RepeatingRng)
        sigma = tuple(DualNumber(float(k)) for k in range(4))
        for synth in (synth_known_spectrum, ref.synth_known_spectrum):
            with pytest.raises(DegenerateRandomDraw):
                synth(4, sigma, 3)


class TestRunBenchmark:
    def test_aitken_record_shape(self):
        records = run_benchmark("aitken", sizes=(4, 6), trials=2, seed=5)
        assert len(records) == 8  # 2 algorithms x 2 sizes x 2 trials
        assert {r.algorithm for r in records} == {"dcam", "adcam"}
        assert all(r.sparsity is None for r in records)

    def test_laplacian_record_shape(self):
        records = run_benchmark(
            "laplacian", sizes=(6,), sparsities=(0.3, 0.5), trials=2, seed=5
        )
        assert len(records) == 12  # 3 algorithms x 2 sparsities x 2 trials
        assert {r.algorithm for r in records} == {"pm", "dcama", "eddcam"}

    def test_deterministic_apart_from_wall_time(self):
        a = run_benchmark("aitken", sizes=(5,), trials=3, seed=8)
        b = run_benchmark("aitken", sizes=(5,), trials=3, seed=8)
        for x, y in zip(a, b):
            assert (x.algorithm, x.n, x.trial) == (y.algorithm, y.n, y.trial)
            assert x.e_lambda == y.e_lambda
            assert x.iterations == y.iterations
            assert x.converged == y.converged

    def test_rejects_bad_kind_and_trials(self):
        with pytest.raises(ValueError):
            run_benchmark("nope")
        with pytest.raises(ValueError):
            run_benchmark("aitken", trials=0)


def test_bench_record_rejects_negative_residual():
    with pytest.raises(ValueError):
        BenchRecord("pm", 3, None, 0, 0, -1.0, 0.0, 0.0)
