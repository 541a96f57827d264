import numpy as np
import pytest

from dqeig.errors import NotHermitian
from dqeig.hermitian_eig import _clusters, _run_means, _runs, eig_hermitian
from tests import reference_dual_eig as ref


def cluster_eigenvalues(values, tol_group=1e-8):
    """_clusters as a list of (value, multiplicity) pairs."""
    means, sizes = _clusters(values, tol_group)
    return list(zip(means.tolist(), sizes.tolist()))


def rand_hermitian_complex(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def charpoly_roots(h):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion-matrix roots.

    Independent of the eigh code path; usable as an oracle for small n.
    """
    n = h.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(h @ m).real / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


class TestEigHermitian:
    def test_diagonal(self):
        res = eig_hermitian(np.diag([3.0, 1.0]))
        assert np.allclose(res.values, [3.0, 1.0])
        recon = (res.vectors * res.values) @ res.vectors.conj().T
        assert np.allclose(recon, np.diag([3.0, 1.0]), atol=1e-14)

    def test_off_diagonal_pair(self):
        res = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(res.values, [1.0, -1.0])

    def test_complex_2x2(self):
        res = eig_hermitian(np.array([[2.0, 1j], [-1j, 2.0]]))
        assert np.allclose(res.values, [3.0, 1.0])

    def test_values_sorted_descending(self):
        res = eig_hermitian(rand_hermitian_complex(12, np.random.default_rng(1)))
        assert np.all(np.diff(res.values) <= 0)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 20, 50):
            h = rand_hermitian_complex(n, rng)
            res = eig_hermitian(h)
            recon = (res.vectors * res.values) @ res.vectors.conj().T
            scale = max(1.0, np.linalg.norm(h))
            assert np.linalg.norm(h - recon) <= 1e-10 * scale
            assert np.abs(res.vectors.conj().T @ res.vectors - np.eye(n)).max() <= 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = rand_hermitian_complex(8, rng)
            res = eig_hermitian(h)
            assert np.isclose(res.values.sum(), np.trace(h).real, rtol=1e-10, atol=1e-10)

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            for _ in range(25):
                h = rand_hermitian_complex(n, rng)
                ours = eig_hermitian(h).values
                oracle = charpoly_roots(h)
                assert np.abs(ours - oracle).max() <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitian):
            eig_hermitian(np.ones((2, 3)))

    def test_stack_gives_each_matrix_its_own_decomposition(self):
        rng = np.random.default_rng(6)
        stack = np.stack([rand_hermitian_complex(3, rng) for _ in range(5)])
        res = eig_hermitian(stack)
        assert res.values.shape == (5, 3) and res.vectors.shape == (5, 3, 3)
        for h, values, vectors in zip(stack, res.values, res.vectors):
            one = eig_hermitian(h)
            assert values.tobytes() == one.values.tobytes()
            assert vectors.tobytes() == one.vectors.tobytes()

    def test_stack_gate_checks_every_matrix(self):
        # the gate is per matrix: a large entry in one does not excuse another
        stack = np.stack([np.diag([1e6, 1.0]), np.array([[0.0, 1e-3], [0.0, 0.0]])])
        with pytest.raises(NotHermitian):
            eig_hermitian(stack)


class TestClusterEigenvalues:
    def test_exact_repeat(self):
        assert cluster_eigenvalues([3.0, 3.0, 1.0], 1e-8) == [(3.0, 2), (1.0, 1)]

    def test_merge_within_tolerance(self):
        clusters = cluster_eigenvalues([2.0, 2.0 - 1e-12, 0.0], 1e-8)
        assert len(clusters) == 2
        assert clusters[0][1] == 2 and abs(clusters[0][0] - 2.0) <= 1e-12
        assert clusters[1] == (0.0, 1)

    def test_all_singletons(self):
        assert cluster_eigenvalues([5.0, 4.0, 3.0], 1e-8) == [(5.0, 1), (4.0, 1), (3.0, 1)]

    def test_multiplicities_sum_to_n(self):
        rng = np.random.default_rng(5)
        values = np.sort(rng.standard_normal(20))[::-1]
        clusters = cluster_eigenvalues(values, 1e-8)
        assert sum(c for _, c in clusters) == 20

    def test_threshold_scales_with_magnitude(self):
        # at scale 1e6 a 1e-3 gap sits below 1e-8 * max(1, |top|)
        clusters = cluster_eigenvalues([1e6, 1e6 - 1e-3], 1e-8)
        assert len(clusters) == 1
        assert clusters[0][1] == 2
        assert abs(clusters[0][0] - (1e6 - 5e-4)) <= 1e-6

    def test_threshold_scale_ignores_sign(self):
        # the largest |value| sets the scale at either end of the list
        values = [1e6, 1e6 - 1e-3, 0.5, 0.5 - 1e-3]
        clusters = cluster_eigenvalues(values, 1e-8)
        mirrored = cluster_eigenvalues([-x for x in reversed(values)], 1e-8)
        assert [c for _, c in clusters] == [2, 2]
        assert mirrored == [(-x, c) for x, c in reversed(clusters)]

    def test_empty(self):
        assert cluster_eigenvalues([], 1e-8) == []

    def test_matches_the_loop_bit_for_bit(self):
        # repeated values in runs of 1 to 11, across numpy's 8-value
        # summation block, and one run of 200 across its 128-value block
        rng = np.random.default_rng(8)
        for _ in range(60):
            values = np.sort(rng.standard_normal(rng.integers(1, 30)))[::-1]
            repeats = rng.integers(1, 12, len(values))
            values = np.repeat(values * 10.0 ** rng.integers(-3, 4), repeats)
            got = cluster_eigenvalues(values, 1e-8)
            want = ref.cluster_eigenvalues(values, 1e-8)
            assert [(np.float64(v).tobytes(), c) for v, c in got] == [
                (np.float64(v).tobytes(), c) for v, c in want
            ]
        spread = np.sort(1.0 + 1e-10 * rng.standard_normal(200))[::-1]
        assert cluster_eigenvalues(spread) == ref.cluster_eigenvalues(spread)


def test_run_means_are_np_mean_bit_for_bit():
    rng = np.random.default_rng(9)
    sizes = np.array([1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 200, 1, 5])
    x = rng.standard_normal(sizes.sum()) * 10.0 ** rng.integers(-3, 4, sizes.sum())
    starts, got_sizes = _runs(np.isin(np.arange(1, len(x)), np.cumsum(sizes)[:-1]))
    assert got_sizes.tolist() == sizes.tolist()
    want = [x[a : a + k].mean() for a, k in zip(starts, sizes)]
    assert _run_means(x, starts, sizes).tobytes() == np.array(want).tobytes()
