import numpy as np
import pytest

from dqeig.adjoint import adjoint, vec_map_f, vec_map_f_inverse, vec_map_h
from dqeig.bench import random_hermitian
from dqeig.errors import OddLength
from dqeig.matrices import DualComplexMatrix, DualComplexVector, DualQuaternionMatrix
from dqeig.scalars import DualComplex, DualQuaternion, Quaternion
from tests.test_matrices import rand_dq_matrix, rand_dq_vector


def adjoint_parts(m: DualComplexMatrix) -> DualQuaternionMatrix:
    """The inverse of the adjoint map: the parts a1, a2 (a3, a4) read off the
    top blocks of the standard (dual) part of m, whose bottom blocks must be
    -conj(a2) and conj(a1) (-conj(a4) and conj(a3)) exactly."""
    r, c = m.rows // 2, m.cols // 2
    parts = []
    for part in (m.st, m.du):
        a, b = part[:r, :c], part[:r, c:]
        assert np.array_equal(part[r:, :c], -b.conj())
        assert np.array_equal(part[r:, c:], a.conj())
        parts += [a, b]
    return DualQuaternionMatrix(*parts)


def eigen_residuals(q, lam: DualComplex, v):
    """The three equivalent eigenvalue equations for P = adjoint(Q):
    |Q v - v lam|, |P u - lam u| with u = F(v), and |P Hu - conj(lam) Hu|.
    They agree up to rounding whenever the adjoint map is right, whether or
    not (lam, v) is an eigenpair."""
    lam_dq = DualQuaternion(
        Quaternion.from_complex_pair(lam.st, 0j), Quaternion.from_complex_pair(lam.du, 0j)
    )
    p, u = adjoint(q), vec_map_f(v)
    hu = vec_map_h(u)
    return (
        (q @ v - v.scale_right(lam_dq)).norm_2r(),
        (p @ u - u.scale(lam)).norm_2r(),
        (p @ hu - hu.scale(lam.conjugate())).norm_2r(),
    )


def spread(residuals):
    return max(residuals) - min(residuals)


class TestAdjointMap:
    def test_identity_maps_to_identity(self):
        m = adjoint(DualQuaternionMatrix.identity(4))
        assert m.max_abs_diff(DualComplexMatrix.identity(8)) == 0.0

    def test_k_scalar_block(self):
        m = adjoint(
            DualQuaternionMatrix.from_entries([[DualQuaternion(Quaternion(0, 0, 0, 1))]])
        )
        assert np.allclose(m.st, [[0, 1j], [1j, 0]])
        assert not m.du.any()

    @pytest.mark.parametrize("shape", [(3, 3), (3, 5), (4, 2)])
    def test_blocks_are_the_block_form_byte_for_byte(self, shape):
        rng = np.random.default_rng(sum(shape))
        for p in (rand_dq_matrix(*shape, rng), DualQuaternionMatrix.from_real(-np.ones(shape))):
            m = adjoint(p)
            for part, (a, b) in zip((m.st, m.du), ((p.a1, p.a2), (p.a3, p.a4))):
                assert part.tobytes() == np.block([[a, b], [-b.conj(), a.conj()]]).tobytes()

    def test_adjoint_is_read_only(self):
        m = adjoint(rand_dq_matrix(3, 3, np.random.default_rng(8)))
        for part in m._parts:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 1.0

    def test_multiplicative(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = rand_dq_matrix(3, 3, rng)
            q = rand_dq_matrix(3, 3, rng)
            lhs = adjoint(p @ q)
            rhs = adjoint(p) @ adjoint(q)
            assert lhs.max_abs_diff(rhs) <= 1e-12

    def test_additive(self):
        rng = np.random.default_rng(22)
        p = rand_dq_matrix(3, 4, rng)
        q = rand_dq_matrix(3, 4, rng)
        assert adjoint(p + q).max_abs_diff(adjoint(p) + adjoint(q)) == 0.0

    def test_commutes_with_conj_transpose(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = rand_dq_matrix(3, 4, rng)
            assert adjoint(p.conj_transpose()).max_abs_diff(
                adjoint(p).conj_transpose()
            ) <= 1e-15

    def test_hermitian_iff(self):
        rng = np.random.default_rng(24)
        h = random_hermitian(4, rng)
        assert adjoint(h).is_hermitian(1e-12)
        p = rand_dq_matrix(4, 4, rng)
        if not p.is_hermitian(1e-6):
            assert not adjoint(p).is_hermitian(1e-6)

    def test_unitary_iff(self):
        # unit-norm quaternion diagonal is unitary; its adjoint must be too
        rng = np.random.default_rng(25)
        c = rng.standard_normal(4)
        c /= np.linalg.norm(c)
        u = DualQuaternionMatrix.from_entries(
            [
                [DualQuaternion(Quaternion(*c)), DualQuaternion()],
                [DualQuaternion(), DualQuaternion.one()],
            ]
        )
        a = adjoint(u)
        prod = a.conj_transpose() @ a
        assert prod.max_abs_diff(DualComplexMatrix.identity(4)) <= 1e-14

    def test_vector_adjoint_is_f_and_h_assembly(self):
        # J(v) = [F(v)  -H(F(v))] as a 2n x 2 block matrix
        rng = np.random.default_rng(26)
        v = rand_dq_vector(3, rng)
        jv = adjoint(v.as_column())
        u1 = vec_map_f(v)
        u2 = vec_map_h(u1)
        assert np.allclose(jv.st[:, 0], u1.st) and np.allclose(jv.du[:, 0], u1.du)
        assert np.allclose(jv.st[:, 1], -u2.st) and np.allclose(jv.du[:, 1], -u2.du)


class TestAdjointInverse:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(27)
        q = rand_dq_matrix(3, 5, rng)
        back = adjoint_parts(adjoint(q))
        assert back.max_abs_diff(q) == 0.0

    def test_identity(self):
        back = adjoint_parts(DualComplexMatrix.identity(6))
        assert back.max_abs_diff(DualQuaternionMatrix.identity(3)) == 0.0


class TestVectorMaps:
    def test_f_of_scalar_one(self):
        one = DualQuaternionMatrix.identity(1).column(0)
        u = vec_map_f(one)
        assert np.allclose(u.st, [1.0, 0.0]) and not u.du.any()

    def test_f_inverse_round_trip(self):
        rng = np.random.default_rng(30)
        v = rand_dq_vector(4, rng)
        w = vec_map_f_inverse(vec_map_f(v))
        assert (w - v).norm_2r() == 0.0

    def test_h_blockwise(self):
        u = DualComplexVector(np.array([1 + 2j, 3 - 1j]), np.array([0.5j, -2.0 + 0j]))
        h = vec_map_h(u)
        assert np.allclose(h.st, [3 + 1j, -(1 - 2j)])
        assert np.allclose(h.du, [-2.0, 0.5j])

    def test_h_squared_is_negation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            u = DualComplexVector(
                rng.standard_normal(6) + 1j * rng.standard_normal(6),
                rng.standard_normal(6) + 1j * rng.standard_normal(6),
            )
            hh = vec_map_h(vec_map_h(u))
            assert (hh + u).norm_2r() <= 1e-15

    def test_h_of_f_is_f_of_right_j_multiple(self):
        rng = np.random.default_rng(32)
        jq = DualQuaternion(Quaternion(0, 0, 1, 0))
        for _ in range(50):
            v = rand_dq_vector(3, rng)
            lhs = vec_map_h(vec_map_f(v))
            rhs = vec_map_f(v.scale_right(jq))
            assert (lhs - rhs).norm_2r() <= 1e-15

    def test_f_and_h_images_are_orthogonal(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            u1 = vec_map_f(rand_dq_vector(4, rng))
            u2 = vec_map_h(u1)
            d = u1.dot(u2)
            assert abs(d.st) <= 1e-12 and abs(d.du) <= 1e-12

    def test_odd_length_rejected(self):
        u = DualComplexVector(np.ones(3, dtype=complex))
        with pytest.raises(OddLength):
            vec_map_h(u)
        with pytest.raises(OddLength):
            vec_map_f_inverse(u)

    def test_f_preserves_2_norm(self):
        rng = np.random.default_rng(34)
        v = rand_dq_vector(5, rng)
        a, b = v.norm_2(), vec_map_f(v).norm_2()
        assert abs(a.st - b.st) <= 1e-13 and abs(a.du - b.du) <= 1e-13


class TestEigenEquivalence:
    def test_diagonal_eigenpair_zero_residuals(self):
        q = DualQuaternionMatrix.from_entries(
            [
                [DualQuaternion(Quaternion(2), Quaternion(1)), DualQuaternion()],
                [DualQuaternion(), DualQuaternion.one()],
            ]
        )
        assert max(eigen_residuals(q, DualComplex(2 + 0j, 1 + 0j), _e1(2))) <= 1e-15

    def test_solver_output_satisfies_all_three(self):
        from dqeig.dual_eig import eddcam_ea

        q = random_hermitian(5, np.random.default_rng(35))
        res = eddcam_ea(q)
        lam, vecs = res.pairs[0]
        r = eigen_residuals(q, DualComplex(lam.st, lam.du), vecs[0])
        assert r[0] <= 1e-10
        assert spread(r) <= 1e-12

    def test_perturbed_eigenvalue_grows_linearly(self):
        q = random_hermitian(4, np.random.default_rng(36))
        from dqeig.dual_eig import eddcam_ea

        lam, vecs = eddcam_ea(q).pairs[0]
        v = vecs[0]
        r = eigen_residuals(q, DualComplex(lam.st + 0.1, lam.du), v)
        assert abs(r[0] - 0.1 * v.norm_2r()) <= 1e-3
        assert spread(r) <= 1e-12

    def test_residuals_agree_even_off_eigenpair(self):
        rng = np.random.default_rng(37)
        q = random_hermitian(4, rng)
        v = rand_dq_vector(4, rng)
        r = eigen_residuals(q, DualComplex(0.7 + 0.2j, -1.1 + 0.5j), v)
        assert spread(r) <= 1e-12 * max(1.0, r[0])


def _e1(n):
    from dqeig.matrices import DualQuaternionVector

    return DualQuaternionVector.basis(n, 0)
