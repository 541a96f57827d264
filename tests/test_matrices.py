import math

import numpy as np
import pytest

from dqeig.errors import DimensionMismatch, ZeroVector
from dqeig.matrices import (
    DualComplexVector,
    DualQuaternionMatrix,
    DualQuaternionVector,
    random_unit_vector,
)
from dqeig.scalars import DualNumber, DualQuaternion, Quaternion


def rand_dq_matrix(rows, cols, rng):
    c = rng.uniform(-1, 1, (8, rows, cols))
    return DualQuaternionMatrix(
        c[0] + 1j * c[1], c[2] + 1j * c[3], c[4] + 1j * c[5], c[6] + 1j * c[7]
    )


def rand_dq_vector(n, rng):
    c = rng.uniform(-1, 1, (8, n))
    return DualQuaternionVector(
        c[0] + 1j * c[1], c[2] + 1j * c[3], c[4] + 1j * c[5], c[6] + 1j * c[7]
    )


def rand_hermitian(n, rng):
    from dqeig.bench import random_hermitian

    return random_hermitian(n, rng)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rand_dq_matrix(4, 3, rng)
        eye = DualQuaternionMatrix.identity(4)
        assert (eye @ a).max_abs_diff(a) == 0.0

    def test_eps_identity_squares_to_zero(self):
        n = 3
        z = np.zeros((n, n))
        eps_eye = DualQuaternionMatrix(z, z, np.eye(n), z)
        prod = eps_eye @ eps_eye
        assert prod.max_abs_diff(DualQuaternionMatrix.zeros(n, n)) == 0.0

    def test_1x1_reduces_to_scalar_product(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rand_dq_matrix(1, 1, rng)
            b = rand_dq_matrix(1, 1, rng)
            prod = (a @ b).entry(0, 0)
            direct = a.entry(0, 0) * b.entry(0, 0)
            diff = prod - direct
            assert diff.st.magnitude() + diff.du.magnitude() <= 1e-14

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rand_dq_matrix(3, 4, rng)
            b = rand_dq_matrix(4, 2, rng)
            c = rand_dq_matrix(2, 5, rng)
            assert ((a @ b) @ c).max_abs_diff(a @ (b @ c)) <= 1e-11

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionMismatch):
            rand_dq_matrix(2, 3, rng) @ rand_dq_matrix(2, 3, rng)
        with pytest.raises(DimensionMismatch):
            rand_dq_matrix(2, 3, rng) @ rand_dq_vector(2, rng)


class TestConjTranspose:
    def test_involution_exact(self):
        rng = np.random.default_rng(4)
        a = rand_dq_matrix(3, 5, rng)
        assert a.conj_transpose().conj_transpose().max_abs_diff(a) == 0.0

    def test_hermitian_fixed_point(self):
        h = rand_hermitian(4, np.random.default_rng(5))
        assert h.conj_transpose().max_abs_diff(h) == 0.0
        assert h.is_hermitian()

    def test_1x1_entry(self):
        # [i + j*eps]^* = [-i - j*eps]
        m = DualQuaternionMatrix.from_entries(
            [[DualQuaternion(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0))]]
        )
        star = m.conj_transpose().entry(0, 0)
        assert star == DualQuaternion(Quaternion(0, -1, 0, 0), Quaternion(0, 0, -1, 0))

    def test_product_antihomomorphism(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rand_dq_matrix(3, 3, rng)
            b = rand_dq_matrix(3, 3, rng)
            lhs = (a @ b).conj_transpose()
            rhs = b.conj_transpose() @ a.conj_transpose()
            assert lhs.max_abs_diff(rhs) <= 1e-12


class TestVectorNorms:
    def test_basis_vector(self):
        e1 = DualQuaternionVector.basis(3, 0)
        assert e1.norm_2() == DualNumber(1.0, 0.0)
        assert e1.norm_2r() == 1.0

    def test_pure_dual_degenerate_branch(self):
        z = np.zeros(2)
        y = DualQuaternionVector(z, z, np.array([3.0, 0]), np.array([0, 4.0j]))
        assert y.norm_2() == DualNumber(0.0, 5.0)
        assert y.norm_2r() == 5.0

    def test_orthogonal_cross_term_vanishes(self):
        # x = [1; eps*i]: the dual correction sc(x_st^* x_du) is zero
        x = DualQuaternionVector(
            np.array([1.0, 0.0]), np.zeros(2), np.array([0.0, 1.0j]), np.zeros(2)
        )
        assert x.norm_2() == DualNumber(1.0, 0.0)

    def test_norm_2r_scalar_entries(self):
        # entries 1 and eps
        x = DualQuaternionVector(
            np.array([1.0, 0.0]), np.zeros(2), np.array([0.0, 1.0]), np.zeros(2)
        )
        assert math.isclose(x.norm_2r(), math.sqrt(2.0), rel_tol=1e-15)

    def test_norm_2r_matches_componentwise_recomputation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rand_dq_vector(4, rng)
            by_parts = math.sqrt(
                sum(x.entry(i).st.norm_sq() + x.entry(i).du.norm_sq() for i in range(4))
            )
            assert math.isclose(x.norm_2r(), by_parts, rel_tol=1e-13)


class TestMatrixNorms:
    def test_identity_plus_eps_identity(self):
        eye = np.eye(2)
        z = np.zeros((2, 2))
        a = DualQuaternionMatrix(eye, z, eye, z)
        f = a.norm_f()
        assert math.isclose(f.st, math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(f.du, math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(a.norm_fr(), 2.0, rel_tol=1e-15)

    def test_pure_dual_degenerate_branch(self):
        rng = np.random.default_rng(8)
        b = rng.uniform(-1, 1, (3, 3))
        z = np.zeros((3, 3))
        a = DualQuaternionMatrix(z, z, b, z)
        f = a.norm_f()
        assert f.st == 0.0
        assert math.isclose(f.du, np.linalg.norm(b), rel_tol=1e-14)

    def test_zero_matrix(self):
        assert DualQuaternionMatrix.zeros(3, 3).norm_f() == DualNumber(0.0, 0.0)
        assert DualQuaternionMatrix.zeros(3, 3).norm_fr() == 0.0


class TestUnitProjection:
    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = rand_dq_vector(4, rng).unit()
            assert (u.unit() - u).norm_2r() <= 1e-12
            nrm = u.norm_2()
            assert abs(nrm.st - 1.0) <= 1e-12 and abs(nrm.du) <= 1e-12

    def test_scaled_basis(self):
        e1 = DualQuaternionVector.basis(3, 0)
        assert ((2.0 * e1).unit() - e1).norm_2r() == 0.0

    def test_degenerate_branch_zeroes_dual_part(self):
        z = np.zeros(2)
        y = DualQuaternionVector(z, z, np.array([3.0, 4.0]), z)
        u = y.unit()
        assert np.allclose(u.v1, [0.6, 0.8])
        assert not u.v3.any() and not u.v4.any()

    def test_degenerate_branch_is_one_rule_for_both_algebras(self):
        # both scale the dual part by the reciprocal of its norm
        du = np.array([1.0, 7.0])
        want = du * (1.0 / math.sqrt(50.0))
        z = np.zeros(2)
        assert np.array_equal(DualComplexVector(z, du).unit().st, want)
        assert np.array_equal(DualQuaternionVector(z, z, du, z).unit().v1, want)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            DualQuaternionVector.zeros(3).unit()
        with pytest.raises(ZeroVector):
            DualComplexVector(np.zeros(2)).unit()

    def test_random_unit_vector_is_unit_and_deterministic(self):
        a = random_unit_vector(5, np.random.default_rng(11))
        b = random_unit_vector(5, np.random.default_rng(11))
        assert (a - b).norm_2r() == 0.0
        nrm = a.norm_2()
        assert abs(nrm.st - 1.0) <= 1e-12 and abs(nrm.du) <= 1e-12


def test_hermitian_quadratic_form_is_dual_number():
    rng = np.random.default_rng(12)
    for _ in range(50):
        h = rand_hermitian(5, rng)
        x = rand_dq_vector(5, rng)
        val = x.dot(h @ x)
        vec_parts = max(
            abs(val.st.x), abs(val.st.y), abs(val.st.z),
            abs(val.du.x), abs(val.du.y), abs(val.du.z),
        )
        assert vec_parts <= 1e-12 * max(1.0, abs(val.st.w))


def test_outer_and_dot_are_adjoint():
    # <x y^* z, w> consistency on a small case: (x y^*) z == x (y^* z)
    rng = np.random.default_rng(13)
    x = rand_dq_vector(4, rng)
    y = rand_dq_vector(4, rng)
    z = rand_dq_vector(4, rng)
    lhs = x.outer(y) @ z
    rhs = x.scale_right(y.dot(z))
    assert (lhs - rhs).norm_2r() <= 1e-12
