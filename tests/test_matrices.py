import math

import numpy as np
import pytest

from dqeig.errors import DimensionMismatch, ZeroVector
from dqeig.matrices import (
    DualQuaternionMatrix,
    DualQuaternionVector,
    _dq_dot,
    _dq_matvec,
    _dq_mul,
    _dq_stack,
    _dual_norm,
    _eig_residual,
    _is_hermitian,
    _norm_2r,
    _scale_dual,
    _sumsq,
    _unit,
    random_unit_vector,
)
from dqeig.scalars import DualNumber, DualQuaternion, Quaternion
from dqeig.solve import solve
from tests.dq import (
    basis,
    dot,
    dual_norm,
    entry,
    identity,
    is_hermitian,
    max_abs_diff,
    norm_2r,
    outer,
    scale_right,
    zeros,
)


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
        eye = identity(4)
        assert max_abs_diff((eye @ a)._parts, a._parts) == 0.0

    def test_eps_identity_squares_to_zero(self):
        n = 3
        z = np.zeros((n, n))
        eps_eye = DualQuaternionMatrix(z, z, np.eye(n), z)
        prod = eps_eye @ eps_eye
        assert max_abs_diff(prod._parts, zeros(n, n)._parts) == 0.0

    def test_1x1_reduces_to_scalar_product(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rand_dq_matrix(1, 1, rng)
            b = rand_dq_matrix(1, 1, rng)
            prod = entry(a @ b, 0, 0)
            direct = entry(a, 0, 0) * entry(b, 0, 0)
            diff = prod - direct
            assert diff.st.magnitude() + diff.du.magnitude() <= 1e-14

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rand_dq_matrix(3, 4, rng)
            b = rand_dq_matrix(4, 2, rng)
            c = rand_dq_matrix(2, 5, rng)
            assert max_abs_diff(((a @ b) @ c)._parts, (a @ (b @ c))._parts) <= 1e-11

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
        assert max_abs_diff(a.conj_transpose().conj_transpose()._parts, a._parts) == 0.0

    def test_hermitian_fixed_point(self):
        h = rand_hermitian(4, np.random.default_rng(5))
        assert max_abs_diff(h.conj_transpose()._parts, h._parts) == 0.0
        assert h.is_hermitian()

    def test_1x1_entry(self):
        # [i + j*eps]^* = [-i - j*eps]
        m = DualQuaternionMatrix.from_entries(
            [[DualQuaternion(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0))]]
        )
        star = entry(m.conj_transpose(), 0, 0)
        assert star == DualQuaternion(Quaternion(0, -1, 0, 0), Quaternion(0, 0, -1, 0))

    def test_product_antihomomorphism(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rand_dq_matrix(3, 3, rng)
            b = rand_dq_matrix(3, 3, rng)
            lhs = (a @ b).conj_transpose()
            rhs = b.conj_transpose() @ a.conj_transpose()
            assert max_abs_diff(lhs._parts, rhs._parts) <= 1e-12


class TestVectorNorms:
    def test_basis_vector(self):
        e1 = basis(3, 0)
        assert dual_norm(e1) == DualNumber(1.0, 0.0)
        assert norm_2r(e1) == 1.0

    def test_pure_dual_degenerate_branch(self):
        z = np.zeros(2)
        y = DualQuaternionVector(z, z, np.array([3.0, 0]), np.array([0, 4.0j]))
        assert dual_norm(y) == DualNumber(0.0, 5.0)
        assert norm_2r(y) == 5.0

    def test_orthogonal_cross_term_vanishes(self):
        # x = [1; eps*i]: the dual correction sc(x_st^* x_du) is zero
        x = DualQuaternionVector(
            np.array([1.0, 0.0]), np.zeros(2), np.array([0.0, 1.0j]), np.zeros(2)
        )
        assert dual_norm(x) == DualNumber(1.0, 0.0)

    def test_norm_2r_scalar_entries(self):
        # entries 1 and eps
        x = DualQuaternionVector(
            np.array([1.0, 0.0]), np.zeros(2), np.array([0.0, 1.0]), np.zeros(2)
        )
        assert math.isclose(norm_2r(x), math.sqrt(2.0), rel_tol=1e-15)

    def test_norm_2r_matches_componentwise_recomputation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rand_dq_vector(4, rng)
            by_parts = math.sqrt(
                sum(entry(x, i).st.norm_sq() + entry(x, i).du.norm_sq() for i in range(4))
            )
            assert math.isclose(norm_2r(x), by_parts, rel_tol=1e-13)


class TestMatrixNorms:
    def test_identity_plus_eps_identity(self):
        eye = np.eye(2)
        z = np.zeros((2, 2))
        a = DualQuaternionMatrix(eye, z, eye, z)
        f = dual_norm(a)
        assert math.isclose(f.st, math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(f.du, math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(norm_2r(a), 2.0, rel_tol=1e-15)

    def test_pure_dual_degenerate_branch(self):
        rng = np.random.default_rng(8)
        b = rng.uniform(-1, 1, (3, 3))
        z = np.zeros((3, 3))
        a = DualQuaternionMatrix(z, z, b, z)
        f = dual_norm(a)
        assert f.st == 0.0
        assert math.isclose(f.du, np.linalg.norm(b), rel_tol=1e-14)

    def test_zero_matrix(self):
        assert dual_norm(zeros(3, 3)) == DualNumber(0.0, 0.0)
        assert norm_2r(zeros(3, 3)) == 0.0


class TestUnitProjection:
    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = rand_dq_vector(4, rng).unit()
            assert norm_2r(u.unit() - u) <= 1e-12
            nrm = dual_norm(u)
            assert abs(nrm.st - 1.0) <= 1e-12 and abs(nrm.du) <= 1e-12

    def test_scaled_basis(self):
        e1 = basis(3, 0)
        assert norm_2r((2.0 * e1).unit() - e1) == 0.0

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
        assert np.array_equal(_unit(np.stack((z, du)).astype(complex))[0], want)
        assert np.array_equal(DualQuaternionVector(z, z, du, z).unit().v1, want)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            DualQuaternionVector(np.zeros(3), np.zeros(3)).unit()
        with pytest.raises(ZeroVector):
            _unit(np.zeros((2, 2), dtype=complex))

    def test_random_unit_vector_is_unit_and_deterministic(self):
        a = random_unit_vector(5, np.random.default_rng(11))
        b = random_unit_vector(5, np.random.default_rng(11))
        assert norm_2r(a - b) == 0.0
        nrm = dual_norm(a)
        assert abs(nrm.st - 1.0) <= 1e-12 and abs(nrm.du) <= 1e-12

    @pytest.mark.parametrize("n", [1, 10, 150])
    def test_unit_is_the_scaling_by_the_dual_norm_bit_for_bit(self, n):
        # one normalization formula: _unit scales by the reciprocal of the
        # (st, du) that _dual_norm reduces, for a stack and for a strided view
        # of one, such as a row of a stack of vectors
        rng = np.random.default_rng(n)
        for parts in (4, 2):
            x = rng.standard_normal((parts, n)) + 1j * rng.standard_normal((parts, n))
            st, du = _dual_norm(x)
            assert _dual_norm(np.stack((x, x), axis=1)[:, 1]) == (st, du)
            want = _scale_dual(x, 1.0 / st, -du / (st * st))
            assert _unit(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(5, 5), (3, 7), (7, 2)])
def test_stacked_vector_product_is_the_part_product(shape):
    # the batched matrix @ vector product against the part-by-part product,
    # which it matches up to summation order
    rng = np.random.default_rng(shape)
    a, v = rand_dq_matrix(*shape, rng), rand_dq_vector(shape[1], rng)
    got = _dq_matvec(_dq_stack(a._parts), v._parts)
    assert got.shape == (4, shape[0])
    assert np.abs(got - _dq_mul(a._parts, v._parts)).max() <= 1e-14 * shape[1]
    # a @ v is the part-by-part product, bit for bit
    assert (a @ v)._parts.tobytes() == _dq_mul(a._parts, v._parts).tobytes()


def test_eig_residual_scales_as_the_part_by_part_formula():
    # per column (axis=0) and for one vector, bit for bit the residual with
    # x (st + du eps) formed one part at a time, s st and d st + s du
    rng = np.random.default_rng(17)
    a = rand_dq_matrix(6, 6, rng)
    x = rand_dq_matrix(6, 9, rng)._parts
    st, du = rng.standard_normal(9), rng.standard_normal(9)
    for args, axis in (((x, st, du), 0), ((x[:, :, 0], 0.7, -1.3), None)):
        x_, st_, du_ = args
        y = _dq_mul(a._parts, x_)
        scaled = [b * st_ for b in x_[:2]] + [b * st_ + c * du_ for b, c in zip(x_[2:], x_)]
        want = _norm_2r([p - r for p, r in zip(y, scaled)], axis)
        assert np.asarray(_eig_residual(a._parts, *args, axis=axis)).tobytes() == np.asarray(want).tobytes()


def test_stacked_dot_is_one_dot_per_row():
    rng = np.random.default_rng(14)
    x = rand_dq_vector(150, rng)
    ys = [rand_dq_vector(150, rng) for _ in range(3)]
    got = _dq_dot(x._parts, np.stack([y._parts for y in ys], axis=1))
    for k, y in enumerate(ys):
        assert np.array(got)[:, k].tobytes() == np.array(_dq_dot(x._parts, y._parts)).tobytes()


def test_an_object_of_a_stack_shares_it():
    # a row of a frozen stack of vectors becomes a vector without a copy
    rows = np.arange(24, dtype=np.complex128).reshape(4, 2, 3)
    rows.setflags(write=False)
    v = DualQuaternionVector._of(rows[:, 1])
    assert np.shares_memory(v.v1, rows) and not v.v1.flags.writeable
    assert norm_2r(v - DualQuaternionVector(*rows[:, 1])) == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_is_hermitian_compares_the_entries_of_q_minus_q_star(seed):
    # the kernel the Hermitian gate calls compares the parts directly; the
    # numbers are those of Q - Q*
    rng = np.random.default_rng(seed)
    for q in (rand_dq_matrix(5, 5, rng), rand_hermitian(5, rng)):
        q = q + q.conj_transpose() * 0.5 if seed % 2 else q
        dev = max_abs_diff(q._parts, q.conj_transpose()._parts)
        assert is_hermitian(q, dev)
        assert is_hermitian(q, np.nextafter(dev, 0.0)) == (dev == 0.0)
        assert q.is_hermitian() == is_hermitian(q, 1e-10) == (dev <= 1e-10)


@pytest.mark.parametrize("shape", [(4, 10, 20), (2, 20, 20), (4, 3), (4, 40, 120), (4, 5, 7, 9)])
@pytest.mark.parametrize("axis", [None, 0, -1])
def test_norm_2r_of_a_stack_is_the_part_by_part_sum_bit_for_bit(shape, axis):
    # a stack at or below _ONE_PASS entries is reduced in one pass, a larger
    # one (4 x 40 x 120) part by part; both match summing each part alone, for
    # a stack, its tuple of parts and a stack whose parts are transposed in
    # memory, which numpy sums in another order
    rng = np.random.default_rng(len(shape))
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(
        -3, 4, shape)
    flip = (0, *range(x.ndim - 1, 0, -1))
    for stack in (x, tuple(x), x.transpose(flip).copy().transpose(flip)):
        want = np.sqrt(sum([_sumsq(a, axis) for a in stack]))
        assert np.asarray(_norm_2r(stack, axis)).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("part", range(4))
def test_is_hermitian_fails_on_a_nan_in_any_part(part):
    parts = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    parts[part][0, 1] = np.nan
    assert not DualQuaternionMatrix(*parts).is_hermitian()
    # the same parts read as the dual complex pairs (a1, a2) and (a3, a4)
    pair = part - part % 2
    assert not _is_hermitian(parts[pair : pair + 2], 1e-10)


def test_hermitian_quadratic_form_is_dual_number():
    rng = np.random.default_rng(12)
    for _ in range(50):
        h = rand_hermitian(5, rng)
        x = rand_dq_vector(5, rng)
        val = dot(x, h @ x)
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
    lhs = outer(x, y) @ z
    rhs = scale_right(x, dot(y, z))
    assert norm_2r(lhs - rhs) <= 1e-12


def test_from_entries_of_no_rows_is_the_empty_matrix():
    q = DualQuaternionMatrix.from_entries([])
    assert q.shape == (0, 0) and q._parts.shape == (4, 0, 0)
    # the full-spectrum solvers take it and find no pairs
    for alg in ("eddcam", "dcama", "pm"):
        res = solve(q, alg)
        assert res.pairs == () and res.residual == 0.0 and res.converged
