import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqeig.errors import DivisionUndefined, NotAppreciable, NotInvertible, ZeroInput
from dqeig.scalars import (
    DualNumber,
    DualQuaternion,
    Quaternion,
    project_unit_dual_quaternion,
)
from tests.dq import quaternion

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
duals = st.builds(DualNumber, finite, finite)
quats = st.builds(Quaternion, *(4 * [st.floats(-1e3, 1e3)]))


def q(*c):
    return Quaternion(*c)


def dq(st_c, du_c=(0, 0, 0, 0)):
    return DualQuaternion(Quaternion(*st_c), Quaternion(*du_c))


def order(a, b):
    """(a < b, a <= b, a > b, a >= b)."""
    return a < b, a <= b, a > b, a >= b


def assert_quat_close(a, b, tol=1e-12):
    assert abs(a.w - b.w) <= tol and abs(a.x - b.x) <= tol
    assert abs(a.y - b.y) <= tol and abs(a.z - b.z) <= tol


def assert_dq_close(a, b, tol=1e-12):
    assert_quat_close(a.st, b.st, tol)
    assert_quat_close(a.du, b.du, tol)


class TestDualNumber:
    def test_division_appreciable(self):
        r = DualNumber(1, 2) / DualNumber(2, 0)
        assert r == DualNumber(0.5, 1.0)

    def test_self_division_is_one(self):
        assert DualNumber(3, 7) / DualNumber(3, 7) == DualNumber(1.0, 0.0)

    def test_division_degenerate_branch(self):
        # free constant fixed to zero
        assert DualNumber(0, 6) / DualNumber(0, 3) == DualNumber(2.0, 0.0)

    @pytest.mark.parametrize(
        "a,b",
        [
            (DualNumber(1, 0), DualNumber(0, 0)),
            (DualNumber(1, 2), DualNumber(0, 3)),
            (DualNumber(0, 1), DualNumber(0, 0)),
        ],
    )
    def test_division_undefined(self, a, b):
        with pytest.raises(DivisionUndefined):
            a / b

    def test_mul_never_produces_second_order(self):
        r = DualNumber(0, 5) * DualNumber(0, 7)
        assert r == DualNumber(0.0, 0.0)

    def test_compare_standard_part_dominates(self):
        assert order(DualNumber(1, 0), DualNumber(0, 100)) == (False, False, True, True)

    def test_compare_dual_part_breaks_ties(self):
        assert order(DualNumber(2, 1), DualNumber(2, 3)) == (True, True, False, False)

    def test_compare_equal(self):
        assert order(DualNumber(5, 5), DualNumber(5, 5)) == (False, True, False, True)

    @given(duals, duals)
    def test_order_antisymmetric(self, a, b):
        lt, le, gt, ge = order(a, b)
        assert order(b, a) == (gt, ge, lt, le)

    @given(duals, duals, duals)
    def test_order_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @given(duals, duals)
    def test_reciprocal_division_consistency(self, a, b):
        if abs(b.st) < 1e-3:
            return
        r1 = a / b
        r2 = a * b.reciprocal()
        assert math.isclose(r1.st, r2.st, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(r1.du, r2.du, rel_tol=1e-9, abs_tol=1e-6)


class TestQuaternion:
    def test_ij_is_k(self):
        assert q(0, 1, 0, 0) * q(0, 0, 1, 0) == q(0, 0, 0, 1)

    def test_i_squared_is_minus_one(self):
        assert q(0, 1, 0, 0) * q(0, 1, 0, 0) == q(-1, 0, 0, 0)

    def test_expand_by_table(self):
        # (1+i)(1+j) = 1 + i + j + k
        assert q(1, 1, 0, 0) * q(1, 0, 1, 0) == q(1, 1, 1, 1)

    def test_noncommutative(self):
        i, j = q(0, 1, 0, 0), q(0, 0, 1, 0)
        assert i * j == -(j * i)

    def test_inverse_identity(self):
        assert q(1, 0, 0, 0).inverse() == q(1, 0, 0, 0)

    def test_inverse_k(self):
        assert q(0, 0, 0, 1).inverse() == q(0, 0, 0, -1)

    def test_inverse_scalar(self):
        assert q(2, 0, 0, 0).inverse() == q(0.5, 0, 0, 0)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(NotInvertible):
            q(0, 0, 0, 0).inverse()

    def test_conj_times_self_is_squared_magnitude(self):
        p = q(1.0, -2.0, 0.5, 3.0)
        r = p.conj() * p
        assert math.isclose(r.w, p.norm_sq(), rel_tol=1e-14)
        assert max(abs(r.x), abs(r.y), abs(r.z)) <= 1e-14

    @given(quats, quats)
    @settings(max_examples=200)
    def test_magnitude_multiplicative(self, p, r):
        lhs = (p * r).magnitude()
        rhs = p.magnitude() * r.magnitude()
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-9)

    def test_complex_pair_round_trip(self):
        p = q(1.0, -2.0, 0.5, 3.0)
        a, b = p.as_complex_pair()
        assert quaternion(a, b) == p


def test_ring_laws_random_sample():
    # associativity and distributivity within 1e-12 absolute, 1000 draws
    rng = np.random.default_rng(101)
    for _ in range(1000):
        c = rng.uniform(-1, 1, 12)
        p, r, s = q(*c[0:4]), q(*c[4:8]), q(*c[8:12])
        assert_quat_close((p * r) * s, p * (r * s), tol=1e-12)
        assert_quat_close(p * (r + s), p * r + p * s, tol=1e-12)


def test_dual_quaternion_ring_laws_random_sample():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        c = rng.uniform(-1, 1, 24)
        p = dq(c[0:4], c[4:8])
        r = dq(c[8:12], c[12:16])
        s = dq(c[16:20], c[20:24])
        assert_dq_close((p * r) * s, p * (r * s), tol=1e-12)
        assert_dq_close(p * (r + s), p * r + p * s, tol=1e-12)


class TestDualQuaternion:
    def test_unit_element(self):
        p = dq((0.3, -1, 2, 0.5), (1, 1, -1, 0))
        assert DualQuaternion.one() * p == p
        assert p * DualQuaternion.one() == p

    def test_eps_squared_vanishes(self):
        e = dq((0, 0, 0, 0), (1, 0, 0, 0))
        assert (e * e).is_zero()

    def test_cross_term_product(self):
        # (i + j*eps)(j) = k - eps
        lhs = dq((0, 1, 0, 0), (0, 0, 1, 0)) * dq((0, 0, 1, 0))
        assert lhs == dq((0, 0, 0, 1), (-1, 0, 0, 0))

    def test_magnitude_unit_quaternion(self):
        assert dq((0, 0, 0, 1)).magnitude() == DualNumber(1.0, 0.0)

    def test_magnitude_pure_dual(self):
        m = dq((0, 0, 0, 0), (3, 4, 0, 0)).magnitude()
        assert m == DualNumber(0.0, 5.0)

    def test_magnitude_orthogonal_dual_part(self):
        # sc(conj(1) * i) = 0, so the dual part of the magnitude vanishes
        assert dq((1, 0, 0, 0), (0, 1, 0, 0)).magnitude() == DualNumber(1.0, 0.0)

    def test_inverse_identity(self):
        assert dq((1, 0, 0, 0)).inverse() == DualQuaternion.one()

    def test_inverse_of_unit_is_conjugate(self):
        u = project_unit_dual_quaternion(dq((1, 2, -1, 0.5), (0.3, 0, 1, -2)))
        assert_dq_close(u.inverse(), u.conj(), tol=1e-14)

    def test_inverse_formula(self):
        r = dq((2, 0, 0, 0), (0, 4, 0, 0)).inverse()
        assert r == dq((0.5, 0, 0, 0), (0, -1, 0, 0))

    def test_inverse_needs_appreciable(self):
        with pytest.raises(NotAppreciable):
            dq((0, 0, 0, 0), (1, 0, 0, 0)).inverse()

    def test_inverse_times_self(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = rng.uniform(-1, 1, 8)
            p = dq(c[:4], c[4:])
            if p.st.magnitude() < 0.1:
                continue
            assert_dq_close(p.inverse() * p, DualQuaternion.one(), tol=1e-12)
            assert_dq_close(p * p.inverse(), DualQuaternion.one(), tol=1e-12)

    def test_product_conjugate_antihomomorphism(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            c = rng.uniform(-1, 1, 16)
            p, r = dq(c[:4], c[4:8]), dq(c[8:12], c[12:16])
            assert_dq_close((p * r).conj(), r.conj() * p.conj(), tol=1e-12)


class TestProjection:
    def test_fixes_unit_set(self):
        u = project_unit_dual_quaternion(dq((1, 2, -1, 0.5), (0.3, 0, 1, -2)))
        assert_dq_close(project_unit_dual_quaternion(u), u, tol=1e-12)

    def test_scalar_input(self):
        assert project_unit_dual_quaternion(dq((2, 0, 0, 0))) == DualQuaternion.one()

    def test_degenerate_branch(self):
        # pure dual input: du/|du| + 0*eps
        r = project_unit_dual_quaternion(dq((0, 0, 0, 0), (3, 0, 0, 0)))
        assert r == DualQuaternion.one()

    def test_zero_raises(self):
        with pytest.raises(ZeroInput):
            project_unit_dual_quaternion(dq((0, 0, 0, 0)))

    def test_output_is_unit(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            c = rng.uniform(-1, 1, 8)
            p = dq(c[:4], c[4:])
            if p.st.magnitude() < 1e-6:
                continue
            assert project_unit_dual_quaternion(p).is_unit(1e-12)
