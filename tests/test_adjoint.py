import numpy as np
import pytest

from dqeig import dual_eig, power
from dqeig.adjoint import adjoint, vec_map_f, vec_map_f_inverse, vec_map_h
from dqeig.bench import build_laplacian, random_graph, random_hermitian
from dqeig.errors import OddLength
from dqeig.matrices import (
    DualQuaternionMatrix,
    DualQuaternionVector,
    _dc_mul,
    _dual_norm,
    _norm_2r,
    _scale_dual,
    random_unit_vector,
)
from dqeig.power import PowerIterConfig
from dqeig.scalars import DualQuaternion, Quaternion
from tests.dq import (
    basis, dual_norm, identity, is_hermitian, max_abs_diff, norm_2r, quaternion, scale_right,
)
from tests.test_matrices import rand_dq_matrix, rand_dq_vector

# The adjoint side is plain (st, du) pairs of complex arrays. These helpers
# spell out the dual complex algebra on them for the tests.


def dc_eye(n):
    return np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)


def dc_conj_t(m):
    return tuple(a.conj().T for a in m)


def dc_dot(x, y):
    """conj(x)^T y of dual complex vectors, as the complex pair (st, du)."""
    return complex(np.vdot(x[0], y[0])), complex(np.vdot(x[0], y[1]) + np.vdot(x[1], y[0]))


def dc_outer(x, y):
    """x conj(y)^T of dual complex vectors, as the pair (st, du)."""
    return (np.outer(x[0], np.conj(y[0])),
            np.outer(x[0], np.conj(y[1])) + np.outer(x[1], np.conj(y[0])))


def adjoint_parts(m) -> DualQuaternionMatrix:
    """The inverse of the adjoint map: the parts a1, a2 (a3, a4) read off the
    top blocks of the standard (dual) part of m, whose bottom blocks must be
    -conj(a2) and conj(a1) (-conj(a4) and conj(a3)) exactly."""
    r, c = m[0].shape[0] // 2, m[0].shape[1] // 2
    parts = []
    for part in m:
        a, b = part[:r, :c], part[:r, c:]
        assert np.array_equal(part[r:, :c], -b.conj())
        assert np.array_equal(part[r:, c:], a.conj())
        parts += [a, b]
    return DualQuaternionMatrix(*parts)


def eigen_residuals(q, lam, v):
    """The three equivalent eigenvalue equations for P = adjoint(Q), with lam
    the complex pair (st, du): |Q v - v lam|, |P u - lam u| with u = F(v),
    and |P Hu - conj(lam) Hu|. They agree up to rounding whenever the
    adjoint map is right, whether or not (lam, v) is an eigenpair."""
    lam_dq = DualQuaternion(quaternion(lam[0], 0j), quaternion(lam[1], 0j))
    p, u = adjoint(q), vec_map_f(v._parts)
    hu = vec_map_h(u)
    return (
        norm_2r(q @ v - scale_right(v, lam_dq)),
        _norm_2r(_dc_mul(p, u) - _scale_dual(u, *lam)),
        _norm_2r(_dc_mul(p, hu) - _scale_dual(hu, lam[0].conjugate(), lam[1].conjugate())),
    )


def spread(residuals):
    return max(residuals) - min(residuals)


class TestAdjointMap:
    def test_identity_maps_to_identity(self):
        assert max_abs_diff(adjoint(identity(4)), dc_eye(8)) == 0.0

    def test_k_scalar_block(self):
        st, du = adjoint(
            DualQuaternionMatrix.from_entries([[DualQuaternion(Quaternion(0, 0, 0, 1))]])
        )
        assert np.allclose(st, [[0, 1j], [1j, 0]])
        assert not du.any()

    @pytest.mark.parametrize("shape", [(3, 3), (3, 5), (4, 2)])
    def test_blocks_are_the_block_form_byte_for_byte(self, shape):
        rng = np.random.default_rng(sum(shape))
        real = DualQuaternionMatrix(-np.ones(shape), np.zeros(shape))
        for p in (rand_dq_matrix(*shape, rng), real):
            m = adjoint(p)
            for part, (a, b) in zip(m, ((p.a1, p.a2), (p.a3, p.a4))):
                assert part.tobytes() == np.block([[a, b], [-b.conj(), a.conj()]]).tobytes()

    def test_adjoint_is_read_only(self):
        m = adjoint(rand_dq_matrix(3, 3, np.random.default_rng(8)))
        assert isinstance(m, tuple) and len(m) == 2
        for part in m:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 1.0

    def test_multiplicative(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = rand_dq_matrix(3, 3, rng)
            q = rand_dq_matrix(3, 3, rng)
            lhs = adjoint(p @ q)
            rhs = _dc_mul(adjoint(p), adjoint(q))
            assert max_abs_diff(lhs, rhs) <= 1e-12

    def test_additive(self):
        rng = np.random.default_rng(22)
        p = rand_dq_matrix(3, 4, rng)
        q = rand_dq_matrix(3, 4, rng)
        total = [a + b for a, b in zip(adjoint(p), adjoint(q))]
        assert max_abs_diff(adjoint(p + q), total) == 0.0

    def test_commutes_with_conj_transpose(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = rand_dq_matrix(3, 4, rng)
            assert max_abs_diff(adjoint(p.conj_transpose()), dc_conj_t(adjoint(p))) <= 1e-15

    def test_hermitian_iff(self):
        rng = np.random.default_rng(24)
        h = adjoint(random_hermitian(4, rng))
        assert max_abs_diff(h, dc_conj_t(h)) <= 1e-12
        p = rand_dq_matrix(4, 4, rng)
        if not is_hermitian(p, 1e-6):
            a = adjoint(p)
            assert not max_abs_diff(a, dc_conj_t(a)) <= 1e-6

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
        assert max_abs_diff(_dc_mul(dc_conj_t(a), a), dc_eye(4)) <= 1e-14

    def test_vector_adjoint_is_f_and_h_assembly(self):
        # J(v) = [F(v)  -H(F(v))] as a 2n x 2 block matrix
        rng = np.random.default_rng(26)
        v = rand_dq_vector(3, rng)
        jv = adjoint(DualQuaternionMatrix(*(a[:, None] for a in v._parts)))
        u1 = vec_map_f(v._parts)
        u2 = vec_map_h(u1)
        for part, a, b in zip(jv, u1, u2):
            assert np.allclose(part[:, 0], a) and np.allclose(part[:, 1], -b)


class TestAdjointInverse:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(27)
        q = rand_dq_matrix(3, 5, rng)
        back = adjoint_parts(adjoint(q))
        assert max_abs_diff(back._parts, q._parts) == 0.0

    def test_identity(self):
        back = adjoint_parts(dc_eye(6))
        assert max_abs_diff(back._parts, identity(3)._parts) == 0.0


class TestVectorMaps:
    def test_f_of_scalar_one(self):
        st, du = vec_map_f(basis(1, 0)._parts)
        assert np.allclose(st, [1.0, 0.0]) and not du.any()

    def test_f_inverse_round_trip(self):
        rng = np.random.default_rng(30)
        v = rand_dq_vector(4, rng)
        w = DualQuaternionVector(*vec_map_f_inverse(vec_map_f(v._parts)))
        assert norm_2r(w - v) == 0.0

    def test_h_blockwise(self):
        u = np.array([1 + 2j, 3 - 1j]), np.array([0.5j, -2.0 + 0j])
        st, du = vec_map_h(u)
        assert np.allclose(st, [3 + 1j, -(1 - 2j)])
        assert np.allclose(du, [-2.0, 0.5j])

    def test_h_squared_is_negation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            u = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
            hh = vec_map_h(vec_map_h(u))
            assert _norm_2r([a + b for a, b in zip(hh, u)]) <= 1e-15

    def test_h_of_f_is_f_of_right_j_multiple(self):
        rng = np.random.default_rng(32)
        jq = DualQuaternion(Quaternion(0, 0, 1, 0))
        for _ in range(50):
            v = rand_dq_vector(3, rng)
            lhs = vec_map_h(vec_map_f(v._parts))
            rhs = vec_map_f(scale_right(v, jq)._parts)
            assert _norm_2r([a - b for a, b in zip(lhs, rhs)]) <= 1e-15

    def test_f_and_h_images_are_orthogonal(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            u1 = vec_map_f(rand_dq_vector(4, rng)._parts)
            st, du = dc_dot(u1, vec_map_h(u1))
            assert abs(st) <= 1e-12 and abs(du) <= 1e-12

    def test_odd_length_rejected(self):
        u = np.ones(3, dtype=complex), np.zeros(3, dtype=complex)
        with pytest.raises(OddLength):
            vec_map_h(u)
        with pytest.raises(OddLength):
            vec_map_f_inverse(u)

    def test_f_preserves_2_norm(self):
        rng = np.random.default_rng(34)
        v = rand_dq_vector(5, rng)
        a, b = dual_norm(v), _dual_norm(np.stack(vec_map_f(v._parts)))
        assert abs(a.st - b[0]) <= 1e-13 and abs(a.du - b[1]) <= 1e-13


class TestArrayContract:
    """The maps take one vector or the columns of a matrix alike: a stack of
    k vectors maps column by column, byte for byte."""

    @staticmethod
    def columns(n, k, rng):
        return tuple(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
                     for _ in range(4))

    def test_f_inverse_of_f_is_the_identity(self):
        rng = np.random.default_rng(40)
        x = self.columns(5, 3, rng)
        for v in (x, tuple(a[:, 1] for a in x)):
            back = vec_map_f_inverse(vec_map_f(v))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(back, v))

    def test_h_of_h_is_the_negation(self):
        rng = np.random.default_rng(41)
        u = vec_map_f(self.columns(5, 3, rng))
        for w in (u, tuple(a[:, 2] for a in u)):
            assert all(a.tobytes() == (-b).tobytes() for a, b in zip(vec_map_h(vec_map_h(w)), w))

    def test_h_of_f_is_f_of_the_j_multiple(self):
        # v j = (v1 + v2 j) j = -v2 + v1 j, part by part
        rng = np.random.default_rng(42)
        x = self.columns(5, 3, rng)
        xj = (-x[1], x[0], -x[3], x[2])
        assert max_abs_diff(vec_map_h(vec_map_f(x)), vec_map_f(xj)) == 0.0
        jq = DualQuaternion(Quaternion(0, 0, 1, 0))
        v = DualQuaternionVector(*(a[:, 0] for a in x))
        hf = vec_map_h(vec_map_f(v._parts))
        assert max_abs_diff(hf, vec_map_f(scale_right(v, jq)._parts)) == 0.0

    def test_columns_map_as_single_vectors(self):
        rng = np.random.default_rng(43)
        x = self.columns(4, 6, rng)
        u = vec_map_f(x)
        for maps, arg in ((vec_map_f, x), (vec_map_h, u), (vec_map_f_inverse, u)):
            stacked = maps(arg)
            for k in range(6):
                single = maps(tuple(a[:, k] for a in arg))
                assert all(a[:, k].tobytes() == b.tobytes() for a, b in zip(stacked, single))

    def test_odd_column_length_rejected(self):
        u = np.ones((5, 2), dtype=complex), np.zeros((5, 2), dtype=complex)
        with pytest.raises(OddLength):
            vec_map_h(u)
        with pytest.raises(OddLength):
            vec_map_f_inverse(u)

    def test_f_inverse_returns_one_stack_of_new_parts(self):
        rng = np.random.default_rng(44)
        x = self.columns(4, 2, rng)
        u = vec_map_f(x)
        v = vec_map_f_inverse(u)
        assert isinstance(v, np.ndarray) and v.shape == (4, 4, 2)
        assert np.array_equal(v, x)
        assert not np.shares_memory(v, u[0]) and not np.shares_memory(v, u[1])


def test_solvers_reach_the_maps_through_their_module_names(monkeypatch):
    # a wrapper put on a module attribute, as a tracer puts it, sees every call
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.append(f"{module.__name__}.{name}")
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("adjoint", "vec_map_f", "vec_map_f_inverse", "vec_map_h"):
        spy(power, name)
    for name in ("adjoint", "vec_map_f_inverse"):
        spy(dual_eig, name)
    q = build_laplacian(random_graph(6, 0.3, 1))
    cfg = PowerIterConfig(max_iter=50000, tol=1e-10, seed=1)
    power.dcama_pm(q, cfg)
    power.dcam_pm(q, random_unit_vector(6, np.random.default_rng(0)), cfg)
    dual_eig.eddcam_ea(q)
    assert set(calls) == {"dqeig.power.adjoint", "dqeig.power.vec_map_f",
                          "dqeig.power.vec_map_f_inverse", "dqeig.power.vec_map_h",
                          "dqeig.dual_eig.adjoint", "dqeig.dual_eig.vec_map_f_inverse"}


class TestEigenEquivalence:
    def test_diagonal_eigenpair_zero_residuals(self):
        q = DualQuaternionMatrix.from_entries(
            [
                [DualQuaternion(Quaternion(2), Quaternion(1)), DualQuaternion()],
                [DualQuaternion(), DualQuaternion.one()],
            ]
        )
        assert max(eigen_residuals(q, (2 + 0j, 1 + 0j), basis(2, 0))) <= 1e-15

    def test_solver_output_satisfies_all_three(self):
        q = random_hermitian(5, np.random.default_rng(35))
        lam, vecs = dual_eig.eddcam_ea(q).pairs[0]
        r = eigen_residuals(q, (complex(lam.st), complex(lam.du)), vecs[0])
        assert r[0] <= 1e-10
        assert spread(r) <= 1e-12

    def test_perturbed_eigenvalue_grows_linearly(self):
        q = random_hermitian(4, np.random.default_rng(36))
        lam, vecs = dual_eig.eddcam_ea(q).pairs[0]
        v = vecs[0]
        r = eigen_residuals(q, (complex(lam.st + 0.1), complex(lam.du)), v)
        assert abs(r[0] - 0.1 * norm_2r(v)) <= 1e-3
        assert spread(r) <= 1e-12

    def test_residuals_agree_even_off_eigenpair(self):
        rng = np.random.default_rng(37)
        q = random_hermitian(4, rng)
        v = rand_dq_vector(4, rng)
        r = eigen_residuals(q, (0.7 + 0.2j, -1.1 + 0.5j), v)
        assert spread(r) <= 1e-12 * max(1.0, r[0])
