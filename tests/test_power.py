import math

import numpy as np
import pytest

from dqeig.adjoint import adjoint, vec_map_f, vec_map_h
from dqeig.bench import pentagon_fixture, random_hermitian, synth_known_spectrum
from dqeig.errors import InnerNoConvergence
from dqeig.matrices import DualQuaternionVector, _scale_dual, random_unit_vector
from dqeig.power import (
    PowerIterConfig,
    adcam_pm,
    dcam_pm,
    dcama_pm,
    pair_residual,
    power_method_baseline,
    power_method_spectrum,
)
from dqeig.scalars import DualNumber
from tests.dq import dual_norm, entry, max_abs_diff, outer, zeros
from tests.reference_power import aitken_extrapolate
from tests.test_adjoint import dc_outer
from tests.test_dual_eig import dq_diag

CFG = PowerIterConfig(max_iter=5000, tol=1e-6, aitken_trigger=1e-3, seed=0)


def diag_start():
    q = dq_diag([DualNumber(3, 1), DualNumber(1, 0)])
    s = 1.0 / math.sqrt(2.0)
    v0 = DualQuaternionVector(np.array([s, s]), np.zeros(2))
    return q, v0


class TestBaseline:
    def test_diagonal_dominant(self):
        q, v0 = diag_start()
        lam, v, tr = power_method_baseline(q, v0, CFG)
        assert tr.converged
        assert abs(lam.st - 3.0) <= 1e-6 and abs(lam.du - 1.0) <= 1e-5
        assert abs(abs(entry(v, 0).st.w) - 1.0) <= 1e-3
        assert entry(v, 1).st.magnitude() <= 1e-3

    def test_known_spectrum_gap(self):
        sigma = (DualNumber(2.0, 0.7), DualNumber(1.0, -0.3), DualNumber(0.5, 0.1))
        q, _ = synth_known_spectrum(3, sigma, 11)
        v0 = random_unit_vector(3, np.random.default_rng(12))
        lam, v, tr = power_method_baseline(q, v0, CFG)
        assert tr.converged
        assert abs(lam.st - 2.0) <= 1e-6 and abs(lam.du - 0.7) <= 1e-6

    def test_returned_vector_unit(self):
        q = random_hermitian(6, np.random.default_rng(13))
        v0 = random_unit_vector(6, np.random.default_rng(14))
        _, v, tr = power_method_baseline(q, v0, CFG)
        nrm = dual_norm(v)
        assert abs(nrm.st - 1.0) <= 1e-12 and abs(nrm.du) <= 1e-12

    def test_rayleigh_quotient_reality(self):
        q = random_hermitian(6, np.random.default_rng(15))
        v0 = random_unit_vector(6, np.random.default_rng(16))
        _, _, tr = power_method_baseline(q, v0, CFG)
        assert not tr.imag_flag
        assert tr.dropped_imag <= 1e-12


class TestDcam:
    def test_agrees_with_baseline_on_diagonal(self):
        q, v0 = diag_start()
        lam_b, _, _ = power_method_baseline(q, v0, CFG)
        lam_a, v, tr = dcam_pm(q, v0, CFG)
        assert tr.converged
        assert abs(lam_a.st - lam_b.st) <= 1e-6
        assert abs(lam_a.du - lam_b.du) <= 1e-5
        assert pair_residual(q, lam_a, v) <= 1e-6

    def test_random_converges_within_tolerance(self):
        for trial in range(10):
            q = random_hermitian(10, np.random.default_rng([17, trial]))
            v0 = random_unit_vector(10, np.random.default_rng([18, trial]))
            cfg = PowerIterConfig(max_iter=50000, tol=1e-6, aitken_trigger=1e-3, seed=0)
            lam, v, tr = dcam_pm(q, v0, cfg)
            assert tr.converged
            assert pair_residual(q, lam, v) <= 1e-6
            assert tr.residuals[-1] <= cfg.tol

    def test_known_spectrum_dominant(self):
        sigma = (DualNumber(-3.0, 2.0), DualNumber(1.5, 0.0), DualNumber(0.2, 1.0))
        q, _ = synth_known_spectrum(3, sigma, 19)
        v0 = random_unit_vector(3, np.random.default_rng(20))
        lam, v, tr = dcam_pm(q, v0, CFG)
        assert tr.converged
        # dominant by |standard part| is -3+2eps
        assert abs(lam.st + 3.0) <= 1e-6 and abs(lam.du - 2.0) <= 1e-6

    def test_monotone_residual_tail(self):
        q = random_hermitian(8, np.random.default_rng(21))
        v0 = random_unit_vector(8, np.random.default_rng(22))
        _, _, tr = power_method_baseline(q, v0, CFG)
        assert tr.converged
        tail = tr.residuals[-10:]
        for a, b in zip(tail, tail[1:]):
            assert b <= 1.1 * a


class TestAitken:
    def test_exact_on_geometric_sequence(self):
        for q in (0.3, 0.5, 0.9):
            xs = [DualNumber(5 + 3 * q**k, -2 + 0.5 * q**k) for k in (7, 8, 9)]
            y = aitken_extrapolate(*xs)
            assert abs(y.st - 5.0) <= 1e-12
            assert abs(y.du + 2.0) <= 1e-12

    def test_constant_sequence_passthrough(self):
        x = DualNumber(4.0, 2.0)
        y = aitken_extrapolate(x, x, x)
        assert y == x

    def test_mixed_rate_improves(self):
        def seq(k):
            return 2.0 + 0.9**k + 0.1 * 0.5**k

        k = 20
        y = aitken_extrapolate(
            DualNumber(seq(k)), DualNumber(seq(k + 1)), DualNumber(seq(k + 2))
        )
        assert abs(y.st - 2.0) < abs(seq(k) - 2.0)

    def test_vector_kinds(self):
        base = np.array([1.0, -2.0]) + 1j * np.array([0.5, 0.25])
        lim = np.array([3.0, 1.0]) + 0j

        def v(k):
            return lim + base * 0.5**k, (lim + base * 0.5**k) * 0.5

        st, du = aitken_extrapolate(v(4), v(5), v(6))
        assert np.abs(st - lim).max() <= 1e-12
        assert np.abs(du - lim * 0.5).max() <= 1e-12

        def w(k):
            arr = lim + base * 0.3**k
            return DualQuaternionVector(arr, arr, arr, arr)

        z = aitken_extrapolate(w(4), w(5), w(6))
        for comp in (z.v1, z.v2, z.v3, z.v4):
            assert np.abs(comp - lim).max() <= 1e-12


class TestAdcam:
    def test_agrees_with_dcam_on_diagonal(self):
        q, v0 = diag_start()
        lam_d, _, _ = dcam_pm(q, v0, CFG)
        lam_a, v, tr = adcam_pm(q, v0, CFG)
        assert tr.converged
        assert abs(lam_a.st - lam_d.st) <= 1e-6
        assert pair_residual(q, lam_a, v) <= 1e-5

    def test_fewer_iterations_on_tight_ratio(self):
        # two-eigenvalue spectra with ratio 0.95: acceleration wins usually
        wins = 0
        for trial in range(20):
            sigma = (DualNumber(2.0, 0.5), DualNumber(1.9, -0.4))
            q, _ = synth_known_spectrum(2, sigma, [23, trial])
            v0 = random_unit_vector(2, np.random.default_rng([24, trial]))
            cfg = PowerIterConfig(max_iter=100000, tol=1e-6, aitken_trigger=1e-3, seed=0)
            _, _, tr_d = dcam_pm(q, v0, cfg)
            _, _, tr_a = adcam_pm(q, v0, cfg)
            assert tr_d.converged and tr_a.converged
            if tr_a.iterations < tr_d.iterations:
                wins += 1
        assert wins >= 16

    def test_negative_dominant_eigenvalue(self):
        # sign-alternating iterates must still extrapolate to the eigenvector
        sigma = (DualNumber(-2.0, 1.0), DualNumber(1.8, 0.3), DualNumber(0.1, 0.0))
        q, _ = synth_known_spectrum(3, sigma, 25)
        v0 = random_unit_vector(3, np.random.default_rng(26))
        cfg = PowerIterConfig(max_iter=100000, tol=1e-6, aitken_trigger=1e-3, seed=0)
        lam, v, tr = adcam_pm(q, v0, cfg)
        assert tr.converged
        assert abs(lam.st + 2.0) <= 1e-6 and abs(lam.du - 1.0) <= 1e-6
        assert pair_residual(q, lam, v) <= 2e-6

    def test_trace_final_record_is_extrapolated_pair(self):
        q, v0 = diag_start()
        _, _, tr = adcam_pm(q, v0, CFG)
        assert tr.converged
        assert tr.residuals[-1] <= CFG.tol


class TestDeflationDrivers:
    def test_dcama_diagonal(self):
        q = dq_diag([DualNumber(3, 1), DualNumber(2, 0), DualNumber(1, 2)])
        res = dcama_pm(q, CFG)
        got = [(round(l.st, 6), round(l.du, 6)) for l, _ in res.pairs]
        assert got == [(3.0, 1.0), (2.0, 0.0), (1.0, 2.0)]
        assert res.residual <= 1e-6

    def test_dcama_known_spectrum(self):
        sigma = (DualNumber(3.0, -1.0), DualNumber(1.0, 0.5), DualNumber(-2.0, 2.0))
        q, _ = synth_known_spectrum(3, sigma, 27)
        cfg = PowerIterConfig(max_iter=100000, tol=1e-10, aitken_trigger=1e-3, seed=3)
        res = dcama_pm(q, cfg)
        got = sorted([(l.st, l.du) for l, _ in res.pairs], reverse=True)
        want = sorted([(s.st, s.du) for s in sigma], reverse=True)
        assert np.allclose(got, want, atol=1e-8)

    def test_dcama_pentagon_fails_with_partial(self):
        with pytest.raises(InnerNoConvergence) as exc:
            dcama_pm(pentagon_fixture(), CFG)
        partial = exc.value.partial
        assert exc.value.pair_index == 2
        assert len(partial.pairs) == 1
        lam = partial.pairs[0][0]
        assert abs(lam.st - 2.0) <= 1e-4 and abs(lam.du - 3.0) <= 1e-4

    def test_pm_spectrum_pentagon_fails_with_partial(self):
        with pytest.raises(InnerNoConvergence) as exc:
            power_method_spectrum(pentagon_fixture(), CFG)
        assert exc.value.pair_index == 2
        assert len(exc.value.partial.pairs) == 1

    def test_pm_spectrum_diagonal(self):
        q = dq_diag([DualNumber(3, 1), DualNumber(2, 0), DualNumber(1, 2)])
        res = power_method_spectrum(q, CFG)
        got = [(round(l.st, 6), round(l.du, 6)) for l, _ in res.pairs]
        assert got == [(3.0, 1.0), (2.0, 0.0), (1.0, 2.0)]

    def test_zero_matrix_yields_no_pairs(self):
        from dqeig.matrices import DualQuaternionMatrix

        res = dcama_pm(zeros(3, 3), CFG)
        assert res.pairs == () and res.residual == 0.0


def test_deflation_identity():
    # adjoint of a rank-one update equals the update by both F- and H-images
    rng = np.random.default_rng(28)
    for trial in range(50):
        sts = np.sort(rng.uniform(-2, 2, 4))[::-1]
        if np.min(-np.diff(sts)) < 0.1:
            continue
        sigma = tuple(DualNumber(float(s), float(d)) for s, d in zip(sts, rng.uniform(-1, 1, 4)))
        q, _ = synth_known_spectrum(4, sigma, [29, trial])
        from dqeig.dual_eig import eddcam_ea

        res = eddcam_ea(q)
        lam, vecs = res.pairs[0]
        v = vecs[0]
        lhs = adjoint(q - outer(v, v) * lam)
        u = vec_map_f(v._parts)
        h = vec_map_h(u)
        rhs = adjoint(q) - _scale_dual(dc_outer(u, u), lam.st, lam.du)
        rhs = rhs - _scale_dual(dc_outer(h, h), lam.st, lam.du)
        assert max_abs_diff(lhs, rhs) <= 1e-11


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iter": 0},
        {"tol": 0.0},
        {"tol": 1e-3, "aitken_trigger": 1e-6},
        {"seed": -1},
        {"tol": float("inf")},
        {"tol": float("nan")},
        {"tol": float("inf"), "aitken_trigger": float("inf")},
        {"aitken_trigger": float("nan")},
        {"aitken_trigger": float("inf")},
        {"max_iter": 2.5},
        {"max_iter": 100.0},
        {"seed": 1.5},
    ],
    ids=["max-iter-0", "tol-0", "trigger-below-tol", "seed-negative", "tol-inf", "tol-nan",
         "both-inf", "trigger-nan", "trigger-inf", "max-iter-2.5", "max-iter-float", "seed-1.5"],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        PowerIterConfig(**kwargs)


def test_config_takes_numpy_integers():
    cfg = PowerIterConfig(max_iter=np.int64(7), seed=np.int64(3))
    assert (cfg.max_iter, cfg.seed) == (7, 3)
