"""Step-by-step power loops: the reference the array-native core is checked against.

The dual quaternion loops run every step on the immutable
DualQuaternionVector objects, through the public object API. The adjoint
loops run every step on (st, du) pairs of arrays, one kernel per operation:
the product _dc_mul, the dot as two np.vdot, the residual norm part by part
and the normalization _unit. There is one loop per solver.
tests/test_power_core.py requires dqeig.power to give the same iterations,
convergence flags and per-step traces.
"""

import math
from collections import deque

import numpy as np

from dqeig.adjoint import adjoint, vec_map_f, vec_map_f_inverse, vec_map_h
from dqeig.errors import InnerNoConvergence
from dqeig.matrices import (
    DualQuaternionVector,
    _dc_mul,
    _norm_2r,
    _scale_dual,
    _unit,
    random_unit_vector,
)
from dqeig.power import AITKEN_GUARD, IterTrace, _aitken_complex, _aitken_real, _spectrum_result
from dqeig.scalars import DualNumber
from tests.dq import dot, norm_2r, outer, scale_right
from tests.test_adjoint import dc_dot, dc_outer


def aitken_extrapolate(x0, x1, x2, guard=AITKEN_GUARD):
    """Aitken delta-squared step from three consecutive DualNumber,
    DualQuaternionVector or (st, du) iterates, part by part, with the array
    kernels of dqeig.power: a component whose second difference falls below
    guard * max(1, |x|) passes through unextrapolated."""
    if isinstance(x0, DualNumber):
        return DualNumber(
            float(_aitken_real(x0.st, x1.st, x2.st, guard)),
            float(_aitken_real(x0.du, x1.du, x2.du, guard)),
        )
    if isinstance(x0, DualQuaternionVector):
        parts = (_aitken_complex(*p, guard) for p in zip(x0._parts, x1._parts, x2._parts))
        return DualQuaternionVector(*parts)
    if len(x0) == 2:
        return np.stack([_aitken_complex(*p, guard) for p in zip(x0, x1, x2)])
    raise TypeError(f"cannot extrapolate {type(x0).__name__}")


def _cast_complex(lam):
    st, du = lam
    return DualNumber(st.real, du.real), max(abs(st.imag), abs(du.imag))


def _cast_quaternion(lam):
    dropped = max(
        abs(lam.st.x), abs(lam.st.y), abs(lam.st.z),
        abs(lam.du.x), abs(lam.du.y), abs(lam.du.z),
    )
    return DualNumber(lam.st.w, lam.du.w), dropped


def power_method_baseline(q, v0, cfg):
    v = v0.unit()
    trace = IterTrace()
    lam = DualNumber()
    for k in range(1, cfg.max_iter + 1):
        y = q @ v
        lam, dropped = _cast_quaternion(dot(v, y))
        res = norm_2r(y - scale_right(v, lam))
        trace.record(lam, res, dropped)
        v = y.unit()
        if res <= cfg.tol:
            trace.converged = True
            trace.iterations = k
            return lam, v, trace
    trace.iterations = cfg.max_iter
    return lam, v, trace


def adjoint_power(p, u0, cfg):
    u = _unit(np.stack(u0))
    trace = IterTrace()
    lam = DualNumber()
    for k in range(1, cfg.max_iter + 1):
        y = _dc_mul(p, u)
        lam, dropped = _cast_complex(dc_dot(u, y))
        res = float(_norm_2r(y - _scale_dual(u, lam.st, lam.du)))
        trace.record(lam, res, dropped)
        u = _unit(y)
        if res <= cfg.tol:
            trace.converged = True
            trace.iterations = k
            return lam, u, trace
    trace.iterations = cfg.max_iter
    return lam, u, trace


def dcam_pm(q, v0, cfg):
    lam, u, trace = adjoint_power(adjoint(q), vec_map_f(v0._parts), cfg)
    return lam, DualQuaternionVector(*vec_map_f_inverse(u)), trace


def adcam_pm(q, v0, cfg):
    p = adjoint(q)
    u = _unit(np.stack(vec_map_f(v0._parts)))
    trace = IterTrace()
    hist = deque(maxlen=3)
    lam = DualNumber()
    for k in range(1, cfg.max_iter + 1):
        y = _dc_mul(p, u)
        lam, dropped = _cast_complex(dc_dot(u, y))
        res = float(_norm_2r(y - _scale_dual(u, lam.st, lam.du)))
        trace.record(lam, res, dropped)
        u = _unit(y)
        hist.append((u, lam))
        if res <= cfg.aitken_trigger and len(hist) == 3:
            (ua, la), (ub, lb), (uc, lc) = hist
            sign = 1.0 if lam.st >= 0.0 else -1.0
            w = aitken_extrapolate(ua, ub * sign, uc)
            kappa = aitken_extrapolate(la, lb, lc)
            if math.sqrt(float(np.sum(np.abs(w[0]) ** 2))) >= 0.5:
                res_w = float(_norm_2r(_dc_mul(p, w) - _scale_dual(w, kappa.st, kappa.du)))
                if res_w <= cfg.tol:
                    trace.record(kappa, res_w, 0.0)
                    trace.converged = True
                    trace.iterations = k
                    return kappa, DualQuaternionVector(*vec_map_f_inverse(_unit(w))), trace
    trace.iterations = cfg.max_iter
    return lam, DualQuaternionVector(*vec_map_f_inverse(u)), trace


def dcama_pm(q, cfg, deflate_tol=None):
    n = q.rows
    p = adjoint(q)
    if deflate_tol is None:
        deflate_tol = 1e-8 * max(1.0, float(_norm_2r(p)))
    found = []
    iterations = 0
    for k in range(1, n + 1):
        if float(_norm_2r(p)) <= deflate_tol:
            break
        rng = np.random.default_rng([cfg.seed, k])
        u0 = vec_map_f(random_unit_vector(n, rng)._parts)
        lam, u, tr = adjoint_power(p, u0, cfg)
        iterations += tr.iterations
        if not tr.converged:
            raise InnerNoConvergence(
                f"inner power loop {k} failed to converge in {cfg.max_iter} iterations",
                partial=_spectrum_result(q, found, iterations),
                pair_index=k,
            )
        found.append((lam, DualQuaternionVector(*vec_map_f_inverse(u))))
        partner = vec_map_h(u)
        p = p - _scale_dual(dc_outer(u, u), lam.st, lam.du)
        p = p - _scale_dual(dc_outer(partner, partner), lam.st, lam.du)
    return _spectrum_result(q, found, iterations)


def power_method_spectrum(q, cfg, deflate_tol=None):
    n = q.rows
    if deflate_tol is None:
        deflate_tol = 1e-8 * max(1.0, norm_2r(q))
    work = q
    found = []
    iterations = 0
    for k in range(1, n + 1):
        if norm_2r(work) <= deflate_tol:
            break
        rng = np.random.default_rng([cfg.seed, k])
        v0 = random_unit_vector(n, rng)
        lam, v, tr = power_method_baseline(work, v0, cfg)
        iterations += tr.iterations
        if not tr.converged:
            raise InnerNoConvergence(
                f"inner power loop {k} failed to converge in {cfg.max_iter} iterations",
                partial=_spectrum_result(q, found, iterations),
                pair_index=k,
            )
        found.append((lam, v))
        work = work - outer(v, v) * lam
    return _spectrum_result(q, found, iterations)
