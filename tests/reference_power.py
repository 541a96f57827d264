"""Object-based power loops: the reference the array-native core is checked against.

Each step runs on the immutable DualQuaternionVector / DualComplexVector
objects, so every operation goes through the public object API, one loop
per solver. tests/test_power_core.py requires dqeig.power to give the same
iterations, convergence flags and per-step traces.
"""

import math
from collections import deque

import numpy as np

from dqeig.adjoint import adjoint, vec_map_f, vec_map_f_inverse, vec_map_h
from dqeig.errors import InnerNoConvergence
from dqeig.matrices import DualComplexVector, DualQuaternionVector, random_unit_vector
from dqeig.power import AITKEN_GUARD, IterTrace, _aitken_complex, _aitken_real, _spectrum_result
from dqeig.scalars import DualNumber


def aitken_extrapolate(x0, x1, x2, guard=AITKEN_GUARD):
    """Aitken delta-squared step from three consecutive DualNumber,
    DualComplexVector or DualQuaternionVector iterates, part by part, with
    the array kernels of dqeig.power: a component whose second difference
    falls below guard * max(1, |x|) passes through unextrapolated."""
    if isinstance(x0, DualNumber):
        return DualNumber(
            float(_aitken_real(x0.st, x1.st, x2.st, guard)),
            float(_aitken_real(x0.du, x1.du, x2.du, guard)),
        )
    if isinstance(x0, (DualComplexVector, DualQuaternionVector)):
        parts = (_aitken_complex(*p, guard) for p in zip(x0._parts, x1._parts, x2._parts))
        return type(x0)(*parts)
    raise TypeError(f"cannot extrapolate {type(x0).__name__}")


def _cast_complex(lam):
    return DualNumber(lam.st.real, lam.du.real), max(abs(lam.st.imag), abs(lam.du.imag))


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
        lam, dropped = _cast_quaternion(v.dot(y))
        res = (y - v.scale_right(lam)).norm_2r()
        trace.record(lam, res, dropped)
        v = y.unit()
        if res <= cfg.tol:
            trace.converged = True
            trace.iterations = k
            return lam, v, trace
    trace.iterations = cfg.max_iter
    return lam, v, trace


def adjoint_power(p, u0, cfg):
    u = u0.unit()
    trace = IterTrace()
    lam = DualNumber()
    for k in range(1, cfg.max_iter + 1):
        y = p @ u
        lam, dropped = _cast_complex(u.dot(y))
        res = (y - u.scale(lam)).norm_2r()
        trace.record(lam, res, dropped)
        u = y.unit()
        if res <= cfg.tol:
            trace.converged = True
            trace.iterations = k
            return lam, u, trace
    trace.iterations = cfg.max_iter
    return lam, u, trace


def dcam_pm(q, v0, cfg):
    lam, u, trace = adjoint_power(adjoint(q), vec_map_f(v0), cfg)
    return lam, vec_map_f_inverse(u), trace


def adcam_pm(q, v0, cfg):
    p = adjoint(q)
    u = vec_map_f(v0).unit()
    trace = IterTrace()
    hist = deque(maxlen=3)
    lam = DualNumber()
    for k in range(1, cfg.max_iter + 1):
        y = p @ u
        lam, dropped = _cast_complex(u.dot(y))
        res = (y - u.scale(lam)).norm_2r()
        trace.record(lam, res, dropped)
        u = y.unit()
        hist.append((u, lam))
        if res <= cfg.aitken_trigger and len(hist) == 3:
            (ua, la), (ub, lb), (uc, lc) = hist
            sign = 1.0 if lam.st >= 0.0 else -1.0
            w = aitken_extrapolate(ua, ub * sign, uc)
            kappa = aitken_extrapolate(la, lb, lc)
            if math.sqrt(float(np.sum(np.abs(w.st) ** 2))) >= 0.5:
                res_w = (p @ w - w.scale(kappa)).norm_2r()
                if res_w <= cfg.tol:
                    trace.record(kappa, res_w, 0.0)
                    trace.converged = True
                    trace.iterations = k
                    return kappa, vec_map_f_inverse(w.unit()), trace
    trace.iterations = cfg.max_iter
    return lam, vec_map_f_inverse(u), trace


def dcama_pm(q, cfg, deflate_tol=None):
    n = q.rows
    p = adjoint(q)
    if deflate_tol is None:
        deflate_tol = 1e-8 * max(1.0, p.norm_fr())
    found = []
    iterations = 0
    for k in range(1, n + 1):
        if p.norm_fr() <= deflate_tol:
            break
        rng = np.random.default_rng([cfg.seed, k])
        u0 = vec_map_f(random_unit_vector(n, rng))
        lam, u, tr = adjoint_power(p, u0, cfg)
        iterations += tr.iterations
        if not tr.converged:
            raise InnerNoConvergence(
                f"inner power loop {k} failed to converge in {cfg.max_iter} iterations",
                partial=_spectrum_result(q, found, iterations),
                pair_index=k,
            )
        found.append((lam, vec_map_f_inverse(u)))
        partner = vec_map_h(u)
        p = p - u.outer(u) * lam - partner.outer(partner) * lam
    return _spectrum_result(q, found, iterations)


def power_method_spectrum(q, cfg, deflate_tol=None):
    n = q.rows
    if deflate_tol is None:
        deflate_tol = 1e-8 * max(1.0, q.norm_fr())
    work = q
    found = []
    iterations = 0
    for k in range(1, n + 1):
        if work.norm_fr() <= deflate_tol:
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
        work = work - v.outer(v) * lam
    return _spectrum_result(q, found, iterations)
