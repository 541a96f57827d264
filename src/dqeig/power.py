"""Iterative eigensolvers.

Every solver runs one power-iteration skeleton, _power, on one complex array
per iterate: the parts of the vector stacked as the rows of a (2h, n) array,
the standard part in the first h rows. The skeleton normalizes with the
matrices kernel _unit, two BLAS dots and one dual scaling, and measures the
residual |y - x(st + du eps)| with _residual, one BLAS dot; both serve
either algebra through that layout. The matvec and the Rayleigh quotient
come from one of two per-algebra tables:

- _Quaternion iterates on the rows v1..v4 (h = 2), the complex-pair
  components of a dual quaternion vector, with the dual quaternion product
  _dq_matvec of the matrices module on the matrix stacked once by _dq_stack.
  This is plain dual quaternion arithmetic, the cost baseline of
  power_method_baseline and power_method_spectrum.
- _Adjoint iterates on the rows st, du (h = 1) of a dual complex vector
  against the (st, du) arrays of the adjoint matrix, built once by
  adjoint(). dcam_pm, adcam_pm and dcama_pm run on it; adcam_pm adds the
  Aitken step, which extrapolates the last three eigenvalue and eigenvector
  iterates once the raw residual passes a trigger threshold.

One deflation driver, _deflate, extracts all eigenpairs with either table:
power_method_spectrum subtracts lam v v^* from Q, dcama_pm subtracts
lam (u u^* + Hu Hu^*) from the adjoint; both deflate on arrays. A dual
quaternion vector object is read on entry to each power loop and built on
exit from it, around the stack of parts the loop iterates on. The
single-pair solvers have the loop record every step as packed floats and
build their IterTrace from them after the loop; the deflation driver, which
reads only the iteration count and the convergence flag, records nothing.

All solvers stop when the residual |y - u*lam| in the 2R norm drops to the
configured tolerance; hitting the iteration cap is reported through the
trace, never raised, except inside deflation where a failed inner loop
aborts the sweep with the pairs found so far attached.
"""

import math
import numbers
from array import array
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .adjoint import adjoint, vec_map_f, vec_map_f_inverse, vec_map_h
from .dual_eig import EigenResult
from .errors import InnerNoConvergence
from .matrices import (
    DualQuaternionMatrix,
    DualQuaternionVector,
    _dc_mul,
    _dq_matvec,
    _dq_stack,
    _eig_residual,
    _norm_2r,
    _scale_dual,
    _unit,
    random_unit_vector,
)
from .scalars import DualNumber

__all__ = [
    "PowerIterConfig",
    "IterTrace",
    "power_method_baseline",
    "dcam_pm",
    "adcam_pm",
    "dcama_pm",
    "power_method_spectrum",
    "pair_residual",
]

IMAG_DROP_TOL = 1e-10
AITKEN_GUARD = 1e-14
# a deflation sweep stops once the deflated matrix's 2R norm is at most
# DEFLATE_TOL * max(1, its initial norm)
DEFLATE_TOL = 1e-8


@dataclass(frozen=True)
class PowerIterConfig:
    """Iteration budget and tolerances shared by all iterative solvers."""

    max_iter: int = 5000
    tol: float = 1e-6
    aitken_trigger: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be finite and positive")
        if not math.isfinite(self.aitken_trigger):
            raise ValueError("aitken_trigger must be finite")
        if self.aitken_trigger < self.tol:
            raise ValueError("aitken_trigger must be at least tol")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class IterTrace:
    """Per-iteration eigenvalue estimates and residuals.

    For the Aitken-accelerated solver the final record on convergence is the
    extrapolated pair. dropped_imag tracks the largest imaginary residue
    discarded when casting Rayleigh quotients to dual numbers; imag_flag is
    set when that residue was above the 1e-10 diagnostic threshold.
    """

    eigenvalues: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    dropped_imag: float = 0.0
    imag_flag: bool = False

    def record(self, lam: DualNumber, residual: float, dropped: float):
        self.eigenvalues.append(lam)
        self.residuals.append(residual)
        self.dropped_imag = max(self.dropped_imag, dropped)
        if dropped > IMAG_DROP_TOL * max(1.0, abs(lam.st), abs(lam.du)):
            self.imag_flag = True


def pair_residual(q: DualQuaternionMatrix, lam: DualNumber, v: DualQuaternionVector) -> float:
    """|Q v - v lam| in the 2R norm."""
    return float(_eig_residual(q._parts, v._parts, lam.st, lam.du))


# -- per-algebra tables ---------------------------------------------------------
#
# The adjoint matvec and the normalization are the matrices kernels _dc_mul
# and _unit, so the adjoint iterates match any other use of those kernels bit
# for bit: the Aitken step amplifies ulp-level differences in its three
# iterates by about 1/(1 - r)^2 for a convergence ratio r. On the stacked
# layout _unit takes the dual norm from two BLAS dots over the flattened
# standard and dual halves, the same two dots the normalization of a
# DualQuaternionVector takes. The Rayleigh quotient and the residual feed no
# iterate of the loop; the residual is one BLAS dot of the whole stacked
# difference with itself. The dual quaternion table has no Aitken step, so
# it multiplies its four rows as one batch on its matrix stacked once by
# _dq_stack and takes its Rayleigh quotient from one 4 x 4 Gram product,
# which changes only the summation order.


def _residual(x, y, st, du) -> float:
    """|y - x (st + du eps)| in the 2R norm, one BLAS dot over all rows."""
    h = len(x) // 2
    r = y - x * st
    r[h:] -= x[:h] * du
    r = r.ravel()
    return math.sqrt(np.vdot(r, r).real)


class _Quaternion:
    """Dual quaternion arithmetic on the rows v1, v2, v3, v4 of x: entry i of
    the vector is (v1 + v2 j) + (v3 + v4 j) eps, as in DualQuaternionVector,
    against the matrix Q held as its stack of parts."""

    def __init__(self, parts):
        self.parts = parts
        self.a = _dq_stack(parts)

    @staticmethod
    def enter(v: DualQuaternionVector):
        return v._parts

    @staticmethod
    def leave(x) -> DualQuaternionVector:
        return DualQuaternionVector._of(x)

    def matvec(self, x):
        return _dq_matvec(self.a, x)

    @staticmethod
    def rayleigh(x, y):
        """Real parts (st, du) of x^* y and the largest dropped component."""
        # g[i][k] = <x_i, y_k>; with x = (v1 + v2 j) + (v3 + v4 j) eps,
        # x^* y = (s1 + s2 j) + (d1 + d2 j) eps
        (g00, g01, g02, g03), (g10, g11, g12, g13), (g20, g21, _, _), (g30, g31, _, _) = (
            np.conj(x) @ y.T
        ).tolist()
        s1 = g00 + g11.conjugate()
        s2 = g01 - g10.conjugate()
        d1 = (g02 + g13.conjugate()) + (g20 + g31.conjugate())
        d2 = (g03 - g12.conjugate()) + (g21 - g30.conjugate())
        dropped = max(
            abs(s1.imag), abs(s2.real), abs(s2.imag),
            abs(d1.imag), abs(d2.real), abs(d2.imag),
        )
        return s1.real, d1.real, dropped

    def deflated(self, x, lam: DualNumber) -> "_Quaternion":
        """Q - lam v v^* for the vector v with rows x; with v = s + d eps,
        v v^* = s s^* + (s d^* + d s^*) eps, and for quaternion parts
        (x1 + x2 j)(y1 + y2 j)^* = (x1 y1^* + x2 y2^*) + (x2 y1^T - x1 y2^T) j."""

        def outer(x1, x2, y1, y2):
            return (np.outer(x1, np.conj(y1)) + np.outer(x2, np.conj(y2)),
                    -np.outer(x1, y2) + np.outer(x2, y1))

        s1, s2 = outer(x[0], x[1], x[0], x[1])
        da1, da2 = outer(x[0], x[1], x[2], x[3])
        db1, db2 = outer(x[2], x[3], x[0], x[1])
        vv = np.stack((s1, s2, da1 + db1, da2 + db2))
        return _Quaternion(self.parts - _scale_dual(vv, lam.st, lam.du))


class _Adjoint:
    """Dual complex arithmetic on the rows st, du of x, the parts of a vector
    of length 2n, against the 2n x 2n adjoint matrix P = P1 + P2 eps, held
    as the pair parts = (P1, P2)."""

    def __init__(self, p):
        self.parts = p

    @staticmethod
    def enter(v: DualQuaternionVector):
        return np.stack(vec_map_f(v._parts))

    @staticmethod
    def leave(x) -> DualQuaternionVector:
        return DualQuaternionVector._of(vec_map_f_inverse(x))

    def matvec(self, x):
        return _dc_mul(self.parts, x)

    @staticmethod
    def rayleigh(x, y):
        """Real parts (st, du) of x^* y and the larger dropped imaginary part."""
        x0, y0 = x[0], y[0]
        s = complex(np.vdot(x0, y0))
        d = complex(np.vdot(x0, y[1])) + complex(np.vdot(x[1], y0))
        return s.real, d.real, max(abs(s.imag), abs(d.imag))

    def deflated(self, x, lam: DualNumber) -> "_Adjoint":
        """(P - lam u u^*) - lam Hu Hu^*, which removes both adjoint copies of
        lam; w w^* = (st st^*, st du^* + du st^*) for w = (st, du)."""
        p = self.parts
        for st, du in (x, vec_map_h(x)):
            ww = np.outer(st, np.conj(st)), np.outer(st, np.conj(du)) + np.outer(du, np.conj(st))
            p = p - _scale_dual(ww, lam.st, lam.du)
        return _Adjoint(p)


# -- the loop -------------------------------------------------------------------


def _aitken_real(x0, x1, x2, guard):
    x0 = np.asarray(x0, dtype=float)
    den = np.asarray(x2, dtype=float) + x0 - 2.0 * np.asarray(x1, dtype=float)
    ok = np.abs(den) >= guard * np.maximum(1.0, np.abs(x0))
    safe = np.where(ok, den, 1.0)
    return np.where(ok, x0 - (np.asarray(x1) - x0) ** 2 / safe, x0)


def _aitken_complex(a0, a1, a2, guard):
    # real and imaginary parts extrapolate independently, as interleaved reals
    parts = (a.view(np.float64) for a in (a0, a1, a2))
    return _aitken_real(*parts, guard).view(np.complex128)


def _aitken_step(alg, hist, tol):
    """Extrapolated (st, du, w, residual) from the last three iterates, or
    None when the extrapolated pair collapses or misses tol. A negative
    dominant eigenvalue makes the iterates alternate sign, so the middle one
    is sign-aligned first."""
    (xa, sa, da), (xb, sb, db), (xc, sc, dc) = hist
    sign = 1.0 if sc >= 0.0 else -1.0
    w = _aitken_complex(xa, xb * sign, xc, AITKEN_GUARD)
    st, du = _aitken_real((sa, da), (sb, db), (sc, dc), AITKEN_GUARD).tolist()
    # cancellation collapse would shrink the standard part toward 0
    if _norm_2r(w[: len(w) // 2]) < 0.5:
        return None
    res_w = _residual(w, alg.matvec(w), st, du)
    return (st, du, w, res_w) if res_w <= tol else None


def _power(alg, x, cfg: PowerIterConfig, aitken: bool = False, steps=None):
    """Power iteration from x in alg's arithmetic; returns
    (st, du, x, iterations, converged). Given an array("d") steps, appends
    the st, du, residual and dropped part of every iteration to it.

    Without Aitken the loop stops once the raw residual meets cfg.tol and
    returns the last estimate with the normalized last image. With Aitken it
    stops only on an extrapolated pair that meets cfg.tol, tried each step
    once the raw residual reaches cfg.aitken_trigger; that exit returns the
    extrapolated pair and appends it to steps as one extra step.
    """
    x = _unit(x)
    hist = deque(maxlen=3)
    for k in range(1, cfg.max_iter + 1):
        y = alg.matvec(x)
        st, du, dropped = alg.rayleigh(x, y)
        res = _residual(x, y, st, du)
        if steps is not None:
            steps.extend((st, du, res, dropped))
        x = _unit(y)
        if aitken:
            hist.append((x, st, du))
            if res <= cfg.aitken_trigger and len(hist) == 3:
                step = _aitken_step(alg, hist, cfg.tol)
                if step is not None:
                    st, du, w, res_w = step
                    if steps is not None:
                        steps.extend((st, du, res_w, 0.0))
                    return st, du, _unit(w), k, True
        elif res <= cfg.tol:
            return st, du, x, k, True
    return st, du, x, cfg.max_iter, False


def _dominant(alg, v0: DualQuaternionVector, cfg: PowerIterConfig, aitken: bool = False):
    """(lam, v, trace) of _power from v0, with the trace built from its steps;
    the steps are kept as packed doubles, 32 bytes per iteration."""
    steps = array("d")
    _, _, x, iterations, converged = _power(alg, alg.enter(v0), cfg, aitken, steps)
    trace = IterTrace(converged=converged, iterations=iterations)
    for i in range(0, len(steps), 4):
        st, du, res, dropped = steps[i : i + 4]
        trace.record(DualNumber(st, du), res, dropped)
    return trace.eigenvalues[-1], alg.leave(x), trace


def power_method_baseline(
    q: DualQuaternionMatrix, v0: DualQuaternionVector, cfg: PowerIterConfig
):
    """Dominant eigenpair by power iteration in dual quaternion arithmetic.

    Expects Hermitian q and a unit start vector. Non-convergence within the
    iteration cap is reported in the trace, not raised.
    """
    return _dominant(_Quaternion(q._parts), v0, cfg)


def dcam_pm(q: DualQuaternionMatrix, v0: DualQuaternionVector, cfg: PowerIterConfig):
    """Dominant eigenpair via power iteration on the adjoint matrix."""
    return _dominant(_Adjoint(adjoint(q)), v0, cfg)


def adcam_pm(q: DualQuaternionMatrix, v0: DualQuaternionVector, cfg: PowerIterConfig):
    """Adjoint power iteration with Aitken acceleration.

    Runs the dcam_pm loop; once the raw residual reaches cfg.aitken_trigger,
    each iteration extrapolates the last three eigenvalue and eigenvector
    iterates and stops as soon as the extrapolated pair meets cfg.tol.
    When the dominant eigenvalue is negative the iterate sequence alternates
    sign, so the history is sign-aligned before extrapolating.
    """
    return _dominant(_Adjoint(adjoint(q)), v0, cfg, aitken=True)


# -- deflation ------------------------------------------------------------------


def _spectrum_result(q, found, iterations):
    ordered = sorted(found, key=lambda t: (t[0].st, t[0].du), reverse=True)
    pairs = tuple((lam, (v,)) for lam, v in ordered)
    if not pairs:
        return EigenResult(pairs, 0.0, iterations)
    # e_lambda from one residual product over the vectors as columns
    x = np.stack([v._parts for _, v in ordered], axis=-1)
    st, du = np.array([(lam.st, lam.du) for lam, _ in ordered]).T
    residual = float(np.mean(_eig_residual(q._parts, x, st, du, axis=0)))
    return EigenResult(pairs, residual, iterations)


def _deflate(q: DualQuaternionMatrix, alg, cfg: PowerIterConfig) -> EigenResult:
    """All eigenpairs by repeated dominant extraction and deflation of
    the matrix alg.parts; each inner loop restarts from the seeded random
    vector of its pair index."""
    n = q.rows
    deflate_tol = DEFLATE_TOL * max(1.0, float(_norm_2r(alg.parts)))
    found = []
    iterations = 0
    for k in range(1, n + 1):
        if float(_norm_2r(alg.parts)) <= deflate_tol:
            break
        rng = np.random.default_rng([cfg.seed, k])
        st, du, x, k_iter, converged = _power(alg, alg.enter(random_unit_vector(n, rng)), cfg)
        iterations += k_iter
        if not converged:
            raise InnerNoConvergence(
                f"inner power loop {k} failed to converge in {cfg.max_iter} iterations",
                partial=_spectrum_result(q, found, iterations),
                pair_index=k,
            )
        lam = DualNumber(st, du)
        found.append((lam, alg.leave(x)))
        alg = alg.deflated(x, lam)
    return _spectrum_result(q, found, iterations)


def dcama_pm(q: DualQuaternionMatrix, cfg: PowerIterConfig) -> EigenResult:
    """All eigenpairs by repeated dominant extraction on the adjoint matrix.

    After each extraction the adjoint is deflated with both the eigenvector
    and its H-partner, which removes the full doubled multiplicity of that
    eigenvalue. Stops after n pairs or when the deflated matrix drains to
    DEFLATE_TOL * max(1, initial norm). Each inner loop restarts from a
    fresh seeded random vector. A non-converging inner loop raises
    InnerNoConvergence with the partial result attached.
    """
    return _deflate(q, _Adjoint(adjoint(q)), cfg)


def power_method_spectrum(q: DualQuaternionMatrix, cfg: PowerIterConfig) -> EigenResult:
    """All eigenpairs by deflation in plain dual quaternion arithmetic.

    The reference full-spectrum driver: extract the dominant pair by power
    iteration in dual quaternion arithmetic, subtract lam * v v^*, repeat.
    Same stopping and failure contract as dcama_pm.
    """
    return _deflate(q, _Quaternion(q._parts), cfg)
