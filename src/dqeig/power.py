"""Iterative eigensolvers.

Every solver runs one power-iteration skeleton, _power, on raw complex
ndarrays. It takes its arithmetic (matvec, Rayleigh quotient, residual and
dual normalization) from one of two per-algebra tables:

- _Quaternion iterates on the complex-pair components of a dual quaternion
  vector with the products DualQuaternionMatrix uses. This is plain dual
  quaternion arithmetic, the cost baseline of power_method_baseline and
  power_method_spectrum.
- _Adjoint iterates on the parts of a dual complex vector against the
  adjoint matrix, built once by adjoint(). dcam_pm, adcam_pm and dcama_pm
  run on it; adcam_pm adds the Aitken step, which extrapolates the last
  three eigenvalue and eigenvector iterates once the raw residual passes a
  trigger threshold.

One deflation driver, _deflate, extracts all eigenpairs with either table:
power_method_spectrum subtracts lam v v^* from Q, dcama_pm subtracts
lam (u u^* + Hu Hu^*) from the adjoint. The immutable matrix and vector
objects are built only on entry to and exit from each power loop.

All solvers stop when the residual |y - u*lam| in the 2R norm drops to the
configured tolerance; hitting the iteration cap is reported through the
trace, never raised, except inside deflation where a failed inner loop
aborts the sweep with the pairs found so far attached.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .adjoint import adjoint, vec_map_f, vec_map_f_inverse, vec_map_h
from .dual_eig import EigenResult
from .errors import InnerNoConvergence, ZeroVector
from .matrices import (
    DualComplexMatrix,
    DualComplexVector,
    DualQuaternionMatrix,
    DualQuaternionVector,
    _qmul,
    _redot,
    _sumsq,
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
    "aitken_extrapolate",
    "pair_residual",
]

IMAG_DROP_TOL = 1e-10
AITKEN_GUARD = 1e-14


@dataclass(frozen=True)
class PowerIterConfig:
    """Iteration budget and tolerances shared by all iterative solvers."""

    max_iter: int = 5000
    tol: float = 1e-6
    aitken_trigger: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.aitken_trigger < self.tol:
            raise ValueError("aitken_trigger must be at least tol")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


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
    return (q @ v - v.scale_right(lam)).norm_2r()


# -- per-algebra tables ---------------------------------------------------------
#
# Each table computes what the matching object methods compute (__matmul__,
# dot, scale_right or scale, norm_2r, unit) with the same formulas. unit
# reduces exactly as the objects do, so the iterates match the object
# arithmetic bit for bit: the Aitken step amplifies ulp-level differences in
# its three iterates by about 1/(1 - r)^2 for a convergence ratio r. The
# Rayleigh quotient and the residual feed no iterate of the loop and reduce
# with BLAS dot products, which differ from numpy sums in summation order.


def _sq(a) -> float:
    """Squared 2-norm of a complex array."""
    return np.vdot(a, a).real


def _hdot(x1, x2, y1, y2):
    # sum over conj(x_i) y_i with x = x1 + x2 j, y = y1 + y2 j
    a = complex(np.vdot(x1, y1)) + complex(np.vdot(x2, y2)).conjugate()
    b = complex(np.vdot(x1, y2)) - complex(np.vdot(x2, y1)).conjugate()
    return a, b


class _Quaternion:
    """Dual quaternion arithmetic on x = (v1, v2, v3, v4): entry i of the
    vector is (v1 + v2 j) + (v3 + v4 j) eps, as in DualQuaternionVector."""

    def __init__(self, q: DualQuaternionMatrix):
        self.matrix = q
        self.a = (q.a1, q.a2, q.a3, q.a4)

    @staticmethod
    def enter(v: DualQuaternionVector):
        return v.v1, v.v2, v.v3, v.v4

    @staticmethod
    def leave(x) -> DualQuaternionVector:
        return DualQuaternionVector(*x)

    def matvec(self, x):
        a1, a2, a3, a4 = self.a
        v1, v2, v3, v4 = x
        c1, c2 = _qmul(a1, a2, v1, v2)
        d1a, d2a = _qmul(a1, a2, v3, v4)
        d1b, d2b = _qmul(a3, a4, v1, v2)
        return c1, c2, d1a + d1b, d2a + d2b

    @staticmethod
    def rayleigh(x, y):
        """Real parts (st, du) of x^* y and the largest dropped component."""
        v1, v2, v3, v4 = x
        s1, s2 = _hdot(v1, v2, y[0], y[1])
        da1, da2 = _hdot(v1, v2, y[2], y[3])
        db1, db2 = _hdot(v3, v4, y[0], y[1])
        d1, d2 = da1 + db1, da2 + db2
        dropped = max(
            abs(s1.imag), abs(s2.real), abs(s2.imag),
            abs(d1.imag), abs(d2.real), abs(d2.imag),
        )
        return s1.real, d1.real, dropped

    @staticmethod
    def residual(x, y, st, du):
        """|y - x (st + du eps)| in the 2R norm."""
        v1, v2, v3, v4 = x
        return math.sqrt(
            _sq(y[0] - v1 * st)
            + _sq(y[1] - v2 * st)
            + _sq(y[2] - (v3 * st + v1 * du))
            + _sq(y[3] - (v4 * st + v2 * du))
        )

    @staticmethod
    def unit(y):
        """Projection onto unit 2-norm vectors (degenerate branch: zero dual part)."""
        v1, v2, v3, v4 = y
        st_sq = _sumsq(v1) + _sumsq(v2)
        if st_sq != 0.0:
            st = math.sqrt(st_sq)
            du = (_redot(v1, v3) + _redot(v2, v4)) / st
            rs, rd = 1.0 / st, -du / (st * st)
            return v1 * rs, v2 * rs, v3 * rs + v1 * rd, v4 * rs + v2 * rd
        du_sq = _sumsq(v3) + _sumsq(v4)
        if du_sq == 0.0:
            raise ZeroVector("cannot normalize the zero vector")
        s = 1.0 / math.sqrt(du_sq)
        z = np.zeros_like(v3)
        return v3 * s, v4 * s, z, z

    def deflated(self, x, lam: DualNumber) -> "_Quaternion":
        """Q - lam v v^*."""
        v = self.leave(x)
        return _Quaternion(self.matrix - v.outer(v) * lam)


class _Adjoint:
    """Dual complex arithmetic on x = (st, du), the parts of a vector of
    length 2n, against the 2n x 2n adjoint matrix P = P1 + P2 eps."""

    def __init__(self, p: DualComplexMatrix):
        self.matrix = p
        self.p1, self.p2 = p.st, p.du

    @staticmethod
    def enter(v: DualQuaternionVector):
        u = vec_map_f(v)
        return u.st, u.du

    @staticmethod
    def leave(x) -> DualQuaternionVector:
        return vec_map_f_inverse(DualComplexVector(*x))

    def matvec(self, x):
        st, du = x
        return self.p1 @ st, self.p1 @ du + self.p2 @ st

    @staticmethod
    def rayleigh(x, y):
        """Real parts (st, du) of x^* y and the larger dropped imaginary part."""
        s = complex(np.vdot(x[0], y[0]))
        d = complex(np.vdot(x[0], y[1])) + complex(np.vdot(x[1], y[0]))
        return s.real, d.real, max(abs(s.imag), abs(d.imag))

    @staticmethod
    def residual(x, y, st, du):
        """|y - x (st + du eps)| in the 2R norm."""
        return math.sqrt(_sq(y[0] - x[0] * st) + _sq(y[1] - (x[1] * st + x[0] * du)))

    @staticmethod
    def unit(y):
        """Projection onto unit 2-norm vectors (degenerate branch: zero dual part)."""
        st_part, du_part = y
        st_sq = _sumsq(st_part)
        if st_sq != 0.0:
            st = math.sqrt(st_sq)
            du = _redot(st_part, du_part) / st
            rs, rd = 1.0 / st, -du / (st * st)
            return st_part * rs, du_part * rs + st_part * rd
        du_sq = _sumsq(du_part)
        if du_sq == 0.0:
            raise ZeroVector("cannot normalize the zero vector")
        return du_part / math.sqrt(du_sq), np.zeros_like(du_part)

    @staticmethod
    def st_norm(x) -> float:
        """2-norm of the standard part; the Aitken step's collapse guard."""
        return math.sqrt(_sq(x[0]))

    def deflated(self, x, lam: DualNumber) -> "_Adjoint":
        """P - lam (u u^* + Hu Hu^*), which removes both adjoint copies of lam."""
        u = DualComplexVector(*x)
        h = vec_map_h(u)
        return _Adjoint(self.matrix - u.outer(u) * lam - h.outer(h) * lam)


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
    """Extrapolated (lam, w, residual) from the last three iterates, or None
    when the extrapolated pair collapses or misses tol. A negative dominant
    eigenvalue makes the iterates alternate sign, so the middle one is
    sign-aligned first."""
    (xa, sa, da), (xb, sb, db), (xc, sc, dc) = hist
    sign = 1.0 if sc >= 0.0 else -1.0
    w = tuple(
        _aitken_complex(a, b * sign, c, AITKEN_GUARD) for a, b, c in zip(xa, xb, xc)
    )
    kappa = DualNumber(*_aitken_real((sa, da), (sb, db), (sc, dc), AITKEN_GUARD).tolist())
    # cancellation collapse would shrink the standard part toward 0
    if alg.st_norm(w) < 0.5:
        return None
    res_w = alg.residual(w, alg.matvec(w), kappa.st, kappa.du)
    return (kappa, w, res_w) if res_w <= tol else None


def _power(alg, x, cfg: PowerIterConfig, aitken: bool = False):
    """Power iteration from x in alg's arithmetic; returns (lam, x, trace).

    Without Aitken the loop stops once the raw residual meets cfg.tol and
    returns the last estimate with the normalized last image. With Aitken it
    stops only on an extrapolated pair that meets cfg.tol, tried each step
    once the raw residual reaches cfg.aitken_trigger; that exit appends the
    extrapolated pair as one extra trace record.
    """
    x = alg.unit(x)
    trace = IterTrace()
    hist = deque(maxlen=3)
    for k in range(1, cfg.max_iter + 1):
        y = alg.matvec(x)
        st, du, dropped = alg.rayleigh(x, y)
        res = alg.residual(x, y, st, du)
        lam = DualNumber(st, du)
        trace.record(lam, res, dropped)
        x = alg.unit(y)
        if aitken:
            hist.append((x, st, du))
            if res <= cfg.aitken_trigger and len(hist) == 3:
                step = _aitken_step(alg, hist, cfg.tol)
                if step is not None:
                    lam, w, res_w = step
                    trace.record(lam, res_w, 0.0)
                    x = alg.unit(w)
                    trace.converged = True
        elif res <= cfg.tol:
            trace.converged = True
        if trace.converged:
            trace.iterations = k
            return lam, x, trace
    trace.iterations = cfg.max_iter
    return lam, x, trace


def power_method_baseline(
    q: DualQuaternionMatrix, v0: DualQuaternionVector, cfg: PowerIterConfig
):
    """Dominant eigenpair by power iteration in dual quaternion arithmetic.

    Expects Hermitian q and a unit start vector. Non-convergence within the
    iteration cap is reported in the trace, not raised.
    """
    alg = _Quaternion(q)
    lam, x, trace = _power(alg, alg.enter(v0), cfg)
    return lam, alg.leave(x), trace


def dcam_pm(q: DualQuaternionMatrix, v0: DualQuaternionVector, cfg: PowerIterConfig):
    """Dominant eigenpair via power iteration on the adjoint matrix."""
    alg = _Adjoint(adjoint(q))
    lam, x, trace = _power(alg, alg.enter(v0), cfg)
    return lam, alg.leave(x), trace


def aitken_extrapolate(x0, x1, x2, guard: float = AITKEN_GUARD):
    """Aitken delta-squared step from three consecutive iterates.

    Standard and dual parts extrapolate independently, real component by
    real component. A component whose second difference falls below
    guard * max(1, |x|) passes through unextrapolated, which keeps the
    step exact-or-harmless near convergence.
    """
    if isinstance(x0, DualNumber):
        return DualNumber(
            float(_aitken_real(x0.st, x1.st, x2.st, guard)),
            float(_aitken_real(x0.du, x1.du, x2.du, guard)),
        )
    if isinstance(x0, DualComplexVector):
        return DualComplexVector(
            _aitken_complex(x0.st, x1.st, x2.st, guard),
            _aitken_complex(x0.du, x1.du, x2.du, guard),
        )
    if isinstance(x0, DualQuaternionVector):
        return DualQuaternionVector(
            _aitken_complex(x0.v1, x1.v1, x2.v1, guard),
            _aitken_complex(x0.v2, x1.v2, x2.v2, guard),
            _aitken_complex(x0.v3, x1.v3, x2.v3, guard),
            _aitken_complex(x0.v4, x1.v4, x2.v4, guard),
        )
    raise TypeError(f"cannot extrapolate {type(x0).__name__}")


def adcam_pm(q: DualQuaternionMatrix, v0: DualQuaternionVector, cfg: PowerIterConfig):
    """Adjoint power iteration with Aitken acceleration.

    Runs the dcam_pm loop; once the raw residual reaches cfg.aitken_trigger,
    each iteration extrapolates the last three eigenvalue and eigenvector
    iterates and stops as soon as the extrapolated pair meets cfg.tol.
    When the dominant eigenvalue is negative the iterate sequence alternates
    sign, so the history is sign-aligned before extrapolating.
    """
    alg = _Adjoint(adjoint(q))
    lam, x, trace = _power(alg, alg.enter(v0), cfg, aitken=True)
    return lam, alg.leave(x), trace


# -- deflation ------------------------------------------------------------------


def _spectrum_result(q, found, iterations):
    ordered = sorted(found, key=lambda t: (t[0].st, t[0].du), reverse=True)
    pairs = tuple((lam, (v,)) for lam, v in ordered)
    if pairs:
        residual = float(np.mean([pair_residual(q, lam, v) for lam, v in ordered]))
    else:
        residual = 0.0
    return EigenResult(pairs, residual, iterations)


def _deflate(q: DualQuaternionMatrix, alg, cfg: PowerIterConfig, deflate_tol) -> EigenResult:
    """All eigenpairs by repeated dominant extraction and deflation of
    alg.matrix; each inner loop restarts from the seeded random vector of
    its pair index."""
    n = q.rows
    if deflate_tol is None:
        deflate_tol = 1e-8 * max(1.0, alg.matrix.norm_fr())
    found = []
    iterations = 0
    for k in range(1, n + 1):
        if alg.matrix.norm_fr() <= deflate_tol:
            break
        rng = np.random.default_rng([cfg.seed, k])
        lam, x, tr = _power(alg, alg.enter(random_unit_vector(n, rng)), cfg)
        iterations += tr.iterations
        if not tr.converged:
            raise InnerNoConvergence(
                f"inner power loop {k} failed to converge in {cfg.max_iter} iterations",
                partial=_spectrum_result(q, found, iterations),
                pair_index=k,
            )
        found.append((lam, alg.leave(x)))
        alg = alg.deflated(x, lam)
    return _spectrum_result(q, found, iterations)


def dcama_pm(
    q: DualQuaternionMatrix, cfg: PowerIterConfig, deflate_tol: float | None = None
) -> EigenResult:
    """All eigenpairs by repeated dominant extraction on the adjoint matrix.

    After each extraction the adjoint is deflated with both the eigenvector
    and its H-partner, which removes the full doubled multiplicity of that
    eigenvalue. Stops after n pairs or when the deflated matrix drains below
    deflate_tol (default 1e-8 * max(1, initial norm)). Each inner loop
    restarts from a fresh seeded random vector. A non-converging inner loop
    raises InnerNoConvergence with the partial result attached.
    """
    return _deflate(q, _Adjoint(adjoint(q)), cfg, deflate_tol)


def power_method_spectrum(
    q: DualQuaternionMatrix, cfg: PowerIterConfig, deflate_tol: float | None = None
) -> EigenResult:
    """All eigenpairs by deflation in plain dual quaternion arithmetic.

    The reference full-spectrum driver: extract the dominant pair by power
    iteration in dual quaternion arithmetic, subtract lam * v v^*, repeat.
    Same stopping and failure contract as dcama_pm.
    """
    return _deflate(q, _Quaternion(q), cfg, deflate_tol)
