"""One entry point for the five eigensolvers.

solve(q, alg) runs EDDCAM-EA ("eddcam"), the deflation drivers DCAMA-PM
("dcama") and the dual quaternion baseline ("pm"), or the single-pair power
methods DCAM-PM ("dcam") and ADCAM-PM ("adcam"), and returns every answer as
an EigenResult. A single pair becomes one group with its own residual; a
deflation sweep whose inner loop hits the iteration cap returns the pairs
found so far with converged=False. The drivers are looked up through their
modules at each call, so a wrapper put on a module attribute sees the call.
"""

import dataclasses

import numpy as np

from . import dual_eig, power
from .dual_eig import EigenResult
from .errors import DimensionMismatch, InnerNoConvergence
from .matrices import DualQuaternionMatrix, DualQuaternionVector, random_unit_vector

ALGORITHMS = ("eddcam", "dcama", "dcam", "adcam", "pm")


def solve(
    q: DualQuaternionMatrix,
    alg: str,
    cfg: power.PowerIterConfig = power.PowerIterConfig(),
    v0: DualQuaternionVector | None = None,
) -> EigenResult:
    """Eigenpairs of the Hermitian q by the algorithm alg, one of ALGORITHMS.

    The power methods take their budget from cfg and gate q with the
    Hermitian check first; eddcam_ea gates q itself. dcam and adcam
    start from v0, by default the random unit vector seeded by cfg.seed; a
    v0 whose length is not q.rows raises DimensionMismatch, and a non-finite
    one ValueError. The 0 x 0 matrix gives the empty converged result under
    every algorithm.
    """
    if alg not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {alg!r}; expected one of {', '.join(ALGORITHMS)}")
    if alg == "eddcam":
        return dual_eig.eddcam_ea(q)
    dual_eig._check_hermitian(q._parts)
    if alg in ("dcam", "adcam"):
        if v0 is not None and v0.n != q.rows:
            raise DimensionMismatch(f"start vector of length {v0.n} for a matrix of {q.rows} rows")
        if v0 is not None and not np.isfinite(v0._parts).all():
            raise ValueError("start vector v0 must be finite")
        if q.rows == 0:
            return EigenResult((), 0.0)
        if v0 is None:
            v0 = random_unit_vector(q.rows, np.random.default_rng(cfg.seed))
        driver = power.dcam_pm if alg == "dcam" else power.adcam_pm
        lam, v, trace = driver(q, v0, cfg)
        residual = power.pair_residual(q, lam, v)
        return EigenResult(((lam, (v,)),), residual, trace.iterations, trace.converged)
    driver = power.dcama_pm if alg == "dcama" else power.power_method_spectrum
    try:
        return driver(q, cfg)
    except InnerNoConvergence as exc:
        return dataclasses.replace(exc.partial, converged=False)
