"""Eigenvalues and eigenvectors of dual quaternion Hermitian matrices.

The solvers work through the dual complex adjoint matrix: a ring isomorphism
turns the dual quaternion eigenproblem into a dual complex one, where power
iteration (optionally Aitken-accelerated), deflation, and a direct
eigendecomposition are available; solve(q, alg) runs any of the five
algorithms. Problem generators for formation-control Laplacians and a CLI
round out the package.
"""

__version__ = "0.1.0"

from .adjoint import adjoint, vec_map_f, vec_map_f_inverse, vec_map_h
from .bench import (
    PENTAGON_REFERENCE_EIGENVALUES,
    BenchRecord,
    VisibilityGraph,
    build_laplacian,
    pentagon_fixture,
    random_graph,
    random_hermitian,
    run_benchmark,
    synth_known_spectrum,
)
from .dual_eig import (
    DualEigenDecomposition,
    EigenResult,
    eddcam_ea,
    eig_dual_complex_hermitian,
)
from .errors import (
    ClusterInstability,
    DegenerateRandomDraw,
    DimensionMismatch,
    DivisionUndefined,
    DQEigError,
    InnerNoConvergence,
    NoConvergence,
    NotAnEigenvector,
    NotAppreciable,
    NotHermitian,
    NotInvertible,
    OddLength,
    ParseError,
    SparsityTooHigh,
    ZeroInput,
    ZeroVector,
)
from .hermitian_eig import ComplexHermitianEig, eig_hermitian
from .matrices import (
    DualQuaternionMatrix,
    DualQuaternionVector,
    random_unit_vector,
)
from .power import (
    IterTrace,
    PowerIterConfig,
    adcam_pm,
    dcam_pm,
    dcama_pm,
    pair_residual,
    power_method_baseline,
    power_method_spectrum,
)
from .scalars import (
    DualNumber,
    DualQuaternion,
    Quaternion,
    project_unit_dual_quaternion,
)
from .solve import ALGORITHMS, solve
