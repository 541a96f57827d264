"""Exception types raised across the package."""


class DQEigError(Exception):
    """Base class for all dqeig errors."""


class DivisionUndefined(DQEigError, ZeroDivisionError):
    """Dual-number division with zero standard part outside the degenerate branch."""


class NotInvertible(DQEigError):
    """Inverse of the zero quaternion requested."""


class NotAppreciable(DQEigError):
    """Operation requires a nonzero standard part."""


class ZeroInput(DQEigError):
    """Projection of the zero dual quaternion onto the unit set."""


class ZeroVector(DQEigError):
    """Normalization of an identically zero vector."""


class DimensionMismatch(DQEigError):
    """Operand shapes do not conform."""


class OddLength(DQEigError):
    """Vector map on the adjoint side needs an even-length input."""


class NotHermitian(DQEigError):
    """Matrix is not Hermitian within the required tolerance."""


class NoConvergence(DQEigError):
    """Eigensolver kernel failed to converge."""


class ClusterInstability(DQEigError):
    """Eigenvalue clusters too close: the dual-part coupling matrix would blow up."""


class NotAnEigenvector(DQEigError):
    """Vector fails the eigenvector residual precondition."""


class SparsityTooHigh(DQEigError):
    """Requested edge count exceeds graph capacity."""


class DegenerateRandomDraw(DQEigError):
    """Random matrix draw was rank deficient; retry with a new seed."""


class ParseError(DQEigError):
    """Malformed matrix or result file."""


class InnerNoConvergence(DQEigError):
    """A deflation inner loop hit the iteration cap.

    Carries the eigenpairs extracted so far in ``partial``.
    """

    def __init__(self, message, partial=None, pair_index=None):
        super().__init__(message)
        self.partial = partial
        self.pair_index = pair_index
