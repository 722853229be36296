"""Exception types shared across the package."""


class ChoiscopeError(Exception):
    """Base class for all library errors."""


class InvalidArgument(ChoiscopeError, ValueError):
    """An argument outside its domain: a negative budget or seed, an unknown
    mode name, a negative or non-finite tolerance."""


class NonFinite(ChoiscopeError):
    """Input contains NaN or infinite entries."""


class NotHermitian(ChoiscopeError):
    """Matrix is not Hermitian within tolerance."""


class NotPsd(ChoiscopeError):
    """Matrix is not positive semidefinite within tolerance."""


class ShapeMismatch(ChoiscopeError):
    """Operands have incompatible shapes."""


class DimensionMismatch(ChoiscopeError):
    """Dimension metadata does not match the data."""


class NonSquareSubsystems(ChoiscopeError):
    """Operation requires equal subsystem dimensions."""


class ZeroMatrix(ChoiscopeError):
    """Operation is undefined for the zero matrix."""


class NotCompletelyPositive(ChoiscopeError):
    """Choi matrix has a negative eigenvalue beyond tolerance."""


class NotAState(ChoiscopeError):
    """Density matrix fails the Hermitian/PSD check."""


class NotOrthonormal(ChoiscopeError):
    """Operator basis fails the orthonormality check."""


class CandidateOutsideRange(ChoiscopeError):
    """Product vector lies outside the range of the state."""


class NonConvergence(ChoiscopeError):
    """Iteration cap hit while the objective still oscillates."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ParseError(ChoiscopeError):
    """Input file could not be parsed."""
