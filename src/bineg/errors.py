"""Exception types shared across the package.

Every error raised on purpose by this package derives from :class:`BinegError`,
so callers can catch one base class at CLI or library boundaries.
"""


class BinegError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(BinegError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class WrongDimension(BinegError):
    """Array does not have the required shape for a two-qubit object."""


class DimensionMismatch(BinegError):
    """Operator dimensions are incompatible (e.g. Kraus ops of mixed shapes)."""


class OutOfRange(BinegError):
    """Scalar parameter lies outside its allowed interval."""


class InfeasibleRegion(BinegError):
    """Requested (concurrence, negativity) pair admits no two-qubit state."""


class MultipleNegativeEigenvalues(BinegError):
    """Partial transpose has more than one negative eigenvalue.

    For a two-qubit density matrix this cannot happen; hitting it means the
    input was not a valid state.
    """


class NotTracePreserving(BinegError):
    """Kraus family or Choi matrix fails the trace-preservation condition."""


class NoConvergence(BinegError):
    """Iterative routine exhausted its iteration budget before the tolerance."""


class ParseError(BinegError):
    """Malformed input: a state-family specification string, a state file,
    the ``BINEG_SEED`` variable, a JSON violation record or Kraus channel, or
    a matrix of ``[re, im]`` pairs."""


class InvalidState(BinegError):
    """Density matrix fails validation (trace, Hermiticity, or positivity)."""
