"""The library's exceptions for inputs it rejects.

The CLI maps PreconditionError to exit code 2 and UnsupportedCaseError,
MissingCoefficientError included, to exit code 3.  All are ValueErrors.
"""


class PreconditionError(ValueError):
    """An input fails a precondition of the call."""


class OrphanLatticeError(PreconditionError):
    """A neighbour matched no representative: the genus list is incomplete."""


class UnsupportedCaseError(ValueError):
    """A well-formed input that this implementation does not handle."""


class MissingCoefficientError(UnsupportedCaseError):
    """An eigenform coefficient or trace that the store does not hold."""
