"""The library's exceptions for inputs it rejects.

The CLI maps PreconditionError to exit code 2 and UnsupportedCaseError,
with its subclasses, to exit code 3.  All are ValueErrors but
MixedFieldError, a TypeError: mixing quadratic fields is a programming error.
"""


class PreconditionError(ValueError):
    """An input fails a precondition of the call."""


class OrphanLatticeError(PreconditionError):
    """A neighbour matched no representative: the genus list is incomplete."""


class ParameterError(PreconditionError):
    """A malformed Arthur parameter."""


class UnsupportedCaseError(ValueError):
    """A well-formed input that this implementation does not handle."""


class MissingCoefficientError(UnsupportedCaseError):
    """An eigenform coefficient or trace that the store does not hold."""


class UnsupportedFieldError(UnsupportedCaseError):
    """An eigenvalue field that is not Q or a real quadratic field."""


class MixedFieldError(TypeError):
    """Elements of two different quadratic fields in one operation."""
