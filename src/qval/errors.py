"""Exception types shared across the package."""


class QvalError(Exception):
    """Base class for all library-specific errors."""


class DomainError(QvalError):
    """An argument lies outside the mathematical domain of the operation
    (mismatched extension fields, repeated primes, non-squarefree d, ...)."""


class PropertyViolation(QvalError):
    """A property that the library guarantees internally failed to hold.
    Seeing this means an implementation bug, not bad input."""


class ParseError(QvalError):
    """Malformed expression or specification text.

    Carries the offset of the offending token in ``position`` (0-based,
    or None when no position makes sense).
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
