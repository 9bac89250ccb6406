"""Exception types shared across the package."""


class CpconfError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CpconfError):
    """Lexical or syntax error in a model file.

    Carries the offending source span and, when known, the set of tokens
    that would have been accepted at that point.
    """

    def __init__(self, message, span=None, expected=()):
        self.span = span
        self.expected = tuple(expected)
        if span is not None:
            message = f"{span.line}:{span.col}: {message}"
        if self.expected:
            message += " (expected " + " or ".join(sorted(self.expected)) + ")"
        super().__init__(message)


class GroundingError(CpconfError):
    """Raised when a model cannot be grounded on an instance."""

    def __init__(self, message, label=None):
        self.label = label
        if label:
            message = f"{label}: {message}"
        super().__init__(message)


class EvaluationError(CpconfError):
    """Raised when a ground expression cannot be evaluated."""


class UsageError(CpconfError):
    """A check was invoked on inputs that violate its preconditions."""
