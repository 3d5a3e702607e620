"""Exception hierarchy for the engine."""


class LieCohomError(Exception):
    """Base class for all engine errors."""


class DimensionMismatch(LieCohomError):
    """Operands live over coframes of different sizes."""


class ParseError(LieCohomError):
    """Malformed `.lie` input.  Carries a 1-based line/column position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class JacobiViolation(ParseError):
    """d**2 != 0 on a generator; the input is not a Lie coalgebra.

    ``generator`` is the index k of the offending d fK.
    """

    def __init__(self, message, line=None, col=None, generator=None):
        super().__init__(message, line, col)
        self.generator = generator


class IntegrabilityError(LieCohomError):
    """A bigraded operation was requested on a non-integrable structure."""


class MetricError(LieCohomError):
    """Metric is not Hermitian or not positive definite."""


class PreconditionError(LieCohomError):
    """An operation's precondition does not hold for the given input."""
