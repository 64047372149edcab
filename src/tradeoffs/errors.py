"""Domain errors shared across the toolkit.

Every error that a caller can act on derives from :class:`TradeoffError`,
so CLI and library users can catch one base class. Names double as the
machine-readable ``error`` field in CLI error output.
"""

__all__ = [
    "TradeoffError",
    "Infeasible",
    "NegativeCapacity",
    "NonDifferentiableModel",
    "DegeneratePoints",
    "DimensionMismatch",
    "ZeroNormEmbedding",
    "NonFiniteEmbedding",
    "ParseError",
    "EntryTooLarge",
]


class TradeoffError(Exception):
    """Base class for all domain errors raised by this package."""


class Infeasible(TradeoffError):
    """No sample meets the quality target within the compute budget."""


class NegativeCapacity(TradeoffError):
    """Cache capacity must be nonnegative."""


class NonDifferentiableModel(TradeoffError):
    """The hit-rate model has no analytic derivative."""


class DegeneratePoints(TradeoffError):
    """The calibration points carry no usable signal for fitting."""


class DimensionMismatch(TradeoffError):
    """An embedding's length differs from the configured dimension."""


class ZeroNormEmbedding(TradeoffError):
    """A zero-magnitude embedding cannot be normalized."""


class ParseError(TradeoffError):
    """A trace record or CSV row could not be parsed.

    ``line_number`` is 1-based and refers to the offending line of the
    input stream, or is ``None`` where no single line can be named.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EntryTooLarge(TradeoffError):
    """A single cache entry exceeds the total cache capacity."""


class NonFiniteEmbedding(TradeoffError):
    """An embedding holds a NaN or an infinity, or its norm overflows."""
