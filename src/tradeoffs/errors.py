"""Domain errors shared across the toolkit.

Every error that a caller can act on derives from :class:`TradeoffError`,
so CLI and library users can catch one base class. Names double as the
machine-readable ``error`` field in CLI error output.
"""

import math

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


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


def _number(value, name: str, low=None, *, above=False, whole=False, rule=None):
    """``value``, if it is a real number whose ``float`` is finite (NaN, an
    infinity and an int beyond float range fail alike), at least ``low``
    (above it, with ``above``) and, with ``whole``, whole. Else a
    ``ValueError``, "<name> must be <rule>", where ``rule`` defaults to
    "whole" for a fraction, else to "finite" or "<nonnegative, positive
    or at least low> and finite"."""
    try:
        ok = math.isfinite(value) and (low is None or value > low or value == low and not above)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        ok = False
    if not ok:
        if rule is None:
            bound = ("positive" if above else "nonnegative") if low == 0 else f"at least {low}"
            rule = "finite" if low is None else f"{bound} and finite"
        raise ValueError(f"{name} must be {rule}")
    if whole and value % 1:
        raise ValueError(f"{name} must be {rule or 'whole'}")
    return value


def _size(value, name: str, low: int, rule=None):
    """``_number`` of a count that sizes a numpy array, in its index range."""
    if _number(value, name, low, whole=True, rule=rule) >= 2**63:
        raise ValueError(f"{name} must be below 2**63")
    return value
