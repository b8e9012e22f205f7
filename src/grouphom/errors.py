"""Exception types raised by grouphom.

All library errors derive from :class:`GrouphomError` so callers can catch
one base class.  Input/validation problems additionally derive from
``ValueError`` where that is the natural builtin.
Every integer argument goes through :func:`_check_integer` and every
level through :func:`_check_alpha`, which raise :class:`OutOfRange` (or
a subclass) for a value of the wrong type or out of range.
"""

from __future__ import annotations

import numbers
import operator


class GrouphomError(Exception):
    """Base class for all grouphom errors."""


class DatasetError(GrouphomError, ValueError):
    """A dataset failed validation."""


class EmptyInput(DatasetError):
    """No data rows were supplied."""


class MixedDimension(DatasetError):
    """Rows do not share a common number of categories."""


class NegativeCount(DatasetError):
    """A count cell is negative."""


class DuplicateSample(DatasetError):
    """The same (group, population) pair appears more than once."""


class MissingMate(DatasetError):
    """A group has only one of its two population samples."""


class EstimatorPrecondition(GrouphomError, ValueError):
    """Input violates a precondition of the requested estimator."""


class SampleTooSmall(EstimatorPrecondition):
    """A sample total is below the minimum an estimator requires."""


class DimensionMismatch(GrouphomError, ValueError):
    """Two vectors that must share a dimension do not."""


class OutOfRange(GrouphomError, ValueError):
    """A numeric argument is outside its legal range."""


class InvalidB(OutOfRange):
    """Bootstrap replicate count B is too small."""


class InvalidReps(OutOfRange):
    """Monte Carlo replicate count is not positive."""


class ZeroVariance(GrouphomError, ValueError):
    """A variance that must be positive is zero (degenerate input)."""


class UnknownTable(GrouphomError, KeyError):
    """An unrecognised simulation table identifier."""


class UnsupportedDimension(GrouphomError, ValueError):
    """A simulation setting does not define probability vectors for this d."""



def _check_integer(value, name: str, minimum: int = 0, error=OutOfRange) -> int:
    """``value`` as an ``int`` if it is an integer (numpy's too, not a
    bool) of at least ``minimum``; else raises ``error``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = minimum - 1
    if number < minimum or isinstance(value, bool):
        bound = ("a non-negative integer" if minimum == 0
                 else f"an integer >= {minimum}")
        raise error(f"{name} must be {bound}, got {value!r}")
    return number


def _check_alpha(alpha) -> float:
    """``alpha`` as a ``float`` if it is a real number (numpy's too, not a
    bool) in (0, 1); else raises OutOfRange."""
    if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
            or not 0.0 < alpha < 1.0):
        raise OutOfRange(f"alpha must be a number in (0, 1), got {alpha!r}")
    return float(alpha)
