"""Exception types raised by grouphom.

All library errors derive from :class:`GrouphomError` so callers can catch
one base class.  Input/validation problems additionally derive from
``ValueError`` where that is the natural builtin.
"""

from __future__ import annotations


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

