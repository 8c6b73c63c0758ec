"""Exceptions and warnings shared across the package.

Every error raised on account of bad input data or bad arguments derives
from :class:`RanksigError`; the CLI maps that family to exit code 2 and
anything else to exit code 1.
"""


class RanksigError(Exception):
    """Base class for user-input errors raised by this package."""


# --- record ingestion ---

class MalformedRow(RanksigError):
    """A line of an input file does not conform to the schema."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class InvariantViolation(RanksigError):
    """A record's fields violate the record invariants."""


class NoMatch(RanksigError):
    """A selector matched no records."""


class DuplicateRecord(RanksigError):
    """Two records share a key but disagree on their values."""


# --- statistics ---

class ZeroExpectedCell(RanksigError):
    """A chi-square term would divide by a zero expected cell."""


class DegenerateTable(RanksigError):
    """A contingency table is unusable for the requested statistic."""


class EmptyPool(RanksigError):
    """Pooled proportion requested over zero total observations."""


class DegeneratePool(RanksigError):
    """Pooled proportion is 0 or 1 but the two proportions differ."""


class EmptyInstitution(RanksigError):
    """An institution with no publications cannot be tested."""


class InvalidStatistic(RanksigError):
    """A statistic input is NaN or otherwise meaningless."""


class MissingInterval(RanksigError):
    """A confidence-interval operation was asked of a record without bounds."""


# --- grouping comparison ---

class NoOverlap(RanksigError):
    """Two labelings share no institutions."""


class LengthMismatch(RanksigError):
    """Paired sequences have unequal or insufficient length."""


class ConstantInput(RanksigError):
    """Rank correlation of an all-equal sequence is undefined."""


# --- dynamics ---

class AmbiguousPeriodLabel(RanksigError):
    """A period label carries no parseable start year."""


# --- cli ---

class UnknownInstitution(RanksigError):
    """A named institution is not present in the selected records."""


class MixedSlices(RanksigError):
    """The selected records span more than one (period, field, counting) slice."""


# --- warnings (conditions that are reported but do not stop computation) ---

class DegenerateTableWarning(UserWarning):
    """A zero margin makes part of an expected table zero."""


class DegeneratePoolWarning(UserWarning):
    """z defined as 0 for two identical degenerate proportions."""
