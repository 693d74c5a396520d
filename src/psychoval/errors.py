"""Exception hierarchy shared by all psychoval modules.

Every anticipated failure raises a subclass of :class:`PsychovalError`; the
CLI maps these to exit code 1 and prints ``ClassName: message`` on stderr,
followed by ``[stage: name]`` when :func:`stage` tagged the error.
Anything else escaping the library is a bug.
"""

from contextlib import contextmanager


class PsychovalError(Exception):
    """Base class for all anticipated analysis errors."""


@contextmanager
def stage(name: str):
    """Tag any domain error raised inside the block with the stage name."""
    try:
        yield
    except PsychovalError as exc:
        exc.stage = name
        raise


class ConfigError(PsychovalError):
    """Invalid configuration value (bad threshold, unknown method name)."""


# --- data / ingestion -------------------------------------------------------

class ParseError(PsychovalError):
    def __init__(self, row, column, content):
        self.row, self.column, self.content = row, column, content
        super().__init__(f"row {row}, column {column!r}: cannot parse {content!r}")


class RangeError(PsychovalError):
    """A response outside the Likert bounds.

    ``row`` is the CSV line number when parsing, or the respondent id when
    a dataset is built from an array.
    """

    def __init__(self, row, item, value):
        self.row, self.item, self.value = row, item, value
        super().__init__(f"row {row}, item {item!r}: value {value} outside Likert bounds")


class DuplicateId(PsychovalError):
    def __init__(self, kind, ident):
        self.kind, self.ident = kind, ident
        super().__init__(f"duplicate {kind} id {ident!r}")


class UnknownItem(PsychovalError):
    def __init__(self, scale, items):
        self.scale, self.items = scale, tuple(items)
        super().__init__(f"scale {scale!r} references unknown items {list(self.items)}")


class MissingDataError(PsychovalError):
    """Missing cells encountered under the strict policy."""


class EmptyAfterDeletion(PsychovalError):
    """Listwise deletion removed every respondent."""


class EmptyDataset(PsychovalError):
    """Operation requires at least one respondent and one item."""


# --- numeric preconditions --------------------------------------------------

class ZeroVariance(PsychovalError):
    """A constant vector where variation is required."""

    def __init__(self, what):
        self.what = what
        super().__init__(f"{what} has zero variance")


class InsufficientRows(PsychovalError):
    """Too few complete observations for the requested statistic."""


class SingularMatrix(PsychovalError):
    def __init__(self, smallest_eigenvalue):
        self.smallest_eigenvalue = smallest_eigenvalue
        super().__init__(
            f"matrix is singular (smallest eigenvalue {smallest_eigenvalue:.3e})"
        )


class NotPositiveDefinite(PsychovalError):
    """Matrix has a non-positive eigenvalue where positive definiteness is required."""


class NoConvergence(PsychovalError):
    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class DomainError(PsychovalError):
    """Argument outside the mathematical domain of the function."""


# --- reliability / adequacy / pipeline --------------------------------------

class TooFewItems(PsychovalError):
    """Scale has fewer items than the statistic requires."""


class NoOverlap(PsychovalError):
    """Too few respondents shared between the two occasions."""


class SampleTooSmall(PsychovalError):
    """Effective sample size is too small relative to the item count."""


class BadFactorCount(PsychovalError):
    """Requested factor count outside 1..p."""


class UniquenessNegative(PsychovalError):
    def __init__(self, item):
        self.item = item
        super().__init__(f"item {item!r} has communality > 1 (negative uniqueness)")


class AssumptionsNotMet(PsychovalError):
    """Sphericity test not significant: data look uncorrelated."""
