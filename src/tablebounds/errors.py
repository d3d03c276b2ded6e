"""Semantic exception hierarchy shared by all tablebounds modules."""


class TableBoundsError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(TableBoundsError):
    """A file or document does not match its expected schema."""


class RangeError(TableBoundsError):
    """An index, variable, cell, or parameter is out of range."""


class CountRangeError(RangeError):
    """An integer count, or the grand total of a table, does not fit in int64."""


class LatticeCapError(RangeError):
    """The number of variables exceeds the configured subset-lattice cap."""


class MissingMarginalError(TableBoundsError):
    """A bound or evaluation needs a marginal the family cannot provide."""

    def __init__(self, missing, message=None):
        self.missing = tuple(missing)
        if message is None:
            message = "required marginals not derivable: " + ", ".join(
                str(m) for m in self.missing
            )
        super().__init__(message)


class InconsistentFamilyError(TableBoundsError):
    """Released marginals disagree on a common sub-marginal."""

    def __init__(self, witness, message):
        self.witness = witness
        super().__init__(message)


class SearchSpaceError(TableBoundsError):
    """A brute-force search space exceeds its configured cap."""


class NonpositiveValueError(TableBoundsError):
    """A strictly positive function is required but a value <= 0 was found."""


class UnnormalizedError(TableBoundsError):
    """A probability mass function does not sum to one within tolerance."""


class BudgetExhaustedError(TableBoundsError):
    """An enumeration budget ran out where a complete result was required."""


class CertificationError(TableBoundsError):
    """A formula bound excluded a table realizable from the marginals.

    Carries the attaining table; this falsifies an implementation, never
    the inequalities themselves.
    """

    def __init__(self, message, table):
        self.table = table
        super().__init__(message)
