"""Exception vocabulary shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, DataError -> 2,
NumericError -> 3, and UnscorableRowError on a data file -> 2.
"""


class DataError(Exception):
    """Bad input data or artifact: missing columns, unknown labels, malformed files."""


class TreeParseError(DataError):
    """Malformed tree text or tree JSON."""


class NumericError(Exception):
    """Numerical failure during training (divergence, non-finite loss).

    ``member`` is the index of the failing problem when several trained as
    one stack, so the caller can name it; None otherwise."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class UnscorableRowError(ValueError):
    """A feature row whose node sums could overflow, so that its scores mean
    nothing. ``row`` is its 0-based index among the rows being scored."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row
