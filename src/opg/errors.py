"""Exception types shared across the package."""


class OpgError(Exception):
    """Base class for package errors."""


class ValidationError(OpgError, ValueError):
    """Invalid input data, configuration, or file content."""


class DataFormatError(ValidationError):
    """Malformed input file (CSV/JSON parsing and schema problems)."""


class EnumerationCapError(ValidationError):
    """A grader ranked more items than the score-weighted permutation model's
    exact likelihood allows: its subset recursion costs O(2^m * m) per grader."""
