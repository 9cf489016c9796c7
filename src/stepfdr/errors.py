"""Error types shared across the package."""

__all__ = ["DataError", "InvariantViolation"]


class DataError(ValueError):
    """Input data violates the documented schema or is impossible (e.g. c1 > n1)."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
