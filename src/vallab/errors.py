"""Shared exception types."""


class VallabError(Exception):
    """Base class for library errors."""


class ValidationError(VallabError, ValueError):
    """A construction or CLI parameter violates a documented precondition.

    Also a ValueError, since every such violation is a bad argument value.
    """


class PrecisionError(VallabError):
    """A result cannot be certified at the working precision."""
