"""Exception hierarchy shared by all ncsf modules."""

__all__ = [
    "NcsfError",
    "BasisMismatchError",
    "DegreeMismatchError",
    "InvalidSubsetError",
    "MalformedFillingError",
    "NotInDescentSpanError",
    "ResourceLimitError",
    "InternalConsistencyError",
]


class NcsfError(Exception):
    """Base class for all errors raised by this package."""


class BasisMismatchError(NcsfError):
    """Arithmetic attempted between elements carrying different basis tags."""


class DegreeMismatchError(NcsfError):
    """Operands live in incompatible graded components."""


class InvalidSubsetError(NcsfError):
    """A descent set contains elements outside {1, ..., n-1}."""


class MalformedFillingError(NcsfError):
    """A tableau filling is not a bijection onto {1, ..., n}."""


class NotInDescentSpanError(NcsfError):
    """A group-algebra element is not constant on descent classes."""


class ResourceLimitError(NcsfError):
    """A job would exceed a resource bound: a group algebra or command-line
    job of degree above the configured bound (``descent.max_group_degree``),
    a chain count through more shapes than the fixed bound of
    ``tableaux._count_chains``, or a ``tableaux --list`` of more tableaux
    than the command line prints."""


class InternalConsistencyError(NcsfError):
    """An invariant that should hold by theorem failed; indicates a bug."""
