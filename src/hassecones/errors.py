"""Exception taxonomy shared by the whole package.

Every error raised on a user-facing path derives from HasseConesError, and
each class carries the CLI exit code it maps to in `exit_status`: 2 for
malformed or refused input (the default), 3 for a violated mathematical
precondition, 4 for InternalCheckError.  InternalCheckError is reserved for
postcondition violations: it firing means a bug, not bad input.
"""


class HasseConesError(Exception):
    """Base class for all package errors."""

    exit_status = 2


class SchemaError(HasseConesError):
    """A structured document (profile JSON, flag payload) is malformed."""


class InvariantError(HasseConesError):
    """Well-formed input that violates a mathematical precondition."""

    exit_status = 3


class NotPMaximal(HasseConesError):
    """The order defined by a minimal polynomial fails Dedekind's criterion at p."""

    exit_status = 3


class ForeignEmbedding(HasseConesError):
    """An embedding position that is not an int in [0, d) for the carousel it was used with."""


class DimensionMismatch(HasseConesError):
    """A vector's length disagrees with the ambient dimension."""


class SingletonOrbit(HasseConesError):
    """A fibre-degree computation needs an orbit of length at least two."""


class MultiplierNotDividing(HasseConesError):
    """The embedding's multiplier does not divide the requested power of p."""


class ReductionTooLong(HasseConesError):
    """A greedy reduction walk would exceed its step cap."""


class InternalCheckError(HasseConesError):
    """A self-check that should be unreachable failed; indicates a bug."""

    exit_status = 4
