"""Exception taxonomy shared by the whole package.

Every error raised on a user-facing path derives from HasseConesError so the
CLI can map it to a stable exit code.  InternalCheckError is reserved for
postcondition violations: it firing means a bug, not bad input.
"""


class HasseConesError(Exception):
    """Base class for all package errors."""


class SchemaError(HasseConesError):
    """A structured document (profile JSON, flag payload) is malformed."""


class InvariantError(HasseConesError):
    """Well-formed input that violates a mathematical precondition."""


class NotPMaximal(HasseConesError):
    """The order defined by a minimal polynomial fails Dedekind's criterion at p."""


class ForeignEmbedding(HasseConesError):
    """An embedding that does not belong to the carousel it was used with."""


class DimensionMismatch(HasseConesError):
    """A vector's length disagrees with the ambient dimension."""


class DimensionTooLarge(HasseConesError):
    """An input's degree exceeds a documented cap (the selftest panel's)."""


class NotReducible(HasseConesError):
    """A reduction step was requested in a direction that is not reducible."""


class SingletonOrbit(HasseConesError):
    """A fibre-degree computation needs an orbit of length at least two."""


class MultiplierNotDividing(HasseConesError):
    """The embedding's multiplier does not divide the requested power of p."""


class InternalCheckError(HasseConesError):
    """A self-check that should be unreachable failed; indicates a bug."""
