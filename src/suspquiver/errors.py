"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: StructuralError -> 1,
PreconditionError (and subclasses) -> 2.
"""


class SuspensionError(Exception):
    """Base class for all library errors."""


class StructuralError(SuspensionError):
    """Malformed input data: dangling edge endpoints, bad JSON, duplicate ids."""


class PreconditionError(SuspensionError):
    """An operation's stated precondition is not met."""


class CompositionError(PreconditionError):
    """Paths or quiver paths that do not compose."""


class PrecisionError(PreconditionError):
    """A finite-prefix flow computation ran out of precision."""
