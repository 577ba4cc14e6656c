"""Exception hierarchy shared across the package."""


class ChamberlabError(Exception):
    """Base class for all package-specific errors."""


class ExactDivisionError(ChamberlabError, ArithmeticError):
    """A polynomial division that must be remainder-free left a remainder."""


class RegistryError(ChamberlabError, ValueError):
    """The case registry document is malformed or inconsistent."""


class BoundError(ChamberlabError, ValueError):
    """A parametric case was instantiated outside its admissible range."""


class PipelineError(ChamberlabError, RuntimeError):
    """An internal invariant of the symbolic pipeline failed (a bug, not bad input)."""


class BoundaryError(ChamberlabError, ValueError):
    """A curve state touched or left the open chamber."""

