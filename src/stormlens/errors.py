"""Exception hierarchy shared across the package.

``InputError`` (and subclasses) mark problems the user can fix: bad files,
bad flags, bad config. Everything else under ``StormlensError`` is an
internal or numeric failure. The CLI maps the former to exit code 2 and the
latter to exit code 1.
"""


class StormlensError(Exception):
    """Base class for all package errors."""


class InputError(StormlensError):
    """Invalid user input: files, arguments, configuration."""


class SchemaError(InputError):
    """A data file does not match the documented schema."""


class SingularSystemError(StormlensError):
    """A linear system could not be solved (singular normal matrix)."""


class ModelOverflowError(StormlensError):
    """A forward pass produced a non-finite activation."""

    def __init__(self, step: int, where: str = ""):
        self.step = step
        super().__init__(f"non-finite activation at time step {step}{where}")


class NonFiniteParameterError(StormlensError):
    """A model parameter holds NaN or infinity, as after a diverged training run."""
