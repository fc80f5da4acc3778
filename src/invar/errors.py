"""Exception and warning types shared across the package, and the cap on
how much of an input value an error message repeats."""

# an input value is echoed in its error message up to this many characters
_ECHO_CHARS = 60


def _echo(value) -> str:
    """repr(value), cut to _ECHO_CHARS characters and "…" when longer."""
    text = repr(value)
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "…"


class InvarError(Exception):
    """Base class for errors raised by this package."""


class InputError(InvarError, ValueError):
    """Malformed or inconsistent input data (files, matrices, fans, tables)."""


class SearchLimitError(InvarError, RuntimeError):
    """A bounded search exceeded its configured node limit."""


class InputWarning(UserWarning):
    """Recoverable input normalization (pruned components, rescaled rays)."""
