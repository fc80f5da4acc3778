"""Exception and warning types shared across the package, the cap on how
much of an input value an error message repeats, the one test of what an
integer input is (`_is_int`: an int, not a bool) and the wording of its
refusal (`_int`), the one check of a Betti list (`_betti`), and `_Frozen`,
the base of every immutable class."""

from operator import attrgetter

# an input value is echoed in its error message up to this many characters
_ECHO_CHARS = 60


def _echo(value) -> str:
    """repr(value), cut to _ECHO_CHARS characters and "…" when longer."""
    text = repr(value)
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "…"


def _is_int(value) -> bool:
    """Whether value is an int and not a bool (other int subclasses pass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value, what: str, least: int | None = None) -> int:
    """value if it is an int, not a bool, and at least `least`; otherwise an
    InputError "<what> must be <an integer | a nonnegative integer (least 0) |
    a positive integer (1) | an integer of at least <least>>, got <echo>"."""
    if not _is_int(value) or least is not None and value < least:
        kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise InputError(f"{what} must be {kind}, got {_echo(value)}")
    return value


def _betti(values) -> list[int]:
    """values as a list, refusing anything but an iterable of nonnegative ints;
    the message echoes the first bad entry, or values if it is not iterable."""
    refusal = "Betti numbers must be nonnegative integers, got "
    try:
        vals = list(values)
    except TypeError:
        raise InputError(refusal + _echo(values)) from None
    for v in vals:
        if not _is_int(v) or v < 0:
            raise InputError(refusal + _echo(v))
    return vals


class _Frozen:
    """An immutable record over the fields its subclass lists in `__slots__`.

    The subclass's `__init__` sets every field once, through
    `object.__setattr__`; after that no field can be assigned or deleted and
    no other attribute added.  Two instances of one class are equal when
    their fields are, in order, and hash as the tuple of their fields; a
    class that compares by identity sets `__eq__` and `__hash__` back to
    `object`'s.  The repr lists the fields whose names have no leading
    underscore, as `Name(field=value, ...)`.  Pickle and `copy` go through
    the tuple of fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value; _values is always a tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __getstate__(self):
        return self._values(self)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class InvarError(Exception):
    """Base class for errors raised by this package."""


class InputError(InvarError, ValueError):
    """Malformed or inconsistent input data (files, matrices, fans, tables)."""


class SearchLimitError(InvarError, RuntimeError):
    """A bounded search exceeded its configured node limit."""


class InputWarning(UserWarning):
    """Recoverable input normalization (pruned components, rescaled rays)."""
