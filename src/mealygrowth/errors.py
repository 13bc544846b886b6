"""The exception types and the value-class base that every module shares."""


class CapacityError(RuntimeError):
    """A configured resource cap (states, elements, level width) was exceeded."""


class VerificationError(RuntimeError):
    """Two independent routes to the same result disagreed."""


class AutomatonFormatError(ValueError):
    """Malformed automaton description file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Value:
    """An immutable record: its fields are its class's ``__slots__``, set once by ``_set``."""

    __slots__ = ()
    _unshown = ()  # fields that repr leaves out

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n not in self._unshown)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __reduce__(self):  # copy and pickle call the constructor, which validates again
        return self.__class__, self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
