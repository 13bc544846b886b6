"""The exception types, the value-class base and the collector pause that every module shares."""

import functools
import gc


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


def gc_paused(kernel):
    """Run ``kernel`` with the cyclic garbage collector disabled, then re-enable
    it if it was enabled on entry, also when the kernel raises.

    Only for kernels that build no reference cycles (int tuples, int lists,
    dicts keyed by them): reference counting frees all of it, so the
    collector's scans of those objects find nothing and only cost time.

    The pause is process-wide: while the kernel runs, no thread's cyclic
    garbage is collected. Saving and restoring the collector's state assumes
    one thread calls into the library; a thread that changes it meanwhile,
    or a second kernel running alongside, can find it reset on return.
    """
    @functools.wraps(kernel)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return kernel(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused
