"""Shared exception types."""


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
