"""Exception hierarchy shared by all modules."""


class OpdynError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OpdynError, ValueError):
    """Invalid argument: bad dimension, parameter out of range, NaN entry."""


class SchemaError(InputError):
    """Malformed game or config document. Carries the offending location."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class ResourceError(OpdynError, RuntimeError):
    """A computation on valid input could not deliver its certified result.

    Either an iteration or step cap was hit before the requested tolerance,
    or a numerical solver failed its own certificate (a matrix game whose
    primal-dual gap exceeds its tolerance, a strategy entry below the clamp
    tolerance, an unbounded or non-terminating simplex).
    """


def convert(read, value, what):
    """read(value), where read converts a config value (int, float, a list
    of floats, a constructor); a TypeError, ValueError or OverflowError it
    raises, an InputError included, becomes an InputError naming what,
    unless it is an InputError that names what already or a SchemaError (a
    malformed game document stays one, wherever it is read)."""
    try:
        return read(value)
    except SchemaError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, InputError) and str(exc).startswith((f"{what}:", f"{what}.")):
            raise
        raise InputError(f"{what}: {exc}") from None
