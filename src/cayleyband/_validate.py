"""The one argument check behind every public entry point's integer inputs."""

from __future__ import annotations


class InputError(ValueError):
    """A public entry point rejected an argument: the caller's mistake, not
    a fault in the computation."""


def is_int(value: object, minimum: int) -> bool:
    """True if value is an int of at least minimum.

    A bool is not one although it is an int subclass: ``True`` passed as a
    size or an exponent is a caller's mistake, not the number 1.
    """
    return not isinstance(value, bool) and isinstance(value, int) and value >= minimum


def require_int(value: object, minimum: int, message: str) -> None:
    """Raise InputError unless is_int(value, minimum).

    message is a format string; ``{!r}`` in it receives the rejected value.
    """
    if not is_int(value, minimum):
        raise InputError(message.format(value))


def require_band_parameter(r: object) -> None:
    require_int(r, 2, "band parameter r must be an integer >= 2, got {!r}")
