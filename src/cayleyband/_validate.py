"""The one argument check behind every public entry point's integer inputs."""

from __future__ import annotations


def require_int(value: object, minimum: int, message: str) -> None:
    """Raise ValueError unless value is an int of at least minimum.

    A bool is rejected although it is an int subclass: ``True`` passed as a
    size is a caller's mistake, not the number 1.  message is a format
    string; ``{!r}`` in it receives the rejected value.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(message.format(value))


def require_band_parameter(r: object) -> None:
    require_int(r, 2, "band parameter r must be an integer >= 2, got {!r}")
