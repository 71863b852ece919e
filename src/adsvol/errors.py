"""Exception types shared across the package, and its integer and genus checks.

The CLI maps these onto its exit-code contract: bad input -> 2, I/O
trouble -> 3, no readable Euler class -> 4.  A verification failure
(exit 1) is no exception: the handler that finds it returns that code.
"""


class InputError(ValueError):
    """Caller-supplied data violates a documented precondition."""


def _require_int(name: str, value) -> None:
    """Refuse anything but an int; bool is refused too."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")


def _require_genus(name: str, value) -> None:
    """Refuse anything but the genus of a closed surface group, an int
    >= 2 (so bool is refused too)."""
    if not isinstance(value, int) or value < 2:
        raise InputError(f"{name} must be an integer >= 2")


class IntegralityError(RuntimeError):
    """The relator of a representation does not close within
    reps.RELATOR_TOLERANCE, so it is not +-I up to noise and no Euler
    class can be read off its orientation signs."""


class ConventionWarning(UserWarning):
    """A descriptor is arithmetically valid but sits outside the geometric
    admissibility regime (for example f = +-e)."""
