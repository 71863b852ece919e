"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: verification failure
-> 1, bad input -> 2, I/O trouble -> 3, Euler-class integrality
failure -> 4.
"""


class InputError(ValueError):
    """Caller-supplied data violates a documented precondition."""


class IntegralityError(RuntimeError):
    """Lifted relator displacement is not within tolerance of an integer
    multiple of pi, so no Euler class can be read off."""


class VerificationError(RuntimeError):
    """A computed result fails the gate that certifies it, e.g. generators
    whose relator residual exceeds reps.RELATOR_TOLERANCE."""


class ConventionWarning(UserWarning):
    """A descriptor is arithmetically valid but sits outside the geometric
    admissibility regime (for example f = +-e)."""
