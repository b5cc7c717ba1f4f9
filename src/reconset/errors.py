"""Exception types shared across the package."""

from contextlib import contextmanager


class ReconsetError(Exception):
    """Base class for all library errors."""


class WindowExceededError(ReconsetError):
    """An integral or construction would need data outside the recorded window.

    Carries the window that would have been required so callers can retry.
    """

    def __init__(self, message, required_lo=None, required_hi=None):
        super().__init__(message)
        self.required_lo = required_lo
        self.required_hi = required_hi


class InfeasibleResolutionError(ReconsetError):
    """A requested construction resolution violates a precondition."""


class GrowthCertificateError(ReconsetError):
    """The variation-bound growth certificate failed on the declared grid."""

    def __init__(self, message, slope=None, slope_max=None):
        super().__init__(message)
        self.slope = slope
        self.slope_max = slope_max


class SearchBudgetError(ReconsetError):
    """A search exhausted its budget."""


class ExactnessOverflowError(ReconsetError):
    """An exact integer path would exceed its overflow guard.

    Raised instead of silently wrapping; callers should reduce exponents or
    magnitudes.
    """


class CheckFailedError(ReconsetError):
    """A verification check found a violation (CLI exit code 2)."""


class IndeterminateError(ReconsetError):
    """A check could not be decided at the available accuracy (CLI exit 3)."""


@contextmanager
def decoding(kind: str, source=None):
    """Turn a structural error met while decoding a `kind` artifact (a
    missing key, a value of the wrong type or shape) into a ValueError that
    names the artifact's source."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError) as e:
        where = f"{source}: " if source is not None else ""
        raise ValueError(f"{where}malformed {kind} artifact: {e!r}") from None
