"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map exceptions to stable exit codes.
"""


def require(name: str, value, ok: bool, rule: str) -> None:
    """Reject a setting: ``ValueError("name: must be rule, got value")`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{name}: must be {rule}, got {value}")


class NesimError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(NesimError):
    """A linear solve met a matrix conditioned beyond the singularity threshold."""


class NotSymmetric(NesimError):
    """Eigenvalue routine was handed a matrix that is not symmetric."""


class NoConvergence(NesimError):
    """An iterative routine exhausted its iteration budget."""


class NonFiniteState(NesimError):
    """An integration stage produced NaN or Inf (closed-loop divergence).

    ``columns``, when known, is the boolean mask of the non-finite columns
    of a ``(dim, B)`` state; a flat state counts as one column.
    """

    def __init__(self, message: str = "", columns=None):
        super().__init__(message)
        self.columns = columns


class Disconnected(NesimError):
    """The communication graph is not connected."""


class NotStronglyMonotone(NesimError):
    """The game's pseudo-gradient is not strongly monotone."""


class InvalidSpectrum(NesimError):
    """Recurrence coefficients whose roots are not distinct with zero real part."""


class SingularT(NesimError):
    """The conjugating matrix from the Sylvester solve is singular."""


class InvalidParameter(NesimError):
    """A model parameter violates its admissibility constraint."""


class EscalationExhausted(NesimError):
    """Gain escalation hit the round limit without a passing run."""


class ConfigError(NesimError):
    """Scenario file is malformed; message carries the offending field."""
