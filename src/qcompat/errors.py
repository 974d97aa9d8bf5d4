"""Exception types shared across the toolkit."""


class QCompatError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QCompatError, ValueError):
    """An input object failed validation."""


class NotHermitianError(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class NotPSDError(ValidationError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class TraceNotOneError(ValidationError):
    """Matrix trace differs from one beyond tolerance."""


class NotAnEffectError(ValidationError):
    """Hermitian matrix has an eigenvalue above one."""


class NotUnitVectorError(ValidationError):
    """Vector norm differs from one beyond tolerance."""


class NotUnitaryError(ValidationError):
    """Matrix is not unitary within tolerance."""


class DimensionMismatchError(ValidationError):
    """Operands live in different dimensions."""


class InvalidRankError(ValidationError):
    """Requested rank is outside 1..dim."""


class InvalidWeightsError(ValidationError):
    """Mixture weights violate ordering or normalization."""


class IncompleteMapError(ValidationError):
    """A pure-state map is missing one of the required probe states."""


class FileFormatError(QCompatError):
    """A file does not follow the documented text format."""


class InfeasibleError(QCompatError):
    """The measure's certificate misses a state by more than the feasibility tolerance."""


class NotASymmetryError(QCompatError):
    """A map failed one of the symmetry consistency checks.

    The ``probe`` attribute names the probe or pair that failed, when known.
    """

    def __init__(self, message: str, probe: str | None = None):
        super().__init__(message)
        self.probe = probe
