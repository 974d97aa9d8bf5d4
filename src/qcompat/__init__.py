"""Numerical toolkit for state compatibility, decomposition overlap
measures, and symmetry reconstruction from pure-state data."""

from importlib import import_module as _import_module

from .errors import (
    DimensionMismatchError,
    FileFormatError,
    IncompleteMapError,
    InfeasibleError,
    InvalidRankError,
    InvalidWeightsError,
    NotAnEffectError,
    NotASymmetryError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
    NotUnitVectorError,
    QCompatError,
    TraceNotOneError,
    ValidationError,
)
from .measure import (
    Decomposition,
    MeasureConfig,
    MeasureResult,
    example_measure,
    fidelity,
    is_compatible,
    measure_symmetric,
)
from .states import (
    PureState,
    SpectralOperator,
    SymmetryOp,
    haar_unitary,
    pure_state,
    random_density,
    random_pure,
    random_symmetry,
    subspace_intersection_dim,
    support,
    symmetry_op,
    validate_density,
    validate_effect,
)
from .strength import (
    StrengthResult,
    effects_equal_by_strength,
    strength,
    strength_oracle,
    two_state_formula,
)

# The symmetry layer loads on first use (PEP 562), so CLI commands that never
# reach it start without it. The other layers stay eager: `strength` names
# both a submodule and a function here.
_SYMMETRY_NAMES = (
    "PureStateMap",
    "VerificationResult",
    "apply_symmetry",
    "pure_state_map",
    "rank_via_compatibility",
    "symmetry_overlap",
    "symmetry_probe_map",
    "transform_pure",
    "transition_prob",
    "verify_theorem",
    "wigner_reconstruct",
)


def __getattr__(name: str):
    if name == "symmetry" or name in _SYMMETRY_NAMES:
        symmetry = _import_module(".symmetry", __name__)
        return symmetry if name == "symmetry" else getattr(symmetry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + ["symmetry", *_SYMMETRY_NAMES]
