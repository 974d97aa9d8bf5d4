"""Dense foundations: validated states and effects, supports, seeded generators.

Everything here is plain numpy on small dense complex matrices (dimension at
most 64). Objects are frozen after construction and carry their spectral
decomposition, so downstream formulas never re-diagonalize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidRankError,
    NotAnEffectError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
    NotUnitVectorError,
    TraceNotOneError,
    ValidationError,
)

DEFAULT_EPS_RANK = 1e-10
DEFAULT_EPS_MEM = 1e-13
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-12
TRACE_TOL = 1e-12
UNITARY_TOL = 1e-10
MAX_DIM = 64


def as_rng(seed) -> np.random.Generator:
    """Accept an integer seed (>= 0, as for `child_rng`) or a ready generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    return np.random.default_rng(seed)


def _check_tolerance(name: str, value: float) -> None:
    """Raise ValidationError unless ``value`` is a finite number >= 0, the CLI's rule for a tolerance."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream of ``seed`` (an integer >= 0) addressed by an integer key path."""
    if int(seed) < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)


def _square_complex(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise DimensionMismatchError(
            f"dimension {m.shape[0]} outside the supported range 1..{MAX_DIM}"
        )
    return m


def hermitian_defect(matrix: np.ndarray) -> float:
    return float(np.abs(matrix - matrix.conj().T).max())


def _spectral(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # eigh of the hermitized matrix; eigenpairs reordered to descending
    w, v = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    order = np.argsort(w, kind="stable")[::-1]
    return w[order], v[:, order]


@dataclass(frozen=True)
class SpectralOperator:
    """PSD matrix with cached eigensystem (descending eigenvalues).

    Built by `validate_density` (trace one) or `validate_effect` (spectrum
    in [0, 1]); the strength, compatibility and measure formulas read the
    same cached spectral data either way.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    numerical_rank: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PureState:
    """Unit vector; its rank-one projection is built on demand."""

    vector: np.ndarray

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @property
    def projection(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


@dataclass(frozen=True)
class SymmetryOp:
    """A unitary, optionally composed with coordinate-wise conjugation."""

    u: np.ndarray
    antiunitary: bool = False

    @property
    def dim(self) -> int:
        return self.u.shape[0]


def _checked_hermitian(matrix) -> np.ndarray:
    m = _square_complex(matrix)
    # before any arithmetic, so inf - inf never warns
    if not np.isfinite(m).all():
        raise NotHermitianError("matrix has a non-finite entry")
    defect = hermitian_defect(m)
    if not defect <= HERMITIAN_TOL:
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL}")
    return m


def _check_unit_trace(m: np.ndarray) -> None:
    trace = float(np.real(np.trace(m)))
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise TraceNotOneError(f"trace {trace!r} differs from 1 beyond {TRACE_TOL}")


def _numerical_rank(w: np.ndarray) -> int:
    # eigenvalues above DEFAULT_EPS_RANK relative to the largest (w is descending)
    return int(np.count_nonzero(w > DEFAULT_EPS_RANK * w[0])) if w[0] > 0.0 else 0


def _validate(matrix, density: bool) -> SpectralOperator:
    m = _checked_hermitian(matrix)
    w, v = _spectral(m)
    if w[-1] < -PSD_TOL:
        raise NotPSDError(f"lowest eigenvalue {w[-1]:.3e} below -{PSD_TOL}")
    if density:
        _check_unit_trace(m)
        w = np.clip(w, 0.0, None)
    else:
        if w[0] > 1.0 + PSD_TOL:
            raise NotAnEffectError(f"largest eigenvalue {w[0]!r} exceeds 1 beyond {PSD_TOL}")
        w = np.clip(w, 0.0, 1.0)
    return SpectralOperator(m, w, v, _numerical_rank(w))


def validate_density(matrix) -> SpectralOperator:
    """Check Hermiticity, positivity and unit trace; cache the eigensystem.

    Eigenvalues in [-1e-12, 0) are clamped to zero; anything lower raises.
    The numerical rank counts eigenvalues above DEFAULT_EPS_RANK relative to
    the largest one.
    """
    return _validate(matrix, density=True)


def validate_effect(matrix) -> SpectralOperator:
    """Check Hermiticity and that the spectrum sits in [0, 1]; rank as in `validate_density`."""
    return _validate(matrix, density=False)


def _pure_density(p: PureState) -> SpectralOperator:
    """Density operator of a pure state, with its spectral data in closed form.

    The matrix is ``p.projection``, the spectrum (1, 0, ..., 0) and the
    eigenvectors the Householder reflection I - 2 w w*/|w|^2 with
    w = e_0 - c v, whose first column is c v; the phase c sets
    c v_0 = -|v_0|, so w_0 = 1 + |v_0| never cancels. No eigh is needed.
    """
    v = p.vector
    c = -v[0].conj() / abs(v[0]) if v[0] != 0 else -1.0
    w = -c * v
    w[0] += 1.0
    vecs = np.eye(p.dim, dtype=np.complex128) - np.outer(w, w.conj()) * (2.0 / np.vdot(w, w).real)
    vals = np.zeros(p.dim)
    vals[0] = 1.0
    return SpectralOperator(p.projection, vals, vecs, 1)


def pure_state(vector, normalize: bool = False) -> PureState:
    """Build a pure state; with ``normalize`` the vector is rescaled first.

    The vector must be 1-D, and it is copied, so a state made from a matrix
    column never keeps the whole matrix alive.
    """
    v = np.array(vector, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if not 1 <= v.shape[0] <= MAX_DIM:
        raise DimensionMismatchError(f"dimension {v.shape[0]} outside 1..{MAX_DIM}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise NotUnitVectorError("zero vector cannot be normalized")
    if not math.isfinite(norm):
        raise NotUnitVectorError(f"norm {norm!r} is not finite")
    if normalize:
        v = v / norm
    elif not abs(norm - 1.0) <= 1e-12:
        raise NotUnitVectorError(f"norm {norm!r} differs from 1 beyond 1e-12")
    return PureState(v)


def symmetry_op(u, antiunitary: bool = False) -> SymmetryOp:
    m = _square_complex(u)
    if not np.isfinite(m).all():
        raise NotUnitaryError("matrix has a non-finite entry")
    defect = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if not defect <= UNITARY_TOL:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {UNITARY_TOL}")
    return SymmetryOp(m, bool(antiunitary))


def sqrt_psd(op: SpectralOperator) -> np.ndarray:
    """PSD square root from the cached spectral decomposition."""
    root = (op.eigenvectors * np.sqrt(op.eigenvalues)) @ op.eigenvectors.conj().T
    return (root + root.conj().T) / 2.0


def support(op: SpectralOperator) -> np.ndarray:
    """Orthonormal support basis: the eigenvectors above the rank threshold, as (dim, rank) columns."""
    return op.eigenvectors[:, : op.numerical_rank].copy()


def _principal_rotations(u: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Shared directions of span ``u`` and span ``v``, from one SVD of u* v.

    The singular values are the cosines of the principal angles, descending
    (Björck & Golub 1973). A direction is shared when sin^2 = 1 - cos^2 is at
    most DEFAULT_EPS_MEM, the cut `strength` puts on a ray's kernel weight.
    Returns that count k and the two rotations, whose first k columns turn
    ``u`` and ``v`` into bases of the shared part.
    """
    x, cos, yh = np.linalg.svd(u.conj().T @ v)
    return int(np.count_nonzero(1.0 - cos**2 <= DEFAULT_EPS_MEM)), x, yh.conj().T


def subspace_intersection_dim(u: np.ndarray, v: np.ndarray) -> int:
    """Number of principal angles between span ``u`` and span ``v`` with sin^2 <= DEFAULT_EPS_MEM.

    ``u`` and ``v`` hold orthonormal bases as columns, as `support` returns.
    """
    if u.shape[0] != v.shape[0]:
        raise DimensionMismatchError("subspaces live in different ambient dimensions")
    if u.shape[1] == 0 or v.shape[1] == 0:
        return 0
    return _principal_rotations(u, v)[0]


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Gaussian matrix."""
    rng = as_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rank: int, seed) -> SpectralOperator:
    """Random state of exact numerical rank.

    Spectrum is Dirichlet-like with a floor of 0.05/(1 + 0.05 rank) so the
    requested rank never collapses through the rank threshold. The drawn
    spectrum (padded with zeros) and the Haar basis it sits on are returned
    as the eigensystem, so no eigh runs and no check is repeated: the matrix
    is hermitized and built from a spectrum that sums to 1.
    """
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatchError(f"dimension {dim} outside 1..{MAX_DIM}")
    if not 1 <= rank <= dim:
        raise InvalidRankError(f"rank {rank} outside 1..{dim}")
    rng = as_rng(seed)
    v = haar_unitary(dim, rng)
    raw = rng.dirichlet(np.ones(rank))
    lam = (raw + 0.05) / (1.0 + 0.05 * rank)
    lam = np.sort(lam)[::-1]
    lam = lam / lam.sum()
    m = (v[:, :rank] * lam) @ v[:, :rank].conj().T
    w = np.zeros(dim)
    w[:rank] = lam
    return SpectralOperator((m + m.conj().T) / 2.0, w, v, _numerical_rank(w))


def _random_rays(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` random unit vectors as the columns of a (dim, count) array.

    Ray k is built from the k-th pair of ``dim`` standard-normal draws (real
    parts, then imaginary parts) and divided by its own norm, so the columns
    are bit for bit the vectors of ``count`` successive `random_pure` calls
    on the same generator.
    """
    g = rng.standard_normal((count, 2, dim))
    z = g[:, 0] + 1j * g[:, 1]
    return (z / np.array([np.linalg.norm(r) for r in z])[:, None]).T


def random_pure(dim: int, seed) -> PureState:
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatchError(f"dimension {dim} outside 1..{MAX_DIM}")
    return pure_state(_random_rays(dim, 1, as_rng(seed))[:, 0])


def random_symmetry(dim: int, antiunitary: bool = False, seed=0) -> SymmetryOp:
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatchError(f"dimension {dim} outside 1..{MAX_DIM}")
    return symmetry_op(haar_unitary(dim, seed), antiunitary)
