"""Dense foundations: validated states and effects, supports, seeded generators.

Everything here is plain numpy on small dense complex matrices (dimension at
most 64). Objects are frozen after construction and carry their spectral
decomposition, so downstream formulas never re-diagonalize.
The input rules of every layer and the CLI live here, one `_check_*` function
each: equal dimensions, stacked rays, dimension range, counts and seeds,
norms. No rule checks a tolerance: every tolerance is a fixed constant.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

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
NORM_TOL = 1e-12
MAX_DIM = 64
_EPS = float(np.finfo(np.float64).eps)
# the rank-one test on the raw matrix: this share of the cut, for a trace up to _RAW_TRACE (`_as_rank_one`)
_RAW_SHARE = 0.5
_RAW_TRACE = 1.25


def _check_same_dim(what: str, first: int, second: int) -> None:
    """Raise DimensionMismatchError unless two operands (named by ``what``) share one dimension."""
    if first != second:
        raise DimensionMismatchError(f"{what} dims differ: {first} != {second}")


def _check_stacked(what: str, first: np.ndarray, second: np.ndarray) -> None:
    """Raise DimensionMismatchError unless two stacks of rays (named by ``what``) are 2-D arrays of one shape."""
    if first.ndim != 2 or first.shape != second.shape:
        raise DimensionMismatchError(f"{what} must be 2-D arrays of one shape, got {first.shape} and {second.shape}")


def _is_integer(value) -> bool:
    """A Python or numpy int, never a bool: the integer sense of the count, seed and dimension rules."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_dim(dim: int, least: int = 1) -> None:
    """Raise DimensionMismatchError unless ``dim`` is an integer (`_is_integer`) in least..MAX_DIM, by default 1..MAX_DIM."""
    if not _is_integer(dim):
        raise DimensionMismatchError(f"dimension must be an integer in {least}..{MAX_DIM}, got {dim!r}")
    if not least <= dim <= MAX_DIM:
        raise DimensionMismatchError(f"dimension {dim} outside {least}..{MAX_DIM}")


def _check_count(name: str, value, least: int = 0) -> None:
    """Raise ValidationError unless ``value`` is an integer (`_is_integer`) >= ``least``; also the seed rule."""
    if not (_is_integer(value) and value >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_norms(what: str, norms, unit: bool = False) -> None:
    """Raise NotUnitVectorError unless each norm (a float or an array) is nonzero and finite, or 1 with ``unit``."""
    ok = abs(norms - 1.0) <= NORM_TOL if unit else (norms > 0.0) & (norms < math.inf)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        rule = f"1 within {NORM_TOL}" if unit else "nonzero and finite"
        raise NotUnitVectorError(f"{what} has norm {float(np.ravel(norms)[np.argmin(ok)])!r}, not {rule}")


def as_rng(seed) -> np.random.Generator:
    """Accept an integer seed (>= 0, as for `child_rng`) or a ready generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    _check_count("seed", seed)
    return np.random.default_rng(seed)


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream of ``seed`` (an integer >= 0) addressed by an integer key path."""
    _check_count("seed", seed)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)


def _square_complex(matrix, error: type[ValidationError]) -> np.ndarray:
    """The matrix as complex128, once it is square, of a dimension in 1..MAX_DIM and finite (else ``error``)."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    _check_dim(m.shape[0])
    # before any arithmetic, so inf - inf never warns
    if not np.isfinite(m).all():
        raise error("matrix has a non-finite entry")
    return m


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """PSD matrix with cached eigensystem (descending eigenvalues).

    Built by `validate_density` (trace one) or `validate_effect` (spectrum
    in [0, 1]); the strength, compatibility and measure formulas read the
    same cached spectral data either way, and the rank is read from that spectrum.
    ``leading`` holds the first m eigenvectors as (dim, m) columns: all dim
    of them when eigh gives them, at least the support otherwise (a drawn
    state stores exactly its support, a rank-one input its one ray), and
    every eigenvalue past m is zero. No kernel basis is kept: a ray's
    distance from the support is its residual off `support`. Every
    constructor stores ``leading`` C-ordered: products round by layout.

    ``source`` is the matrix itself, as validation and `random_density`
    store it, or a formula that builds it from the operator's spectral data
    (`_pure_density`, `apply_symmetry`). `matrix` reads it, calling the
    formula on the first read only, so an operator whose matrix no one reads
    stays O(d m); ``dim`` reads ``leading``.
    """

    source: np.ndarray | Callable[[SpectralOperator], np.ndarray]
    eigenvalues: np.ndarray
    leading: np.ndarray

    @property
    def dim(self) -> int:
        return self.leading.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.source(self) if callable(self.source) else self.source

    @cached_property
    def numerical_rank(self) -> int:
        """Eigenvalues above DEFAULT_EPS_RANK relative to the largest; 0 when none is positive."""
        w = self.eigenvalues
        return int(np.count_nonzero(w > DEFAULT_EPS_RANK * w[0])) if w[0] > 0.0 else 0


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector; its rank-one projection is built on demand."""

    vector: np.ndarray

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @property
    def projection(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


@dataclass(frozen=True, eq=False)
class SymmetryOp:
    """A unitary, optionally composed with coordinate-wise conjugation."""

    u: np.ndarray
    antiunitary: bool = False

    @property
    def dim(self) -> int:
        return self.u.shape[0]


def _checked_hermitian(m: np.ndarray) -> np.ndarray:
    """The hermitized (m + m*) / 2 of a `_square_complex` matrix, once max |m - m*| <= HERMITIAN_TOL entry by entry (else NotHermitianError)."""
    mh = m.conj().T
    defect = float(np.abs(m - mh).max())
    if not defect <= HERMITIAN_TOL:
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL}")
    return (m + mh) / 2.0


def _check_unit_trace(trace: float) -> None:
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise TraceNotOneError(f"trace {trace!r} differs from 1 beyond {TRACE_TOL}")


def _rank_one(source, vector: np.ndarray, top: float) -> SpectralOperator:
    """The operator form of a rank-one matrix (``source``, as in `SpectralOperator`): spectrum (top, 0, ..., 0), the unit ``vector`` its one stored column."""
    w = np.zeros(vector.shape[0])
    w[0] = top
    return SpectralOperator(source, w, vector[:, None])


def _as_rank_one(x: np.ndarray, m: np.ndarray, trace: float, share: float) -> SpectralOperator | None:
    """``m``'s operator form when ``x``, ``m`` or its hermitized h, is rank one to working precision, else None.

    With j the largest diagonal entry of x and c = h[:, j] / sqrt(h_jj), x is
    taken as c c* when ||x - c c*||_F <= share * cut, cut = 4 sqrt(d) eps
    min(1, |c|^2), at most 7.1e-15 at d = 64: 140x below PSD_TOL and 10^4 x
    below DEFAULT_EPS_RANK |c|^2. h's pivot column is formed alone, as
    (m[:, j] + m[j, :].conj()) / 2.0, which is h[:, j] bit for bit, so a
    test on m and one on h take the same j, c and |c|^2. On h with share 1,
    every eigenvalue of h is within the cut of (|c|^2, 0, ..., 0) (Weyl), so
    the PSD check, the rank (1) and `validate_effect`'s upper bound decide
    as on eigh's spectrum, the last one up to a top eigenvalue within the
    cut of its bound. A PSD h has tr(h)^2 = ||h||_F^2 exactly when it is
    rank one, and under the cut the two differ by about 8 d eps tr(h)^2 at
    most (Hoffman-Wielandt); an input whose two differ by more than twice
    that, the rest left for rounding, pays only this one O(d^2) sum before
    eigh. ``trace`` is Re tr(m), which is tr(h).

    `_validate` tests m first, with share 1/2 and only when Re tr(m) <= 5/4,
    which keeps |c|^2 <= 5/4 (to 3e-14). A pass there implies a pass on h,
    so it stores the bytes and raises the errors that the route through h
    would. Let r be the rounded c c*, R = m - r and ||R||_F <= cut / 2. Each
    entry of r is one complex product, so ||r - c c*||_F <= sqrt(2) eps
    |c|^2, and r's anti-Hermitian part A has ||A||_F <= 0.75 eps |c|^2,
    with a fused multiply-add or without. Then:
    - the Hermitian rule holds: ||m - m*||_F <= 2 ||A||_F + 2 ||R||_F,
      at most 7.6e-15, far below HERMITIAN_TOL;
    - the test on h holds: rounding each entry of m + m* adds at most
      eps ||h||_F / 2 (the halving is exact), so ||h - r||_F <= ||R||_F +
      ||A||_F + eps |c|^2 / 2 <= cut / 2 + 1.25 eps |c|^2. That is at most
      0.82 cut when |c|^2 <= 1, and 0.9 cut up to |c|^2 = 5/4, where the
      cut no longer grows with |c|^2 (d = 1 is the worst case);
    - h's sum test holds: with ||h - c c*||_F <= 0.9 cut + sqrt(2) eps
      |c|^2, tr(h)^2 and ||h||_F^2 differ by at most 2 |c|^2 sqrt(d - 1)
      ||h - c c*||_F (plus its square), under 0.7 x 16 d eps tr(h)^2.
    The 10% and 30% left are far above the rounding of the sums. Past a
    trace of 5/4 the rounding of r and of h could outgrow the fixed cut,
    so such a matrix goes to h at once.
    """
    dim = x.shape[0]
    if not abs(trace * trace - float(np.vdot(x, x).real)) <= 16.0 * dim * _EPS * trace * trace:
        return None
    j = int(x.diagonal().real.argmax())
    column = (m[:, j] + m[j, :].conj()) / 2.0
    pivot = float(column[j].real)
    if not pivot > 0.0:
        return None
    c = column / math.sqrt(pivot)
    top = float(np.vdot(c, c).real)
    r = np.multiply(c[:, None], c.conj())
    np.subtract(x, r, out=r)
    cut = share * 4.0 * math.sqrt(dim) * _EPS * min(1.0, top)
    if not np.vdot(r, r).real <= cut * cut:
        return None
    return _rank_one(m, c / math.sqrt(top), top)


def _validate(matrix, density: bool) -> SpectralOperator:
    m = _square_complex(matrix, NotHermitianError)
    trace = float(m.trace().real)
    op = _as_rank_one(m, m, trace, _RAW_SHARE) if trace <= _RAW_TRACE else None
    if op is None:
        h = _checked_hermitian(m)
        op = _as_rank_one(h, m, trace, 1.0)
        if op is None:
            w, v = np.linalg.eigh(h)
            op = SpectralOperator(m, w[::-1].copy(), v[:, ::-1].copy())
    w = op.eigenvalues
    if w[-1] < -PSD_TOL:
        raise NotPSDError(f"lowest eigenvalue {w[-1]:.3e} below -{PSD_TOL}")
    if density:
        _check_unit_trace(trace)
    elif w[0] > 1.0 + PSD_TOL:
        raise NotAnEffectError(f"largest eigenvalue {w[0]!r} exceeds 1 beyond {PSD_TOL}")
    return op


def validate_density(matrix) -> SpectralOperator:
    """Check Hermiticity, positivity and unit trace; cache the eigensystem.

    Eigenvalues down to -1e-12 are accepted and cached as eigh returns them;
    anything lower raises. The numerical rank counts eigenvalues above
    DEFAULT_EPS_RANK relative to the largest one. The route: shape and
    finiteness; the rank-one test on the matrix m at half the cut; the
    Hermitian rule; the rank-one test on the hermitized h; eigh. A pass on
    m implies the Hermitian rule and a pass on h (`_as_rank_one`), so it
    skips the Hermitian pass and h's d x d copy. An input that is rank one
    to working precision skips eigh: it stores one column and the spectrum
    (|c|^2, 0, ..., 0), with every check kept.
    """
    return _validate(matrix, density=True)


def validate_effect(matrix) -> SpectralOperator:
    """Check Hermiticity and that the spectrum sits in [0, 1]; rank as in `validate_density`."""
    return _validate(matrix, density=False)


def _projection(op: SpectralOperator) -> np.ndarray:
    """v v* of a rank-one operator's one stored column v, by `np.outer` as ``PureState.projection``."""
    v = op.leading[:, 0]
    return np.outer(v, v.conj())


def _pure_density(p: PureState) -> SpectralOperator:
    """Density operator of a pure state, with its spectral data in closed form.

    The spectrum is (1, 0, ..., 0), so rank 1, and the one stored
    eigenvector is ``p.vector`` itself, as a (dim, 1) column: the `_rank_one`
    form that validation also gives a rank-one input. No eigh runs, and no
    d x d array is built until ``matrix`` is read: it is then
    ``p.projection``, bit for bit.
    """
    return _rank_one(_projection, p.vector, 1.0)


def pure_state(vector, normalize: bool = False) -> PureState:
    """Build a pure state; with ``normalize`` the vector is rescaled first.

    The vector must be 1-D, and it is copied, so a state made from a matrix
    column never keeps the whole matrix alive.
    """
    v = np.array(vector, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    _check_dim(v.shape[0])
    norm = float(np.linalg.norm(v))
    _check_norms("vector", norm, unit=not normalize)
    if normalize:
        v = v / norm
    return PureState(v)


def symmetry_op(u, antiunitary: bool = False) -> SymmetryOp:
    m = _square_complex(u, NotUnitaryError)
    defect = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if not defect <= UNITARY_TOL:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {UNITARY_TOL}")
    return SymmetryOp(m, bool(antiunitary))


def support(op: SpectralOperator) -> np.ndarray:
    """The eigenvectors above the rank threshold as a (dim, rank) view of ``op.leading``; never write to it."""
    return op.leading[:, : op.numerical_rank]


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
    if u.ndim != 2 or v.ndim != 2:
        raise DimensionMismatchError(f"expected bases as 2-D arrays, got shapes {u.shape} and {v.shape}")
    _check_same_dim("ambient", u.shape[0], v.shape[0])
    if u.shape[1] == 0 or v.shape[1] == 0:
        return 0
    return _principal_rotations(u, v)[0]


def _haar_columns(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``count`` columns of a Haar unitary, phase-corrected QR (Mezzadri 2007).

    Both dim x dim Gaussians are drawn, so ``rng`` advances as for the whole
    unitary, but only their first ``count`` columns are factored: the reduced
    QR of those columns gives the same Q columns and R diagonal as the full one.
    """
    real, imag = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
    z = (real[:, :count] + 1j * imag[:, :count]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Gaussian matrix."""
    _check_dim(dim)
    return _haar_columns(dim, dim, as_rng(seed))


def random_density(dim: int, rank: int, seed) -> SpectralOperator:
    """Random state of exact numerical rank.

    Spectrum is Dirichlet-like with a floor of 0.05/(1 + 0.05 rank) so the
    requested rank never collapses through the rank threshold. The drawn
    spectrum (padded with zeros) and the first ``rank`` columns of the Haar
    unitary it sits on are returned as the eigensystem, so no eigh runs and
    no check is repeated: the matrix is hermitized and built from a spectrum
    that sums to 1. The generator advances as for the whole unitary, and the
    columns, matrix and spectrum are bit for bit those of the full draw.
    """
    _check_dim(dim)
    if _is_integer(rank) and not 1 <= rank <= dim:
        raise InvalidRankError(f"rank {rank} outside 1..{dim}")
    _check_count("rank", rank, 1)  # what is left to reject: a bool or a non-integer
    rng = as_rng(seed)
    v = _haar_columns(dim, rank, rng)
    raw = rng.dirichlet(np.ones(rank))
    lam = (raw + 0.05) / (1.0 + 0.05 * rank)
    lam = np.sort(lam)[::-1]
    lam = lam / lam.sum()
    m = (v * lam) @ v.conj().T
    w = np.zeros(dim)
    w[:rank] = lam
    return SpectralOperator((m + m.conj().T) / 2.0, w, v)


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
    _check_dim(dim)
    return pure_state(_random_rays(dim, 1, as_rng(seed))[:, 0])


def random_symmetry(dim: int, antiunitary: bool = False, seed=0) -> SymmetryOp:
    return symmetry_op(haar_unitary(dim, seed), antiunitary)
