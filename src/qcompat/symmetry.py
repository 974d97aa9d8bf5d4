"""Reconstruction of symmetries from pure-state data and its verification.

`wigner_reconstruct` rebuilds the unitary or antiunitary operator that
implements a map of pure states from the images of a probe family, or
raises NotASymmetryError naming the probe that failed. `verify_theorem`
rebuilds the operator of a map of density operators from its pure probes
and checks it on seeded mixed states and on strength functionals.

A `PureStateMap` holds its rays stacked, row i of ``ins`` mapping to row i
of ``outs``, and is the one place where a map's own rules run: one (n, dim)
shape, n >= 1, dim in 2..64, unit rows. `pure_state_map` adds one dim per
entry and distinct inputs; maps built on the probe family, whose rays are
distinct, skip it. The pairwise checks are Gram-matrix tests over the
stacked rays; an error names the first failing pair in row-major order.
One tolerance, `MAP_TOL`, bounds every check on a map. README, "Cost of
the symmetry layer", says what each speed device saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IncompleteMapError, NotASymmetryError, ValidationError
from .states import (
    MAX_DIM,
    PureState,
    SpectralOperator,
    SymmetryOp,
    _EPS,
    _check_count,
    _check_dim,
    _check_norms,
    _check_same_dim,
    _check_stacked,
    _check_unit_trace,
    _pure_density,
    child_rng,
    pure_state,
    random_density,
    symmetry_op,
)
from .strength import effects_equal_by_strength

_RAY_MATCH = 1.0 - 1e-10
_DUPLICATE_OVERLAP = 1.0 - 1e-8
# the reconstruction story is vacuous on a one-dimensional space
_MIN_DIM = 2
# largest transition-probability change, purity or fit shortfall and mixed-state error a symmetry may show
MAP_TOL = 1e-8
# Newton–Schulz steps the snap to a unitary may take: past the transition check the snap's
# E = X*X - I has ||E||_2 <= sqrt(d (d - 1) 1.04 MAP_TOL) <= 6.5e-3 at d = 64, and a step sends
# each eigenvalue e of E to -(3/4) e^2 + e^3 / 4: 3.2e-5, 7.6e-10, then 4.3e-19, past rounding
_SNAP_STEPS = 3
# the snap stops once max|X*X - I| is at most this many d eps, above the rounding of X*X
# (up to 1.5 d eps on exact maps at d = 2)
_SNAP_EPS = 4.0


@dataclass(frozen=True, eq=False)
class PureStateMap:
    """Input rays mapped to output rays: row i of ``ins`` to row i of ``outs``, both (n, dim).

    Raises, in this order: ValidationError when ``ins`` holds no row (its
    first axis has length 0); DimensionMismatchError unless both are 2-D of
    one shape with dim in 2..MAX_DIM; NotUnitVectorError, as "map input ray"
    and then "map output ray", unless every row is a unit vector within
    NORM_TOL.
    """

    ins: np.ndarray
    outs: np.ndarray

    def __post_init__(self) -> None:
        ins, outs = self.ins, self.outs
        # a shape test: an (n, 0) stack is a dimension fault, a 0-d array a shape fault
        if ins.shape[:1] == (0,):
            raise ValidationError("map needs at least one pair")
        _check_stacked("map ins and outs", ins, outs)
        _check_dim(ins.shape[1], _MIN_DIM)
        _check_norms("map input ray", np.linalg.norm(ins, axis=1), unit=True)
        _check_norms("map output ray", np.linalg.norm(outs, axis=1), unit=True)

    @property
    def dim(self) -> int:
        return self.ins.shape[1]


@dataclass(frozen=True)
class VerificationResult:
    verdict: bool
    symmetry: SymmetryOp
    max_error: float
    n_states: int
    failures: tuple[str, ...]


def transition_prob(p: PureState, q: PureState) -> float:
    _check_same_dim("pure state", p.dim, q.dim)
    return float(abs(np.vdot(p.vector, q.vector)) ** 2)


def _rays(states) -> np.ndarray:
    """Stack the vectors of pure states as the rows of one (n, dim) array."""
    return np.array([p.vector for p in states])


def _overlaps(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """|<rows_i|cols_j>|^2 for every pair of stacked rays."""
    return np.abs(rows.conj() @ cols.T) ** 2


def _first_pair(mask: np.ndarray) -> tuple[int, int] | None:
    """First (i, j) with i < j where ``mask`` holds, in row-major order."""
    hits = np.argwhere(np.triu(mask, 1))
    return (int(hits[0, 0]), int(hits[0, 1])) if len(hits) else None


def pure_state_map(pairs) -> PureStateMap:
    """The map of (input, output) `PureState` pairs.

    Raises DimensionMismatchError at the first entry whose dim is not the first input's, then
    the `PureStateMap` errors, then ValidationError for the first two inputs on one ray.
    """
    pairs = tuple((p, q) for p, q in pairs)
    for p, q in pairs:
        _check_same_dim("map entry", pairs[0][0].dim, p.dim)
        _check_same_dim("map entry", pairs[0][0].dim, q.dim)
    pmap = PureStateMap(_rays(p for p, _ in pairs), _rays(q for _, q in pairs))
    dup = _first_pair(_overlaps(pmap.ins, pmap.ins) > _DUPLICATE_OVERLAP)
    if dup is not None:
        raise ValidationError(f"duplicate input ray at pairs {dup[0]} and {dup[1]}")
    return pmap


@lru_cache(maxsize=MAX_DIM - _MIN_DIM + 1, typed=True)
def _probe_family(dim: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and rays of the probe family, the rays as the rows of one (2 dim, dim) array.

    Rows are the basis states, (e_0 + e_j)/sqrt 2 for j >= 1, and
    (e_0 + i e_1)/sqrt 2, built with the same arithmetic as one
    `pure_state` call per ray. Built once per dim and shared: the rays are
    read-only. At d = 64 they take 128 KiB. The memo is typed, so 3 and 3.0
    are two keys, and a float dim raises `_check_dim`'s DimensionMismatchError
    as if nothing were kept.
    """
    _check_dim(dim, _MIN_DIM)
    eye = np.eye(dim, dtype=np.complex128)
    rays = np.vstack([eye, (eye[0] + eye[1:]) / np.sqrt(2.0), (eye[0] + 1j * eye[1]) / np.sqrt(2.0)])
    rays.flags.writeable = False
    labels = (
        *(f"basis-{i}" for i in range(dim)),
        *(f"pair-0-{j}" for j in range(1, dim)),
        "imag-0-1",
    )
    return labels, rays


@lru_cache(maxsize=MAX_DIM - _MIN_DIM + 1, typed=True)
def _probe_gram(dim: int) -> np.ndarray:
    """The probe family's Gram matrix |<p_i|p_j>|^2, as `_overlaps` computes it.

    Built once per dim and read-only, like the rays; 128 KiB at d = 64.
    """
    rays = _probe_family(dim)[1]
    gram = _overlaps(rays, rays)
    gram.flags.writeable = False
    return gram


def transform_pure(sym: SymmetryOp, p: PureState) -> PureState:
    _check_same_dim("symmetry and state", sym.dim, p.dim)
    v = p.vector.conj() if sym.antiunitary else p.vector
    return pure_state(sym.u @ v, normalize=True)


def _image_matrix(op: SpectralOperator) -> np.ndarray:
    """(W' · w') W'* over the stored columns W of ``op`` whose eigenvalue w is nonzero."""
    vecs = op.leading
    w = op.eigenvalues[: vecs.shape[1]]
    on = w != 0.0
    image = vecs[:, on]
    return (image * w[on]) @ image.conj().T


def apply_symmetry(sym: SymmetryOp, state: SpectralOperator) -> SpectralOperator:
    """Image U rho U* (U conj(rho) U* for an antiunitary) as a density operator.

    Raises DimensionMismatchError when the dims differ, then TraceNotOneError
    when the input's carried spectrum does not sum to 1 within TRACE_TOL; the
    check reads the spectrum, not the input's matrix. The image's spectrum
    (and so its rank) is the input's, its stored eigenvectors are W = U·V
    (U·conj(V)) for the input's stored columns V, and its matrix, built on
    first read as (W' · w') W'* over the columns with w != 0, agrees with
    U rho U* to rounding.
    """
    _check_same_dim("symmetry and state", sym.dim, state.dim)
    _check_unit_trace(float(state.eigenvalues.sum()))
    vecs = sym.u @ (state.leading.conj() if sym.antiunitary else state.leading)
    return SpectralOperator(_image_matrix, state.eigenvalues, vecs)


def symmetry_probe_map(sym: SymmetryOp) -> PureStateMap:
    """The map of `_probe_family`'s rays to their `transform_pure` images under ``sym``."""
    rays = _probe_family(sym.dim)[1]
    return PureStateMap(rays, _rays(transform_pure(sym, PureState(ray)) for ray in rays))


def symmetry_overlap(first: SymmetryOp, second: SymmetryOp) -> float:
    """Gauge-invariant agreement |tr(U1^dag U2)| / d; 0 for mixed kinds of one dimension."""
    _check_same_dim("symmetry", first.dim, second.dim)
    if first.antiunitary != second.antiunitary:
        return 0.0
    return float(abs(np.trace(first.u.conj().T @ second.u)) / first.dim)


def _nearest_unitary(x: np.ndarray) -> np.ndarray:
    """The polar factor of the square ``x``, the unitary nearest it, by Newton–Schulz steps.

    Each step is X <- X - X (X*X - I) / 2. It stops before a step once
    max|X*X - I| <= `_SNAP_EPS` d eps, and after `_SNAP_STEPS` steps, which
    reach rounding from any ``x`` with ||X*X - I||_2 <= 6.5e-3. An ``x``
    already unitary to rounding is returned as it is.
    """
    d = x.shape[0]
    for _ in range(_SNAP_STEPS):
        defect = x.conj().T @ x
        defect.flat[:: d + 1] -= 1.0
        if np.abs(defect).max() <= _SNAP_EPS * d * _EPS:
            break
        x = x - 0.5 * (x @ defect)
    return x


def wigner_reconstruct(pmap: PureStateMap) -> SymmetryOp:
    """Rebuild the implementing operator from the probe images of ``pmap``.

    Raises, in this order, NotASymmetryError with probe "overlap-i-j" for the
    first pair i < j (row-major) whose transition probability moves by more
    than `MAP_TOL`; IncompleteMapError when no input lies on some probe's
    ray (overlap below 1 - 1e-10); NotASymmetryError with probe "imag-0-1"
    when the phase probe fits neither branch within 10 `MAP_TOL`; and
    NotASymmetryError with probe "pair-k" for the first pair the operator
    reproduces with fit below 1 - `MAP_TOL`. A map whose first 2 dim inputs
    equal `_probe_family`'s rays entry for entry takes its probe images from
    its first 2 dim outputs, and one whose inputs are exactly those rays
    reads `_probe_gram`; both give the bytes that matching would. The
    inputs are not checked for duplicates: `pure_state_map` does that.
    """
    ins, outs, d = pmap.ins, pmap.outs, pmap.dim
    labels, probes = _probe_family(d)
    family = np.array_equal(ins[: 2 * d], probes)

    # transition probabilities must already match on every input pair
    t_in = _probe_gram(d) if family and len(ins) == 2 * d else _overlaps(ins, ins)
    t_out = _overlaps(outs, outs)
    broken = _first_pair(np.abs(t_in - t_out) > MAP_TOL)
    if broken is not None:
        i, j = broken
        raise NotASymmetryError(
            f"transition probability broken between inputs {i} and {j}: "
            f"{t_in[i, j]:.6f} -> {t_out[i, j]:.6f}",
            probe=f"overlap-{i}-{j}",
        )

    # each probe's image is the output of the first input on the probe's ray,
    # which for a family-first map is the probe's own row;
    # rows 0..d-1 are basis-j, rows d..2d-2 pair-0-j, row 2d-1 imag-0-1
    if family:
        images = outs[: 2 * d]
    else:
        matches = _overlaps(probes, ins) >= _RAY_MATCH
        missing = np.flatnonzero(~matches.any(axis=1))
        if len(missing):
            raise IncompleteMapError(f"map lacks an input matching probe {labels[missing[0]]}")
        images = outs[matches.argmax(axis=1)]

    # column 0 is basis-0's image with its first clear entry made real and positive;
    # pair-0-j's image g_j fixes column j's phase against it, as f_j b_j / a_j made
    # unit modulus, with a_j = <col 0|g_j> and b_j = <f_j|g_j> for all j in one pass.
    # The transition check has held |a_j|^2 and |b_j|^2 within MAP_TOL (and the ray
    # match's slack) of 1/2, so neither is small.
    f0 = images[0]
    nz = np.flatnonzero(np.abs(f0) > 1e-8)[0]
    cols = np.empty((d, d), dtype=np.complex128)
    cols[:, 0] = f0 * (f0[nz].conj() / abs(f0[nz]))
    a = images[d : 2 * d - 1] @ cols[:, 0].conj()
    b = np.einsum("ij,ij->i", images[1:d].conj(), images[d : 2 * d - 1])
    phase = b / a
    cols[:, 1:] = images[1:d].T * (phase / np.abs(phase))

    h = images[2 * d - 1]
    plus = (cols[:, 0] + 1j * cols[:, 1]) / np.sqrt(2.0)
    minus = (cols[:, 0] - 1j * cols[:, 1]) / np.sqrt(2.0)
    t_plus = abs(np.vdot(plus, h)) ** 2
    t_minus = abs(np.vdot(minus, h)) ** 2
    if t_plus >= 1.0 - 10.0 * MAP_TOL:
        antiunitary = False
    elif t_minus >= 1.0 - 10.0 * MAP_TOL:
        antiunitary = True
    else:
        raise NotASymmetryError(
            f"phase probe fits neither branch (unitary {t_plus:.6f}, "
            f"antiunitary {t_minus:.6f})",
            probe="imag-0-1",
        )

    # snap to the nearest exact unitary; the transition check bounds the defect (see _SNAP_STEPS)
    u = _nearest_unitary(cols)
    sym = symmetry_op(u, antiunitary=antiunitary)

    # rows of `predicted` are transform_pure of each input
    predicted = (ins.conj() if antiunitary else ins) @ u.T
    predicted /= np.linalg.norm(predicted, axis=1, keepdims=True)
    fit = np.abs(np.einsum("ij,ij->i", predicted.conj(), outs)) ** 2
    missed = np.flatnonzero(fit < 1.0 - MAP_TOL)
    if len(missed):
        k = missed[0]
        raise NotASymmetryError(
            f"assembled operator fails to reproduce map pair {k}",
            probe=f"pair-{k}",
        )
    return sym


@lru_cache(maxsize=64)
def _mixed_state(dim: int, seed: int, k: int) -> SpectralOperator:
    """`verify_theorem`'s k-th seeded mixed state, drawn once and shared read-only.

    The state is ``random_density(dim, (k % dim) + 1, seed=child_rng(seed, 2, k))``,
    a pure function of (dim, seed, k). Its matrix, spectrum and stored
    columns are read-only: a transform that writes into its input raises
    numpy's ValueError rather than corrupt a later call. At most 64 states
    are kept, least recently used first out. At d = 64 an entry holds at
    most a 64 x 64 complex matrix, 64 stored columns and 64 eigenvalues,
    128.5 KiB, so the memo holds at most 8.0 MiB.
    """
    state = random_density(dim, (k % dim) + 1, seed=child_rng(seed, 2, k))
    for array in (state.matrix, state.eigenvalues, state.leading):
        array.flags.writeable = False
    return state


def verify_theorem(transform, dim: int, n_mixed: int = 10, seed: int = 0) -> VerificationResult:
    """Check that a state map is implemented by one unitary/antiunitary.

    ``transform`` maps SpectralOperator to SpectralOperator. Raises
    DimensionMismatchError for a ``dim`` outside 2..MAX_DIM, then
    ValidationError unless ``n_mixed`` is an integer >= 1 and ``seed`` one
    >= 0. The pure probes reach ``transform`` in `_probe_family` order; the
    loop stops at the first probe whose transform raises ValidationError
    (NotASymmetryError naming the probe), whose image's top eigenvalue is
    below 1 - `MAP_TOL` (NotASymmetryError) or whose image's dim is not
    ``dim`` (DimensionMismatchError). The probe rays and the images' first
    stored columns form the `PureStateMap` that `wigner_reconstruct` reads,
    so a non-unit image is reported by the map, after the loop, as a "map
    output ray" NotUnitVectorError. Probes and mixed states are shared
    read-only, so a transform that writes into a probe's ``leading`` raises
    numpy's ValueError, as one that writes into a mixed state does.
    The operator is then compared with the map on ``n_mixed`` seeded mixed
    states of cycling ranks (`_mixed_state`), each within `MAP_TOL` in
    Frobenius norm, and on the first two by `effects_equal_by_strength`. A
    mixed state that ``transform`` rejects with ValidationError, or on which
    they disagree, is a failure, with verdict False; a mixed output whose
    dim is not ``dim`` raises DimensionMismatchError.
    """
    _check_dim(dim, _MIN_DIM)
    _check_count("n_mixed", n_mixed, 1)
    _check_count("seed", seed)
    labels, probes = _probe_family(dim)
    images = []
    for label, probe in zip(labels, probes):
        try:
            out = transform(_pure_density(PureState(probe)))
        except ValidationError as exc:
            raise NotASymmetryError(
                f"map output rejected on probe {label}: {exc}", probe=label
            ) from exc
        top = out.eigenvalues[0]
        if top < 1.0 - MAP_TOL:
            raise NotASymmetryError(
                f"pure probe {label} maps to a mixed state (top weight {top:.8f})",
                probe=label,
            )
        ray = np.asarray(out.leading[:, 0], dtype=np.complex128)
        _check_same_dim("map entry", dim, ray.shape[0])
        images.append(ray)

    sym = wigner_reconstruct(PureStateMap(probes, np.array(images)))

    failures: list[str] = []
    max_error = 0.0
    for k in range(n_mixed):
        state = _mixed_state(dim, seed, k)
        try:
            actual = transform(state)
        except ValidationError:
            failures.append(f"mixed-{k}")
            continue
        _check_same_dim("map entry", dim, actual.dim)
        predicted = apply_symmetry(sym, state)
        err = float(np.linalg.norm(actual.matrix - predicted.matrix))
        max_error = max(max_error, err)
        if err > MAP_TOL:
            failures.append(f"mixed-{k}")
        elif k < 2 and not effects_equal_by_strength(actual, predicted, seed=seed):
            failures.append(f"strength-{k}")

    return VerificationResult(
        verdict=not failures,
        symmetry=sym,
        max_error=max_error,
        n_states=n_mixed,
        failures=tuple(failures),
    )


def rank_via_compatibility(state: SpectralOperator, seed: int = 0) -> int:
    """``state.numerical_rank``, kept under this name only because the benchmark still calls it.

    Raises DimensionMismatchError for a dim below 2 and ValidationError for
    a ``seed`` that is not an integer >= 0; ``seed`` is otherwise unused.
    """
    _check_dim(state.dim, _MIN_DIM)
    _check_count("seed", seed)
    return state.numerical_rank
