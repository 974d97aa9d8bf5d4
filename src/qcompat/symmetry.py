"""Reconstruction of symmetries from pure-state data and its verification.

Given only the ray images of a small probe family (basis states, two-entry
superpositions, and one relative-phase state), `wigner_reconstruct` rebuilds
a unitary or antiunitary operator implementing the map, or raises
NotASymmetryError naming the probe that failed. `verify_theorem` closes the
loop for a full state map: reconstruct from pure probes, then confirm the
operator reproduces the map on mixed states and on strength functionals.

A `PureStateMap` holds its rays stacked: row i of ``ins`` maps to row i of
``outs``. The pairwise checks (duplicate inputs, preserved transition
probabilities, probe matching and the final reproduction of every pair) are
Gram-matrix tests over those arrays, and an error names the first failing
pair in row-major (i, j) order. A map checks its own arrays when built:
one (n, dim) shape, n >= 1, dim in 2..64, unit rows.

The probe family is built once per dim, as one read-only (2 dim, dim)
array of rays (`_probe_family`), and so is its Gram matrix (`_probe_gram`).
A map whose first 2 dim inputs equal the family entry for entry, in order
(`np.array_equal`), takes its probe images as its first 2 dim outputs and
skips probe matching; a map whose inputs are exactly the family also reads
the memoized Gram matrix as its input transition probabilities. Every map that
`symmetry_probe_map` and `verify_theorem` build, and every file that
`io.save_map` writes, is such a map. Any other map matches each probe to
an input by one (2 dim) x n product of overlaps, with the same outcome.
Rebuilding the operator from the probe images costs a fixed number of
array operations at every dim: one vectorized pass fixes the columns'
phases, and Newton–Schulz steps snap them to the nearest unitary
(`_nearest_unitary`), with no SVD.
`pure_state_map` validates pairs that come from outside;
`symmetry_probe_map` and `verify_theorem` build their maps directly from
the probe family, whose rays are distinct by construction, and
`verify_theorem` reconstructs through `wigner_reconstruct` like any caller.

No eigendecomposition is repeated for data that is already known. The pure
probes that `verify_theorem` feeds to the map get their spectral data in
closed form, with the probe's own vector as the one stored eigenvector;
`random_density` returns the spectrum it drew and, as stored eigenvectors,
only the support columns of its Haar basis; and `apply_symmetry` carries
the input's spectrum through the symmetry: the image of a state with
spectrum w and stored eigenvectors V has spectrum w and stored
eigenvectors W = U·V (U·conj(V) for an antiunitary), and its matrix is
built from them. A probe and an image build their d x d matrix only when
it is first read, the probe as the outer product v v*, the image as
(W' · w') W'*, and `verify_theorem`'s probe loop reads only their
spectra and first columns. So a `verify_theorem` of an `apply_symmetry`
map runs no eigh at all, each pure image costs one matrix-vector product
U·v, and neither a probe nor its image builds a matrix: each holds one
column, and no operator holds a kernel basis. Nor does a map that
re-validates a pure image run eigh: `validate_density` stores a rank-one
input's one ray without it. The seeded mixed states are drawn once per
(dim, seed, k) and shared read-only between calls (`_mixed_state`), while
at most 64 such keys are in use: 4 dims of the default 10 states fit.

Also here: `rank_via_compatibility`, another name for `numerical_rank`
that only the benchmark still calls.
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
# Newton–Schulz steps the snap to a unitary may take. Past the transition check the
# basis images f_i are unit rows (within NORM_TOL) with |<f_i|f_j>|^2 <= MAP_TOL + 4e-10
# (the extra term is the ray match's slack on inputs matched to the basis), so the snap's
# E = X*X - I has ||E||_2 <= ||E||_F <= sqrt(d (d - 1) 1.04 MAP_TOL) <= 6.5e-3 at d = 64.
# A step sends each eigenvalue e of E to -(3/4) e^2 + e^3 / 4, so three steps take
# 6.5e-3 to 3.2e-5, 7.6e-10 and 4.3e-19, past rounding; the limit is the polar factor.
_SNAP_STEPS = 3
# the snap stops once max|X*X - I| is at most this many d eps, above the rounding of X*X
# (up to 1.5 d eps on exact maps at d = 2)
_SNAP_EPS = 4.0


@dataclass(frozen=True, eq=False)
class PureStateMap:
    """Input rays mapped to output rays: row i of ``ins`` to row i of ``outs``, both (n, dim).

    Raises DimensionMismatchError unless both are 2-D of one shape with dim
    in 2..MAX_DIM, ValidationError for n = 0, and NotUnitVectorError unless
    every row is a unit vector within NORM_TOL.
    """

    ins: np.ndarray
    outs: np.ndarray

    def __post_init__(self) -> None:
        ins, outs = self.ins, self.outs
        _check_stacked("map ins and outs", ins, outs)
        if not ins.shape[0]:
            raise ValidationError("map needs at least one pair")
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
    """The map of (input, output) `PureState` pairs, checked: nonempty, one dim of 2..64, distinct inputs."""
    pairs = tuple((p, q) for p, q in pairs)
    if not pairs:
        raise ValidationError("map needs at least one pair")
    dim = pairs[0][0].dim
    _check_dim(dim, _MIN_DIM)
    for p, q in pairs:
        _check_same_dim("map entry", dim, p.dim)
        _check_same_dim("map entry", dim, q.dim)
    ins = _rays(p for p, _ in pairs)
    dup = _first_pair(_overlaps(ins, ins) > _DUPLICATE_OVERLAP)
    if dup is not None:
        raise ValidationError(f"duplicate input ray at pairs {dup[0]} and {dup[1]}")
    return PureStateMap(ins, _rays(q for _, q in pairs))


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

    The image is built from the input's carried spectral decomposition: its
    stored eigenvectors are W = U·V (U·conj(V)) for the input's stored
    columns V, and its spectrum is the input's. That is one d x m product,
    so a pure image, m = 1, is one matrix-vector product, and no eigh runs.
    Its matrix is built on its first read, as (W' · w') W'* over the columns
    with w != 0 (`_image_matrix`): O(d^2) per nonzero eigenvalue, the image
    of the spectral decomposition, which agrees with U rho U* to rounding,
    trace included. The unit-trace check reads the input's carried spectrum
    (its sum, within ~d eps of the trace), not its matrix, so an effect
    whose trace is not one raises TraceNotOneError and the input's matrix is
    not built either. The spectrum is the input's, so its rank, read from
    it, is too.
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

    Each step is X <- X - X (X*X - I) / 2, two d x d products. It stops before a
    step once max|X*X - I| <= `_SNAP_EPS` d eps, and after `_SNAP_STEPS` steps,
    which reach rounding from any ``x`` with ||X*X - I||_2 <= 6.5e-3: the bound
    the transition check puts on `wigner_reconstruct`'s basis images. An ``x``
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
    """Rebuild the implementing operator from probe images.

    Raises IncompleteMapError when a required probe input is absent, and
    NotASymmetryError (with the offending probe id) when transition
    probabilities are not preserved, the phase data fits neither the unitary
    nor the antiunitary branch, or the assembled operator fails to reproduce
    some pair of the map. The transition check compares the Gram matrices
    |<in_i|in_j>|^2 and |<out_i|out_j>|^2 of the stacked rays on i < j, and
    probe matching and the final reproduction check are one matrix product
    each; every error names the first failing pair in row-major order.
    When the first 2 dim inputs equal `_probe_family`'s rays entry for entry, the
    probe images are the first 2 dim outputs and no matching product runs;
    when the inputs are exactly those rays, their Gram matrix is the
    memoized `_probe_gram`. Either shortcut gives what the product would.
    A transition probability may move by at most `MAP_TOL`, the phase probe
    must fit a branch within 10 `MAP_TOL`, and each pair must be reproduced
    within `MAP_TOL`.
    The operator costs a fixed number of array operations at every dim: the
    basis images' phases come from the pair images in one vectorized pass,
    and the phased columns snap to their polar factor, the nearest unitary,
    by at most `_SNAP_STEPS` = 3 Newton–Schulz steps (`_nearest_unitary`)
    rather than an SVD. The transition check bounds every pair of basis
    images by |<f_i|f_j>|^2 <= `MAP_TOL` (up to the ray match's slack), so
    the columns' ||X*X - I||_F is at most sqrt(d (d - 1) 1.04 `MAP_TOL`),
    6.5e-3 at d = 64, from where three steps reach rounding.
    It does not check the inputs for duplicates: `pure_state_map` does that.
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

    # snap to the nearest exact unitary: at most _SNAP_STEPS = 3 Newton–Schulz steps, no SVD;
    # three suffice because the transition check held ||X*X - I||_F to sqrt(d (d - 1) 1.04 MAP_TOL)
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
    a pure function of (dim, seed, k), so every call that draws it again gets
    the same bytes. Its matrix, spectrum and stored columns are made
    read-only: a transform that writes into its input raises numpy's
    ValueError rather than corrupt a later call. One entry is one state, and
    at most 64 are kept, least recently used first out: a process that
    verifies one seed at 4 dims with the default ``n_mixed`` = 10 uses 40
    keys, and a cycle of more keys than the bound would hit none. At
    d = 64 an entry holds at most a 64 x 64 complex matrix, up to 64 stored
    columns and 64 eigenvalues, 128.5 KiB, so the memo holds at most 8.0 MiB.
    """
    state = random_density(dim, (k % dim) + 1, seed=child_rng(seed, 2, k))
    for array in (state.matrix, state.eigenvalues, state.leading):
        array.flags.writeable = False
    return state


def verify_theorem(transform, dim: int, n_mixed: int = 10, seed: int = 0) -> VerificationResult:
    """Check that a state map is implemented by one unitary/antiunitary.

    ``transform`` maps SpectralOperator to SpectralOperator. Pure probes must
    map to pure outputs, with top eigenvalue at least 1 - `MAP_TOL` (else
    NotASymmetryError), each output's top eigenvector, its first stored
    column, must be a unit vector within NORM_TOL (else NotUnitVectorError),
    and of dimension ``dim`` (else DimensionMismatchError); the probes
    run in `_probe_family` order and the first failing one stops the loop.
    The probe rays and those top eigenvectors form the `PureStateMap` that
    `wigner_reconstruct` rebuilds the operator from; its inputs are the
    probe family, so it needs no probe matching.
    The probe rays are built once per dim and shared read-only: a probe's
    stored column is a view of them, so a transform that writes into a
    probe's ``leading`` raises numpy's ValueError, as for the mixed states.
    Each probe reaches ``transform`` with its spectral data built in closed
    form and its matrix not yet built, and the loop reads only each image's
    top eigenvalue and first stored column, so with an `apply_symmetry`
    transform no probe or probe image builds its d x d matrix. Each mixed
    state comes from `random_density` with the spectrum it drew and its
    support columns as the stored eigenvectors, and each prediction comes
    from `apply_symmetry`, which carries the state's spectrum through and
    maps only those columns; so with an `apply_symmetry` transform no eigh
    runs, nor for a probe whose image a transform re-validates while it
    stays rank one. The mixed states are shared: each is drawn once per
    (dim, seed, k) while at most 64 such keys are in use, and kept for
    later calls (`_mixed_state`), with its matrix, spectrum and columns
    read-only, so a transform that writes into one raises numpy's
    ValueError and must copy what it would change.
    The reconstructed operator is then compared against the map on
    ``n_mixed`` seeded mixed states of cycling ranks, each within `MAP_TOL`
    in Frobenius norm, and, via strength functions on one stacked ray set
    (`effects_equal_by_strength`), on the first two of them.
    Mixed-state disagreements are collected as failures with verdict False
    rather than raised; a mixed output whose dimension is not ``dim`` raises
    DimensionMismatchError, as a probe image's does. Raises ValidationError
    when ``n_mixed`` is not an integer >= 1, since the verdict would then
    rest on no mixed state at all, and when ``seed`` is not an integer >= 0,
    which the strength rays cannot be drawn from.
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
        _check_norms("vector", float(np.linalg.norm(ray)), unit=True)
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
