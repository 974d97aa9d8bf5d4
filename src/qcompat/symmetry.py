"""Reconstruction of symmetries from pure-state data and its verification.

Given only the ray images of a small probe family (basis states, two-entry
superpositions, and one relative-phase state), `wigner_reconstruct` rebuilds
a unitary or antiunitary operator implementing the map, or raises
NotASymmetryError naming the probe that failed. `verify_theorem` closes the
loop for a full state map: reconstruct from pure probes, then confirm the
operator reproduces the map on mixed states and on strength functionals.

The pairwise checks (duplicate inputs, preserved transition probabilities,
probe matching and the final reproduction of every pair) are Gram-matrix
tests over the stacked input and output rays, and an error names the first
failing pair in row-major (i, j) order. The probe family itself is built as
one (2 dim, dim) array of rays (`_probe_family`), which probe matching reads
directly.

`verify_theorem` works on arrays: it feeds the map the family's rows, stacks
each image's top eigenvector into one (2 dim, dim) array, and hands both to
`_reconstruct`, the core `wigner_reconstruct` runs after stacking a
`PureStateMap`. It builds no `PureStateMap`, so it skips that map's
duplicate-input check, which is vacuous on the probe family: its rays are
distinct by construction. Probe matching, the transition and the
reproduction checks run as for any map, so the operator is bit for bit the
one `wigner_reconstruct` builds from the same pairs.

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
(dim, seed, k) and shared read-only between calls (`_mixed_state`).

Also here: `rank_via_compatibility`, another name for `numerical_rank`
that only the benchmark still calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IncompleteMapError, NotASymmetryError, ValidationError
from .states import (
    PureState,
    SpectralOperator,
    SymmetryOp,
    _check_count,
    _check_dim,
    _check_same_dim,
    _check_tolerance,
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


def _rounding_floor(tol: float) -> float:
    """``tol`` raised to 1e-12, so rounding (~1e-16) alone never fails an exact map, even at tol=0."""
    return max(tol, 1e-12)


@dataclass(frozen=True)
class PureStateMap:
    """Finite list of (input ray, output ray) pairs, inputs pairwise distinct."""

    dim: int
    pairs: tuple[tuple[PureState, PureState], ...]


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
    return PureStateMap(dim, pairs)


def _probe_family(dim: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and rays of the probe family, the rays as the rows of one (2 dim, dim) array.

    Rows are the basis states, (e_0 + e_j)/sqrt 2 for j >= 1, and
    (e_0 + i e_1)/sqrt 2, built with the same arithmetic as one
    `pure_state` call per ray.
    """
    _check_dim(dim, _MIN_DIM)
    eye = np.eye(dim, dtype=np.complex128)
    rays = np.vstack([eye, (eye[0] + eye[1:]) / np.sqrt(2.0), (eye[0] + 1j * eye[1]) / np.sqrt(2.0)])
    labels = (
        *(f"basis-{i}" for i in range(dim)),
        *(f"pair-0-{j}" for j in range(1, dim)),
        "imag-0-1",
    )
    return labels, rays


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
    """The map of `_probe_family`'s rays to their images under ``sym``; each state owns its vector."""
    probes = (PureState(ray.copy()) for ray in _probe_family(sym.dim)[1])
    return pure_state_map([(p, transform_pure(sym, p)) for p in probes])


def symmetry_overlap(first: SymmetryOp, second: SymmetryOp) -> float:
    """Gauge-invariant agreement |tr(U1^dag U2)| / d; 0 for mixed kinds of one dimension."""
    _check_same_dim("symmetry", first.dim, second.dim)
    if first.antiunitary != second.antiunitary:
        return 0.0
    return float(abs(np.trace(first.u.conj().T @ second.u)) / first.dim)


def wigner_reconstruct(pmap: PureStateMap, tol: float = 1e-8) -> SymmetryOp:
    """Rebuild the implementing operator from probe images.

    Raises IncompleteMapError when a required probe input is absent, and
    NotASymmetryError (with the offending probe id) when transition
    probabilities are not preserved, the phase data fits neither the unitary
    nor the antiunitary branch, or the assembled operator fails to reproduce
    some pair of the map. The transition check compares the Gram matrices
    |<in_i|in_j>|^2 and |<out_i|out_j>|^2 of the stacked rays on i < j, and
    probe matching and the final reproduction check are one matrix product
    each; every error names the first failing pair in row-major order.
    Raises ValidationError for a ``tol`` that is negative or not finite.
    """
    _check_tolerance("tol", tol)
    return _reconstruct(_rays(p for p, _ in pmap.pairs), _rays(q for _, q in pmap.pairs), tol)


def _reconstruct(ins: np.ndarray, outs: np.ndarray, tol: float) -> SymmetryOp:
    """`wigner_reconstruct` on the map's input and output rays, stacked as rows."""
    d = ins.shape[1]
    floor = _rounding_floor(tol)

    # transition probabilities must already match on every input pair
    t_in, t_out = _overlaps(ins, ins), _overlaps(outs, outs)
    broken = _first_pair(np.abs(t_in - t_out) > floor)
    if broken is not None:
        i, j = broken
        raise NotASymmetryError(
            f"transition probability broken between inputs {i} and {j}: "
            f"{t_in[i, j]:.6f} -> {t_out[i, j]:.6f}",
            probe=f"overlap-{i}-{j}",
        )

    # each probe's image is the output of the first input on the probe's ray;
    # rows 0..d-1 are basis-j, rows d..2d-2 pair-0-j, row 2d-1 imag-0-1
    labels, probes = _probe_family(d)
    matches = _overlaps(probes, ins) >= _RAY_MATCH
    missing = np.flatnonzero(~matches.any(axis=1))
    if len(missing):
        raise IncompleteMapError(f"map lacks an input matching probe {labels[missing[0]]}")
    images = outs[matches.argmax(axis=1)]

    cols = np.zeros((d, d), dtype=np.complex128)
    f0 = images[0]
    nz = np.flatnonzero(np.abs(f0) > 1e-8)[0]
    cols[:, 0] = f0 * (f0[nz].conj() / abs(f0[nz]))

    for j in range(1, d):
        fj = images[j]
        gj = images[d - 1 + j]
        a = np.vdot(cols[:, 0], gj)
        b = np.vdot(fj, gj)
        if abs(a) < 0.1 or abs(b) < 0.1:
            raise NotASymmetryError(
                f"pair probe image has no overlap with a basis image (|a|={abs(a):.3f})",
                probe=f"pair-0-{j}",
            )
        phase = b / a
        cols[:, j] = fj * (phase / abs(phase))

    h = images[2 * d - 1]
    plus = (cols[:, 0] + 1j * cols[:, 1]) / np.sqrt(2.0)
    minus = (cols[:, 0] - 1j * cols[:, 1]) / np.sqrt(2.0)
    t_plus = abs(np.vdot(plus, h)) ** 2
    t_minus = abs(np.vdot(minus, h)) ** 2
    if t_plus >= 1.0 - 10.0 * floor:
        antiunitary = False
    elif t_minus >= 1.0 - 10.0 * floor:
        antiunitary = True
    else:
        raise NotASymmetryError(
            f"phase probe fits neither branch (unitary {t_plus:.6f}, "
            f"antiunitary {t_minus:.6f})",
            probe="imag-0-1",
        )

    # snap to the nearest exact unitary
    uu, _, vh = np.linalg.svd(cols)
    u = uu @ vh
    sym = symmetry_op(u, antiunitary=antiunitary)

    # rows of `predicted` are transform_pure of each input
    predicted = (ins.conj() if antiunitary else ins) @ u.T
    predicted /= np.linalg.norm(predicted, axis=1, keepdims=True)
    fit = np.abs(np.einsum("ij,ij->i", predicted.conj(), outs)) ** 2
    missed = np.flatnonzero(fit < 1.0 - floor)
    if len(missed):
        k = missed[0]
        raise NotASymmetryError(
            f"assembled operator fails to reproduce map pair {k}",
            probe=f"pair-{k}",
        )
    return sym


@lru_cache(maxsize=32)
def _mixed_state(dim: int, seed: int, k: int) -> SpectralOperator:
    """`verify_theorem`'s k-th seeded mixed state, drawn once and shared read-only.

    The state is ``random_density(dim, (k % dim) + 1, seed=child_rng(seed, 2, k))``,
    a pure function of (dim, seed, k), so every call that draws it again gets
    the same bytes. Its matrix, spectrum and stored columns are made
    read-only: a transform that writes into its input raises numpy's
    ValueError rather than corrupt a later call. One entry is one state, and
    at most 32 are kept, least recently used first out. At
    d = 64 an entry holds at most a 64 x 64 complex matrix, up to 64 stored
    columns and 64 eigenvalues, 128.5 KiB, so the memo holds at most 4.0 MiB.
    """
    state = random_density(dim, (k % dim) + 1, seed=child_rng(seed, 2, k))
    for array in (state.matrix, state.eigenvalues, state.leading):
        array.flags.writeable = False
    return state


def verify_theorem(
    transform,
    dim: int,
    n_mixed: int = 10,
    seed: int = 0,
    tol: float = 1e-8,
) -> VerificationResult:
    """Check that a state map is implemented by one unitary/antiunitary.

    ``transform`` maps SpectralOperator to SpectralOperator. Pure probes must
    map to pure outputs (else NotASymmetryError), and each output's top
    eigenvector, read from its stored columns, must be a unit vector (else
    NotUnitVectorError); the probes
    run in `_probe_family` order and the first failing one stops the loop.
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
    (dim, seed, k) and kept for later calls (`_mixed_state`), with its
    matrix, spectrum and columns read-only, so a transform that writes into
    one raises numpy's ValueError and must copy what it would change.
    The reconstructed operator is then compared against the map on
    ``n_mixed`` seeded mixed states of cycling ranks and, via strength
    functions on one stacked ray set (`effects_equal_by_strength`), on the
    first two of them.
    Mixed-state disagreements are collected as failures with verdict False
    rather than raised. Raises ValidationError when ``n_mixed`` is not an
    integer >= 1, since the verdict would then rest on no mixed state at all,
    when ``seed`` is not an integer >= 0, which the strength rays cannot be
    drawn from, and for a ``tol`` that is negative or not finite.
    """
    _check_dim(dim, _MIN_DIM)
    _check_count("n_mixed", n_mixed, 1)
    _check_count("seed", seed)
    _check_tolerance("tol", tol)
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
        if top < 1.0 - _rounding_floor(tol):
            raise NotASymmetryError(
                f"pure probe {label} maps to a mixed state (top weight {top:.8f})",
                probe=label,
            )
        images.append(pure_state(out.leading[:, 0]).vector)
        _check_same_dim("map entry", dim, images[-1].shape[0])

    sym = _reconstruct(probes, np.array(images), tol)

    failures: list[str] = []
    max_error = 0.0
    for k in range(n_mixed):
        state = _mixed_state(dim, seed, k)
        try:
            actual = transform(state)
        except ValidationError:
            failures.append(f"mixed-{k}")
            continue
        predicted = apply_symmetry(sym, state)
        err = float(np.linalg.norm(actual.matrix - predicted.matrix))
        max_error = max(max_error, err)
        if err > tol:
            failures.append(f"mixed-{k}")
        elif k < 2 and not effects_equal_by_strength(
            actual, predicted, n_rays=8, seed=seed, tol=1e-6
        ):
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
