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

No eigendecomposition is repeated for data that is already known. The pure
probes that `verify_theorem` feeds to the map get their spectral data in
closed form, `random_density` returns the spectrum and basis it drew, and
`apply_symmetry` carries the input's spectrum through the symmetry: the
image of a state with spectrum w and eigenvectors V has spectrum w and
eigenvectors W = U·V (U·conj(V) for an antiunitary), and its matrix is
built from them. A `verify_theorem` of an `apply_symmetry` map runs no eigh
at all, and one d x d product per image.

Also here: rank estimation through compatibility queries alone, which asks
`strength`'s ray test of each eigenvector, and a purity probe built from
sampled incompatible sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompleteMapError,
    NotASymmetryError,
    NotUnitVectorError,
    ValidationError,
)
from .states import (
    PureState,
    SpectralOperator,
    SymmetryOp,
    _check_tolerance,
    _check_unit_trace,
    _pure_density,
    child_rng,
    pure_state,
    random_density,
    symmetry_op,
)
from .measure import is_compatible
from .strength import _strengths, effects_equal_by_strength

_RAY_MATCH = 1.0 - 1e-10
_DUPLICATE_OVERLAP = 1.0 - 1e-8


def _require_dim2(dim: int) -> None:
    # the reconstruction story is vacuous on a one-dimensional space
    if dim < 2:
        raise ValidationError("symmetry operations need dim >= 2")


@dataclass(frozen=True)
class PureStateMap:
    """Finite list of (input ray, output ray) pairs, inputs pairwise distinct."""

    dim: int
    pairs: tuple[tuple[PureState, PureState], ...]


@dataclass(frozen=True)
class CharacterizationProbe:
    rank: int
    is_pure: bool
    consistent: bool
    witness: SpectralOperator | None
    n_ic_sampled: int
    n_double_ic: int


@dataclass(frozen=True)
class VerificationResult:
    verdict: bool
    symmetry: SymmetryOp
    max_error: float
    n_states: int
    failures: tuple[str, ...]


def transition_prob(p: PureState, q: PureState) -> float:
    if p.dim != q.dim:
        raise DimensionMismatchError(f"pure state dims differ: {p.dim} != {q.dim}")
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
    _require_dim2(dim)
    for p, q in pairs:
        if p.dim != dim or q.dim != dim:
            raise DimensionMismatchError("all map entries must share one dimension")
    ins = _rays(p for p, _ in pairs)
    dup = _first_pair(_overlaps(ins, ins) > _DUPLICATE_OVERLAP)
    if dup is not None:
        raise ValidationError(f"duplicate input ray at pairs {dup[0]} and {dup[1]}")
    return PureStateMap(dim, pairs)


def _probe_family(dim: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and rays of the probe family, the rays as the rows of one (2 dim, dim) array.

    Rows are the basis states, (e_0 + e_j)/sqrt 2 for j >= 1, and
    (e_0 + i e_1)/sqrt 2, built with the same arithmetic as one
    `pure_state` call per ray; unit norm is checked once over all rows with
    `pure_state`'s rule.
    """
    _require_dim2(dim)
    eye = np.eye(dim, dtype=np.complex128)
    rays = np.vstack([eye, (eye[0] + eye[1:]) / np.sqrt(2.0), (eye[0] + 1j * eye[1]) / np.sqrt(2.0)])
    if not np.all(np.abs(np.linalg.norm(rays, axis=1) - 1.0) <= 1e-12):
        raise NotUnitVectorError("a probe ray's norm differs from 1 beyond 1e-12")
    labels = (
        *(f"basis-{i}" for i in range(dim)),
        *(f"pair-0-{j}" for j in range(1, dim)),
        "imag-0-1",
    )
    return labels, rays


def probe_pure_states(dim: int) -> list[tuple[str, PureState]]:
    """Probe family determining a symmetry: basis, pair, and phase states.

    Each state owns a copy of its row of the family's array.
    """
    labels, rays = _probe_family(dim)
    return [(label, PureState(ray.copy())) for label, ray in zip(labels, rays)]


def transform_pure(sym: SymmetryOp, p: PureState) -> PureState:
    if sym.dim != p.dim:
        raise DimensionMismatchError(f"symmetry dim {sym.dim} != state dim {p.dim}")
    v = p.vector.conj() if sym.antiunitary else p.vector
    return pure_state(sym.u @ v, normalize=True)


def apply_symmetry(sym: SymmetryOp, state: SpectralOperator) -> SpectralOperator:
    """Image U rho U* (U conj(rho) U* for an antiunitary) as a density operator.

    The image is built from the input's carried spectral decomposition: its
    eigenvectors are W = U·V (U·conj(V)), its spectrum is the input's, and
    its matrix is (W+ · w+) W+* over the columns with w > 0. That is one
    d x d product for W and O(d^2) per nonzero eigenvalue, so a rank-one
    image costs one product and no eigh runs. The matrix is thus the image
    of the spectral decomposition, which agrees with U rho U* to rounding
    plus the eigenvalues in [-1e-12, 0) that validation clipped to zero.
    The unit-trace check runs on the input, whose trace the image shares,
    so an effect whose trace is not one still raises TraceNotOneError while
    that clipped mass cannot. The spectrum is the input's, so its rank is too.
    """
    if sym.dim != state.dim:
        raise DimensionMismatchError(f"symmetry dim {sym.dim} != state dim {state.dim}")
    _check_unit_trace(state.matrix)
    w = state.eigenvalues
    vecs = sym.u @ (state.eigenvectors.conj() if sym.antiunitary else state.eigenvectors)
    on = w > 0.0
    image = vecs[:, on]
    return SpectralOperator((image * w[on]) @ image.conj().T, w, vecs, state.numerical_rank)


def symmetry_probe_map(sym: SymmetryOp) -> PureStateMap:
    pairs = [(p, transform_pure(sym, p)) for _, p in probe_pure_states(sym.u.shape[0])]
    return pure_state_map(pairs)


def symmetry_overlap(first: SymmetryOp, second: SymmetryOp) -> float:
    """Gauge-invariant agreement |tr(U1^dag U2)| / d; 0 for mixed kinds of one dimension."""
    d = first.u.shape[0]
    if second.u.shape[0] != d:
        raise DimensionMismatchError("symmetry dims differ")
    if first.antiunitary != second.antiunitary:
        return 0.0
    return float(abs(np.trace(first.u.conj().T @ second.u)) / d)


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
    d = pmap.dim
    # rounding alone moves a transition probability by ~1e-16, so even tol=0
    # accepts an exact map
    floor = max(tol, 1e-12)
    ins = _rays(p for p, _ in pmap.pairs)
    outs = _rays(q for _, q in pmap.pairs)

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

    # each probe's image is the output of the first input on the probe's ray
    labels, probes = _probe_family(d)
    matches = _overlaps(probes, ins) >= _RAY_MATCH
    missing = np.flatnonzero(~matches.any(axis=1))
    if len(missing):
        raise IncompleteMapError(f"map lacks an input matching probe {labels[missing[0]]}")
    images = dict(zip(labels, outs[matches.argmax(axis=1)]))

    cols = np.zeros((d, d), dtype=np.complex128)
    f0 = images["basis-0"]
    nz = np.flatnonzero(np.abs(f0) > 1e-8)[0]
    cols[:, 0] = f0 * (f0[nz].conj() / abs(f0[nz]))

    for j in range(1, d):
        fj = images[f"basis-{j}"]
        gj = images[f"pair-0-{j}"]
        a = np.vdot(cols[:, 0], gj)
        b = np.vdot(fj, gj)
        if abs(a) < 0.1 or abs(b) < 0.1:
            raise NotASymmetryError(
                f"pair probe image has no overlap with a basis image (|a|={abs(a):.3f})",
                probe=f"pair-0-{j}",
            )
        phase = b / a
        cols[:, j] = fj * (phase / abs(phase))

    h = images["imag-0-1"]
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


def verify_theorem(
    transform,
    dim: int,
    n_mixed: int = 10,
    seed: int = 0,
    tol: float = 1e-8,
) -> VerificationResult:
    """Check that a state map is implemented by one unitary/antiunitary.

    ``transform`` maps SpectralOperator to SpectralOperator. Pure probes must
    map to pure outputs (else NotASymmetryError). Each probe reaches
    ``transform`` with its spectral data built in closed form, each mixed
    state comes from `random_density` with the eigensystem it drew, and each
    prediction comes from `apply_symmetry`, which carries the state's
    spectrum through; so with an `apply_symmetry` transform no eigh runs.
    The reconstructed operator is then compared against the map on
    ``n_mixed`` seeded mixed states of cycling ranks and, via strength
    functions on one stacked ray set (`effects_equal_by_strength`), on the
    first two of them.
    Mixed-state disagreements are collected as failures with verdict False
    rather than raised. Raises ValidationError when ``n_mixed < 1``, since
    the verdict would then rest on no mixed state at all, when ``seed < 0``,
    which the strength rays cannot be drawn from, and for a ``tol`` that is
    negative or not finite.
    """
    _require_dim2(dim)
    if n_mixed < 1:
        raise ValidationError(f"n_mixed must be at least 1, got {n_mixed}")
    if seed < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    _check_tolerance("tol", tol)
    pairs = []
    for label, probe in probe_pure_states(dim):
        try:
            out = transform(_pure_density(probe))
        except ValidationError as exc:
            raise NotASymmetryError(
                f"map output rejected on probe {label}: {exc}", probe=label
            ) from exc
        top = out.eigenvalues[0]
        if top < 1.0 - max(tol, 1e-12):
            raise NotASymmetryError(
                f"pure probe {label} maps to a mixed state (top weight {top:.8f})",
                probe=label,
            )
        pairs.append((probe, pure_state(out.eigenvectors[:, 0])))

    sym = wigner_reconstruct(pure_state_map(pairs), tol=tol)

    failures: list[str] = []
    max_error = 0.0
    for k in range(n_mixed):
        rank = (k % dim) + 1
        state = random_density(dim, rank, seed=child_rng(seed, 2, k))
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
    """Operational rank: count the eigenvector rays compatible with the state.

    A pure state is compatible with ``state`` exactly when its ray lies in
    supp ``state``; `strength`'s ray test (`in_range`) asks that of each
    eigenvector. The eigenbasis is orthonormal and spans the whole space, so
    the compatible ones are a basis of the compatible span, and their count
    is the rank. No random ray is drawn. ``seed`` is accepted and unused; a
    negative one still raises ValidationError.
    """
    _require_dim2(state.dim)
    if seed < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    return int(np.count_nonzero(_strengths(state, state.eigenvectors)[1]))


def _characterization_pool(state: SpectralOperator, samples: int, seed: int) -> list[SpectralOperator]:
    """Sample pool mixing ranks, enriched with support rays of the state."""
    d = state.dim
    pool: list[SpectralOperator] = []
    for k in range(samples):
        rank = (k % d) + 1
        pool.append(random_density(d, rank, seed=child_rng(seed, 4, k)))
    for i in range(state.numerical_rank):
        pool.append(_pure_density(pure_state(state.eigenvectors[:, i])))
    if state.numerical_rank >= 2:
        mix = state.eigenvectors[:, 0] + state.eigenvectors[:, 1]
        pool.append(_pure_density(pure_state(mix, normalize=True)))
    return pool


def pure_characterization_probe(
    state: SpectralOperator, samples: int = 120, seed: int = 0
) -> CharacterizationProbe:
    """Sampled falsification test: only pure states are pinned down by
    their incompatible set.

    Approximates the incompatible set of ``state`` by sampling, then scans
    the same pool for a different state that is incompatible with every
    sampled member. For a pure state no such companion should appear, since
    any candidate on another ray lands in the sampled incompatible set and
    is compatible with itself. For mixed states a companion inside the
    support always exists. Sampling gives one-sided evidence only.
    """
    d = state.dim
    _require_dim2(d)
    if d > 6:
        raise ValidationError("characterization probe supports dim <= 6")
    rank = state.numerical_rank
    is_pure = rank == 1

    pool = _characterization_pool(state, samples, seed)
    ic_pool = [s for s in pool if not is_compatible(state, s)]

    witness = None
    n_double = 0
    for cand in pool:
        if float(np.linalg.norm(cand.matrix - state.matrix)) <= 1e-8:
            continue
        if not any(is_compatible(cand, m) for m in ic_pool):
            n_double += 1
            if witness is None:
                witness = cand
    consistent = witness is None
    return CharacterizationProbe(
        rank=rank,
        is_pure=is_pure,
        consistent=consistent,
        witness=witness,
        n_ic_sampled=len(ic_pool),
        n_double_ic=n_double,
    )
