"""Compatibility detection and the joint-decomposition overlap measure.

Two states are compatible when their supports share a ray. The measure is the
largest overlap sum_n sqrt(lam_n * mu_n) over pairs of convex decompositions of
A and B into one shared list of pure states (weights >= 0, zeros allowed). It
equals tr([A]_S # [B]_S), where S = supp A ∩ supp B, [X]_S is the shorted
operator of X to S (Anderson & Trapp 1975) and # the Kubo–Ando geometric mean
(Ando 1979). A ray weighted on both sides lies in S, so Ando's maximal
characterisation of # bounds the sum by that trace, and `example_measure`
builds a decomposition pair that attains it, from at most one QR per side
(its short to S as a triangular factor) and one SVD for the mean; no
eigenproblem is solved. Every reported value is recomputed from that
certificate, whose reconstruction residual is checked against `FEAS_TOL`.
The formula is symmetric in A and B but its rounding is not, so one rule,
`_side_key`, picks the side it starts from: the one whose kept spectrum is
better conditioned, ties broken by the stored bytes. `fidelity` uses the
same order. Like #, the result is then symmetric in A and B, bit for bit:
swapping the arguments only swaps the two decompositions.

The measure's upper bound, the Uhlmann fidelity ||sqrt(A) sqrt(B)||_1, is
read from the same cached eigensystems: `fidelity` sums the singular values
of (V_A diag(sqrt(w_A)))* (V_B diag(sqrt(w_B))), and no square root of a
matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import InfeasibleError
from .states import (
    PureState,
    SpectralOperator,
    _check_count,
    _check_norms,
    _check_same_dim,
    _principal_rotations,
    subspace_intersection_dim,
    support,
)

DEFAULT_RESTARTS = 32
# the limit on a certificate's reconstruction residual; no caller sets it, and
# `MeasureResult.residual` reports the residual a certificate reached
FEAS_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Convex weights over a shared list of unit rays, the rows of ``rays``; `pures` wraps them on request."""

    weights: np.ndarray
    rays: np.ndarray

    @property
    def pures(self) -> tuple[PureState, ...]:
        return tuple(PureState(v) for v in self.rays)

    def reconstruction(self) -> np.ndarray:
        return (self.rays.T * self.weights) @ self.rays.conj()


@dataclass(frozen=True, eq=False)
class MeasureResult:
    value: float
    decomposition_a: Decomposition | None
    decomposition_b: Decomposition | None
    residual: float
    restarts_used: int  # 1 when a certificate is built, 0 for disjoint supports
    components: int  # certificate length: rank A + rank B - dim S


@dataclass(frozen=True)
class MeasureConfig:
    """``restarts`` and ``seed`` are accepted and ignored: the measure is exact.

    ``restarts`` must still be an integer >= 1 and ``seed`` an integer >= 0.
    ``feas_tol`` is not a field: it reads the fixed `FEAS_TOL`.
    """

    restarts: int = DEFAULT_RESTARTS
    seed: int = 0
    feas_tol: ClassVar[float] = FEAS_TOL


def is_compatible(a: SpectralOperator, b: SpectralOperator) -> bool:
    """True when the supports of ``a`` and ``b`` share a direction.

    A direction is shared when its principal angle has sin^2 <= DEFAULT_EPS_MEM,
    the cut `strength` puts on a ray's kernel weight: against a pure state
    this is ``strength(a, phi).in_range`` up to rounding at the cut.
    """
    _check_same_dim("state", a.dim, b.dim)
    return subspace_intersection_dim(support(a), support(b)) >= 1


def fidelity(a: SpectralOperator, b: SpectralOperator) -> float:
    """Uhlmann fidelity ||sqrt(A) sqrt(B)||_1, an upper bound on the measure.

    Read from the cached eigensystems: with V_X the first numerical_rank
    eigenvectors and R_X = V_X diag(sqrt(w_X)), sqrt(A) sqrt(B) =
    V_A (R_A* R_B) V_B*, and V_A, V_B have orthonormal columns, so the trace
    norm is the sum of the singular values of R_A* R_B. That is one
    r_A x r_B product, and no matrix square root is formed. The kernel
    columns are left out: the square root would lift a rounding-level
    kernel eigenvalue (~1e-17) to weight ~1e-9. The sum is capped
    at 1 and evaluated with the sides in `_side_key` order, like
    `example_measure`, so swapping the arguments gives a bit-identical value.
    """
    _check_same_dim("state", a.dim, b.dim)
    if _side_key(b) < _side_key(a):
        a, b = b, a
    root_a, root_b = (support(op) * np.sqrt(op.eigenvalues[: op.numerical_rank]) for op in (a, b))
    value = float(np.linalg.svd(root_a.conj().T @ root_b, compute_uv=False).sum())
    return min(1.0, value)


def _side_key(op: SpectralOperator) -> tuple[float, bytes, bytes, bytes]:
    """The order in which the two-sided formulas take their sides: smaller key first.

    First lam_max / lam_r of the kept spectrum (r = numerical_rank, 1 at
    rank 0), so the better-conditioned side goes first: `_closed_form`
    builds the shared rays from the first side's factor and rebuilds the
    second through sigma^2 lam, where an ill-conditioned side costs
    residual. Then the matrix bytes, the eigenvalue bytes and the
    ``leading`` bytes break ties, so equal keys mean identical stored data
    and the order does not depend on the order of the arguments.
    """
    r, w = op.numerical_rank, op.eigenvalues
    ratio = float(w[0] / w[r - 1]) if r else 1.0
    return ratio, op.matrix.tobytes(), w.tobytes(), op.leading.tobytes()


def _split(op: SpectralOperator, rot: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A factor of the short of ``op`` to S, plus the rays of what is left.

    ``rot`` rotates the cached support basis V so that its first ``k``
    columns span S, and w is the kept spectrum. The short
    (Q* op^+ Q)^-1 = (C* C)^-1 with C = diag(w)^-1/2 rot[:, :k], so the full
    QR C = [Q1 Q2] [R; 0] gives the factor F = R^-1. What is left,
    op - Q F F* Q*, is G G* with G = V diag(w)^1/2 Q2: its columns are the
    rays, weighted by their squared norms, so rounding cannot leave a
    difference of full rank. When S is the whole support (k = r) the short
    is rot* diag(w) rot, so F = rot* diag(w)^1/2 and nothing is left.
    Returns (F in S coordinates, ray norms, rays as rows, not normalized).
    """
    r = op.numerical_rank
    root = np.sqrt(op.eigenvalues[:r])
    if k == r:
        return rot.conj().T * root, np.zeros(0), np.zeros((0, op.dim), np.complex128)
    q, tri = np.linalg.qr(rot[:, :k] / root[:, None], mode="complete")
    g = (support(op) * root) @ q[:, k:]
    return np.linalg.inv(tri[:k]), np.linalg.norm(g, axis=0), g.T


def _closed_form(a: SpectralOperator, b: SpectralOperator) -> MeasureResult:
    """tr([A]_S # [B]_S) and its certificate, in the argument order given.

    Q is an orthonormal basis of S, and F_A, F_B are factors of the shorts,
    F_A F_A* = A~ = (Q* A^+ Q)^-1 and F_B F_B* = B~ = (Q* B^+ Q)^-1
    (`_split`). With the SVD F_A^-1 F_B = U diag(sigma) W*, the mean is
    A~ # B~ = F_A U diag(sigma) U* F_A*, so the certificate shares the rays
    v_j = Q F_A u_j, weighted lam_j = |v_j|^2 in A and mu_j = sigma_j^2 lam_j in
    B, then adds the rays of A - Q A~ Q* (mu = 0) and of B - Q B~ Q*
    (lam = 0): rank A + rank B - dim S <= dim components. This is the GSVD
    of the two whitened rotations (Van Loan 1976; Paige & Saunders 1981);
    no eigenproblem is solved on S.

    S and its basis come from one SVD of sa* sb (`states._principal_rotations`):
    dim S counts the principal angles with sin^2 <= DEFAULT_EPS_MEM, the cut
    of `is_compatible` and `strength`, and the same rotations give Q.
    The rays are stacked once, shared block first, and normalized as one
    array by the norms the weights come from; both decompositions hold that
    array as their ``rays``, and the residual rebuilds both sides from it.
    """
    sa = support(a)
    k, rot_a, rot_b = _principal_rotations(sa, support(b))
    if k == 0:
        return MeasureResult(0.0, None, None, 0.0, 0, 0)

    f_a, norm_a, rays_a = _split(a, rot_a, k)
    f_b, norm_b, rays_b = _split(b, rot_b, k)
    u, sigma, _ = np.linalg.svd(np.linalg.solve(f_a, f_b))
    shared = (sa @ rot_a[:, :k] @ f_a @ u).T
    norm_s = np.linalg.norm(shared, axis=1)
    lam_s = norm_s**2

    lam = np.concatenate([lam_s, norm_a**2, np.zeros(len(norm_b))])
    mu = np.concatenate([sigma**2 * lam_s, np.zeros(len(norm_a)), norm_b**2])
    norms = np.concatenate([norm_s, norm_a, norm_b])
    _check_norms("a certificate ray", norms)
    rays = np.vstack([shared, rays_a, rays_b]) / norms[:, None]
    dec_a, dec_b = Decomposition(lam, rays), Decomposition(mu, rays)
    residual = float(max(np.linalg.norm(dec.reconstruction() - s.matrix) for dec, s in ((dec_a, a), (dec_b, b))))
    if not residual <= FEAS_TOL:  # also catches a NaN residual
        raise InfeasibleError(f"certificate residual {residual:.3e} exceeds feas_tol {FEAS_TOL:.3e}")
    value = min(1.0, float(np.sqrt(lam * mu).sum()))
    return MeasureResult(value, dec_a, dec_b, residual, 1, len(rays))


def example_measure(a: SpectralOperator, b: SpectralOperator, cfg: MeasureConfig | None = None) -> MeasureResult:
    """The measure tr([A]_S # [B]_S), with the joint decomposition that attains it.

    The closed form runs once, with the side of smaller `_side_key` first
    (the better-conditioned one), so swapping ``a`` and ``b`` gives a
    bit-identical value, residual and certificate, with the two
    decompositions swapped. When the matrix bytes are equal, both sides get
    the first side's decomposition, and the value (sum of its weights) and
    residual are recomputed from it.

    Returns 0 with no certificate when the supports are disjoint. Raises
    ValidationError for a ``cfg`` that breaks `MeasureConfig`'s rules, and
    InfeasibleError when the certificate's reconstruction residual exceeds
    `FEAS_TOL`.
    """
    _check_same_dim("state", a.dim, b.dim)
    cfg = cfg or MeasureConfig()
    _check_count("restarts", cfg.restarts, 1)
    _check_count("seed", cfg.seed)
    key_a, key_b = _side_key(a), _side_key(b)
    swapped = key_b < key_a
    res = _closed_form(b, a) if swapped else _closed_form(a, b)
    dec = res.decomposition_a
    if key_a[1] == key_b[1] and dec is not None:
        # one matrix on both sides: mirror the first side's decomposition,
        # whose residual _closed_form has already checked against FEAS_TOL
        value = min(1.0, float(dec.weights.sum()))
        residual = float(np.linalg.norm(dec.reconstruction() - a.matrix))
        return replace(res, value=value, residual=residual, decomposition_b=dec)
    if swapped:
        return MeasureResult(res.value, res.decomposition_b, dec, res.residual, res.restarts_used, res.components)
    return res


# already independent of argument order; the name stays for existing callers
measure_symmetric = example_measure
