"""Largest ray weight dominated by an effect, and its bisection cross-check.

For an effect T and a unit vector phi, the quantity computed here is

    sup { t in [0, 1] : t * |phi><phi| <= T },

which is finite and positive exactly when phi lies in the range of sqrt(T).
The closed form runs through the spectral decomposition of T. The oracle
re-derives the same number by bisection on t and is kept deliberately
independent of the closed form: it reads only the matrix of T, never its
spectral data. Each test asks one yes/no question, whether the smallest
eigenvalue of T - t * |phi><phi| stays at or above PSD_FLOOR, and answers it
with a Cholesky factorization of S - t |phi><phi|, S = T + |PSD_FLOOR| I,
instead of a full eigenvalue solve. The two tests beside 1 / (phi* S^-1 phi),
the boundary of that same test by the matrix determinant lemma, run first,
and an endpoint of [0, 1] is tested only while their bracket leaves its
side open; so when that boundary is right two tests and at most one
bisection step follow the solve, and the Cholesky test alone decides the
answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidWeightsError
from .states import (
    DEFAULT_EPS_MEM,
    PureState,
    SpectralOperator,
    _check_count,
    _check_same_dim,
    _check_tolerance,
    _random_rays,
    as_rng,
    support,
)

# rays whose squared kernel component lands in (DEFAULT_EPS_MEM, NEAR_BOUNDARY_SQ]
# get value 0 but are flagged: the value jumps discontinuously there
NEAR_BOUNDARY_SQ = 1e-4
PSD_FLOOR = -1e-13
BISECTION_MAX_ITER = 80
BISECTION_TOL = 1e-10


@dataclass(frozen=True)
class StrengthResult:
    value: float
    in_range: bool
    near_boundary: bool = False


def _strengths(effect: SpectralOperator, rays: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed form on every column of ``rays``: values, in-range and near-boundary flags.

    With V = ``support(effect)`` the support columns, a column's kernel
    weight is its squared residual off the support, |phi - V V* phi|^2. A
    column whose kernel weight exceeds DEFAULT_EPS_MEM gets value 0; one on
    the support gets 1 / sum_i |<e_i, phi>|^2 / t_i, clipped at 1.
    """
    v = support(effect)
    coeffs = v.conj().T @ rays
    kernel_sq = (np.abs(rays - v @ coeffs) ** 2).sum(axis=0)
    denom = (np.abs(coeffs) ** 2 / effect.eigenvalues[: v.shape[1], None]).sum(axis=0)
    in_range = (kernel_sq <= DEFAULT_EPS_MEM) & (denom > 0.0)
    values = np.minimum(1.0, np.divide(1.0, denom, out=np.zeros_like(denom), where=in_range))
    near = (kernel_sq > DEFAULT_EPS_MEM) & (kernel_sq <= NEAR_BOUNDARY_SQ)
    return values, in_range, near


def strength(effect: SpectralOperator, phi: PureState) -> StrengthResult:
    """Spectral closed form: 1 / sum_i |<e_i, phi>|^2 / t_i over the support."""
    _check_same_dim("effect and vector", effect.dim, phi.dim)
    values, in_range, near = _strengths(effect, phi.vector[:, None])
    return StrengthResult(float(values[0]), bool(in_range[0]), bool(near[0]))


def strength_oracle(effect: SpectralOperator, phi: PureState) -> float:
    """Largest t in [0, 1] with T - t * |phi><phi| >= PSD_FLOOR * I, by bisection.

    Returns the largest t in [0, 1] whose floor eigenvalue stays at or above
    PSD_FLOOR = -1e-13, to absolute tolerance BISECTION_TOL. A test does not
    compute the floor eigenvalue; it shifts T once by 1e-13 I and asks
    whether S - t * |phi><phi|, S the shifted T, has a Cholesky factor,
    which it has exactly when that matrix is positive definite. The test
    passes exactly when t < 1 / (phi* S^-1 phi), so one solve gives its
    boundary, and the points BISECTION_TOL / 2 below and above it inside
    (0, 1) are tested first: a feasible one raises the bracket's floor and
    an infeasible one lowers its ceiling. Since phi phi* >= 0, a raised
    floor means 0 is feasible and a lowered ceiling means 1 is infeasible,
    so an endpoint is tested only while its side of the bracket is still
    open: 0 failing gives 0, 1 passing gives 1. Then the bracket is halved
    until it is BISECTION_TOL wide. The solve only places tests: a wrong
    boundary, or none when S is singular or phi* S^-1 phi is not a positive
    finite number, costs tests and bisection steps and never changes the
    answer. Only the matrix of T is read, so the oracle stays independent of
    the closed form. The Cholesky test and the floor eigenvalue can only
    disagree where the latter is within rounding of PSD_FLOOR.
    """
    _check_same_dim("effect and vector", effect.dim, phi.dim)
    shifted = effect.matrix - PSD_FLOOR * np.eye(effect.dim)
    pm = phi.projection

    def feasible(lam: float) -> bool:
        try:
            np.linalg.cholesky(shifted - lam * pm)
        except np.linalg.LinAlgError:
            return False
        return True

    # S - t * phi phi* is positive definite exactly when t < boundary (matrix determinant lemma)
    try:
        with np.errstate(all="ignore"):
            q = float(np.vdot(phi.vector, np.linalg.solve(shifted, phi.vector)).real)
    except np.linalg.LinAlgError:  # a singular S
        q = np.nan
    boundary = 1.0 / q if 0.0 < q < np.inf else np.nan
    lo, hi = 0.0, 1.0
    for t in (boundary - 0.5 * BISECTION_TOL, boundary + 0.5 * BISECTION_TOL):
        if lo < t < hi:
            if feasible(t):
                lo = t
            else:
                hi = t
    # phi phi* >= 0, so a feasible t > 0 makes 0 feasible and an infeasible t < 1
    # makes 1 infeasible: an endpoint is tested only while its side is still open
    if lo == 0.0 and not feasible(0.0):
        return 0.0
    if hi == 1.0 and feasible(1.0):
        return 1.0
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def two_state_formula(weight_low: float, weight_high: float, overlap: float) -> float:
    """Squared compatibility of a two-eigenvalue mixture with a ray in its support.

    For a state with spectral weights ``weight_low < weight_high`` on
    orthogonal rays P and Q, and a ray R in their span with tr(P R) =
    ``overlap``, the strength along R equals

        weight_low * weight_high / ((weight_high - weight_low) * overlap + weight_low).

    At overlap 1 (R = P) this is weight_low; at overlap 0 (R = Q), weight_high.
    """
    if not (0.0 < weight_low < weight_high < 1.0):
        raise InvalidWeightsError(
            f"weights must satisfy 0 < low < high < 1, got ({weight_low!r}, {weight_high!r})"
        )
    if abs(weight_low + weight_high - 1.0) > 1e-12:
        raise InvalidWeightsError(f"weights must sum to 1, got {weight_low + weight_high!r}")
    if not -1e-12 <= overlap <= 1.0 + 1e-12:
        raise InvalidWeightsError(f"overlap {overlap!r} outside [0, 1]")
    x = min(max(float(overlap), 0.0), 1.0)
    return weight_low * weight_high / ((weight_high - weight_low) * x + weight_low)


def effects_equal_by_strength(
    first: SpectralOperator, second: SpectralOperator, n_rays: int = 50, seed=0, tol: float = 1e-8
) -> bool:
    """Probe two effects along sampled rays and compare their strengths.

    The ray set always contains the stored eigenvector rays (``leading``)
    of both effects, plus ``n_rays`` seeded random rays, the same ones
    ``n_rays`` `random_pure` calls would draw. Random rays alone cannot
    separate effects with different supports, since the strength vanishes
    identically off-range; but then some stored support ray of one effect
    lies off the other's support, where only its own strength is nonzero.
    All rays sit in one array, and each effect's strengths come from one
    stacked product. Raises ValidationError for a ``tol`` that is negative
    or not finite, and for an ``n_rays`` that is not an integer >= 0.
    """
    _check_same_dim("effect", first.dim, second.dim)
    _check_tolerance("tol", tol)
    _check_count("n_rays", n_rays)
    eig_rays = np.hstack([first.leading, second.leading])
    rays = np.hstack([eig_rays / np.linalg.norm(eig_rays, axis=0), _random_rays(first.dim, n_rays, as_rng(seed))])
    gap = np.abs(_strengths(first, rays)[0] - _strengths(second, rays)[0])
    return bool(np.all(gap <= tol))
