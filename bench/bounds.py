"""Closed-form bounds on the decomposition measure, and the call classifier.

Lower bound LB, the best one-ray certificate. For a ray c inside supp X the
largest t with t|c><c| <= X is s_X(c) = 1 / <c|X^+|c>. A ray c in both
supports can therefore carry weight s_A(c) in a decomposition of A and
s_B(c) in one of B, so sqrt(s_A(c) s_B(c)) is a value the measure can reach.
Any such ray gives a valid LB; the candidates are the principal directions of
the support intersection plus seeded random combinations of them.

Upper bound UB. When one side is a pure ray p, p is the only component the
two decompositions can share, so the measure is exactly sqrt(s_other(p)) and
LB = UB. Otherwise UB is the fidelity F = ||sqrt(A) sqrt(B)||_1, which bounds
the overlap of any pair of joint decompositions (Uhlmann 1976; Jozsa 1994).

Everything here is computed with numpy directly, independent of the library.
"""

from __future__ import annotations

import numpy as np

RANK_EPS = 1e-10  # eigenvalues above RANK_EPS * largest span the support
MEMBER_EPS = 1e-8  # a ray is in the support when its kernel weight is below this
INTERSECT_COS = 1.0 - 1e-8  # principal-angle cosine that counts as a shared ray
RANDOM_RAYS = 32

UB_SLACK = 1e-8
LB_SLACK = 2e-3  # the slack the shipped measure-vs-strength criterion allows


def support(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive eigenvalues (descending) and their eigenvectors."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w, v = w[::-1], v[:, ::-1]
    keep = w > RANK_EPS * w[0]
    return w[keep], v[:, keep]


def ray_strength(w: np.ndarray, v: np.ndarray, c: np.ndarray) -> float:
    """Largest t with t|c><c| <= V diag(w) V^H, for a unit vector c."""
    coeff = v.conj().T @ c
    inside = float(np.real(np.vdot(coeff, coeff)))
    if 1.0 - inside > MEMBER_EPS:
        return 0.0
    return min(1.0, 1.0 / float(np.sum(np.abs(coeff) ** 2 / w)))


def intersection_rays(va: np.ndarray, vb: np.ndarray) -> list[np.ndarray]:
    """Principal directions shared by the two column spans."""
    u, s, _ = np.linalg.svd(va.conj().T @ vb)
    rays = []
    for i in np.flatnonzero(s >= INTERSECT_COS):
        c = va @ u[:, i]
        rays.append(c / np.linalg.norm(c))
    return rays


def lower_bound(a: np.ndarray, b: np.ndarray, seed: int) -> float:
    wa, va = support(a)
    wb, vb = support(b)
    rays = intersection_rays(va, vb)
    if not rays:
        return 0.0
    k = len(rays)
    if k > 1:
        rng = np.random.default_rng(seed)
        basis = np.column_stack(rays)
        for _ in range(RANDOM_RAYS):
            c = basis @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            rays.append(c / np.linalg.norm(c))
    return max(float(np.sqrt(ray_strength(wa, va, c) * ray_strength(wb, vb, c))) for c in rays)


def upper_bound(a: np.ndarray, b: np.ndarray) -> float:
    wa, va = support(a)
    wb, vb = support(b)
    if wa.size == 1:
        return float(np.sqrt(ray_strength(wb, vb, va[:, 0])))
    if wb.size == 1:
        return float(np.sqrt(ray_strength(wa, va, vb[:, 0])))
    root_a = (va * np.sqrt(wa)) @ va.conj().T
    root_b = (vb * np.sqrt(wb)) @ vb.conj().T
    return min(1.0, float(np.linalg.svd(root_a @ root_b, compute_uv=False).sum()))


def classify(value: float, residual: float, lb: float, ub: float, feas_tol: float) -> tuple[str, ...]:
    """Reasons a measure result fails its bounds; empty when it passes."""
    reasons = []
    if not residual <= feas_tol:
        reasons.append("residual")
    if value > ub + UB_SLACK:
        reasons.append("above_ub")
    if value < lb - LB_SLACK:
        reasons.append("below_lb")
    return tuple(reasons)
