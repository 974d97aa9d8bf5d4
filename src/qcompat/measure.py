"""Compatibility detection and the joint-decomposition overlap measure.

Two states are compatible when their supports share a ray. The measure
searches for a single list of pure states that simultaneously decomposes
both operators and reports the largest overlap sum

    sum_n sqrt(lam_n * mu_n)

between the two weight vectors found. Every reported value is a certified
lower bound: it is recomputed from an explicit joint decomposition whose
reconstruction residuals are checked against the feasibility tolerance.

Search layout per restart: 2 * dim free component rays (warm-started from
structured certificates or seeded at random) are refined by alternating
penalized projected weight ascent with per-component eigenvector updates;
a fixed backbone holding the two spectral families and the support
intersection directions keeps the exact-decomposition polytope nonempty, so
the final weights can always be repaired onto it.

Restarts stop early once the best value found reaches a closed-form upper
bound to within _GAP_TOL: sqrt(strength) of the other state along the ray
when one side is pure (then the measure's exact value), the Uhlmann fidelity
otherwise. The bound draws no random numbers and every restart keeps its own
seeded stream, so an early stop changes nothing but ``restarts_used``, unless
a later restart would have beaten a value already within _GAP_TOL of the
bound. The result records the bound (``upper_bound``) and why the loop
stopped (``stop_reason``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, InfeasibleError, ValidationError
from .states import (
    DEFAULT_EPS_RANK,
    PureState,
    SpectralOperator,
    child_rng,
    pure_state,
    sqrt_psd,
    subspace_intersection_dim,
    support,
)
from .strength import strength

DEFAULT_RESTARTS = 32
DEFAULT_FEAS_TOL = 1e-6

# penalty weights and objective smoothing per escalation round
PENALTY_WEIGHTS = (1e2, 1e3, 1e4, 1e5, 1e6)
SMOOTHING = tuple(10.0 ** (-4 - 2 * k) for k in range(5))  # 1e-4 .. 1e-12

_ASCENT_ITERS = 90
_POLISH_STEPS = 40
_REPAIR_ITERS = 600
_CAND_TOL = 1e-9
_FINAL_TOL = 5e-13
_GAP_TOL = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """Convex weights over a shared list of pure components."""

    weights: np.ndarray
    pures: tuple[PureState, ...]

    def reconstruction(self) -> np.ndarray:
        dim = self.pures[0].dim if self.pures else 0
        out = np.zeros((dim, dim), dtype=np.complex128)
        for w, p in zip(self.weights, self.pures):
            out += w * p.projection
        return out


@dataclass(frozen=True)
class MeasureResult:
    value: float
    decomposition_a: Decomposition | None
    decomposition_b: Decomposition | None
    residual: float
    restarts_used: int
    components: int
    upper_bound: float  # the closed-form bound the restarts stopped against
    stop_reason: str  # "bound", "exhausted" or "disjoint"


@dataclass(frozen=True)
class MeasureConfig:
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0
    feas_tol: float = DEFAULT_FEAS_TOL


def is_compatible(a: SpectralOperator, b: SpectralOperator, eps_rank: float = DEFAULT_EPS_RANK) -> bool:
    """True when the supports of ``a`` and ``b`` intersect nontrivially."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dims differ: {a.dim} != {b.dim}")
    return subspace_intersection_dim(support(a), support(b), eps_rank) >= 1


def fidelity(a: SpectralOperator, b: SpectralOperator) -> float:
    """tr sqrt(sqrt(A) B sqrt(A)); diagnostic companion to the measure."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dims differ: {a.dim} != {b.dim}")
    root = sqrt_psd(a)
    inner = root @ b.matrix @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    value = float(np.sqrt(np.clip(w, 0.0, None)).sum())
    return min(1.0, max(0.0, value))


def _upper_bound(a: SpectralOperator, b: SpectralOperator) -> float:
    """sqrt(strength) of the other state along a pure side's ray, else the fidelity."""
    for pure, other in ((a, b), (b, a)):
        if pure.numerical_rank == 1:
            ray = pure_state(pure.eigenvectors[:, 0], normalize=True)
            return float(np.sqrt(strength(other, ray).value))
    return fidelity(a, b)


def _intersection_vectors(sa: np.ndarray, sb: np.ndarray, count: int) -> list[np.ndarray]:
    """Principal directions of the support overlap, one per shared dimension."""
    overlap = sa.conj().T @ sb
    u, _, _ = np.linalg.svd(overlap)
    vecs = []
    for i in range(min(count, u.shape[1])):
        w = sa @ u[:, i]
        vecs.append(w / np.linalg.norm(w))
    return vecs


def _realify(h: np.ndarray, iu: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Isometric real embedding of a Hermitian matrix (Frobenius preserving)."""
    off = h[iu] * np.sqrt(2.0)
    return np.concatenate([np.diagonal(h).real, off.real, off.imag])


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.shape[0] + 1)
    cond = u - css / ind > 0.0
    rho = ind[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(v - theta, 0.0)


class _JointSearch:
    """Mutable optimizer state: 2 * dim free rays, then the backbone, plus weights for both targets."""

    def __init__(self, a: SpectralOperator, b: SpectralOperator, vectors: np.ndarray):
        self.a = a
        self.b = b
        self.d = a.dim
        self.iu = np.triu_indices(self.d, k=1)
        self.vectors = vectors.copy()
        self.target_a = _realify(a.matrix, self.iu)
        self.target_b = _realify(b.matrix, self.iu)
        self.n = vectors.shape[0]
        self.rows = np.empty((self.n, self.d * self.d))
        for i in range(self.n):
            self._set_row(i)
        self.lam = np.zeros(self.n)
        self.mu = np.zeros(self.n)
        self._fact = None

    def _set_row(self, i: int) -> None:
        v = self.vectors[i]
        self.rows[i] = _realify(np.outer(v, v.conj()), self.iu)

    def _factorization(self):
        if self._fact is None:
            u, s, vh = np.linalg.svd(self.rows, full_matrices=True)
            rank = int(np.count_nonzero(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
            pinv = (vh[:rank].conj().T / s[:rank]) @ u[:, :rank].conj().T
            null = u[:, rank:]
            self._fact = (pinv, null)
        return self._fact

    def viol(self, lam: np.ndarray, mu: np.ndarray) -> float:
        ra = lam @ self.rows - self.target_a
        rb = mu @ self.rows - self.target_b
        return float(max(np.linalg.norm(ra), np.linalg.norm(rb)))

    @staticmethod
    def value_of(lam: np.ndarray, mu: np.ndarray) -> float:
        return float(np.sqrt(np.clip(lam * mu, 0.0, None)).sum())

    # -- penalized projected ascent (inner stage) --

    def _objective(self, lam, mu, rho, delta):
        ra = lam @ self.rows - self.target_a
        rb = mu @ self.rows - self.target_b
        smooth = np.sqrt(np.clip(lam * mu, 0.0, None) + delta).sum()
        return smooth - rho * (ra @ ra + rb @ rb)

    def ascend(self, rho: float, delta: float) -> None:
        lam, mu = self.lam, self.mu
        obj = self._objective(lam, mu, rho, delta)
        step = 0.1
        for _ in range(_ASCENT_ITERS):
            root = np.sqrt(np.clip(lam * mu, 0.0, None) + delta)
            ga = mu / (2.0 * root) - 2.0 * rho * ((lam @ self.rows - self.target_a) @ self.rows.T)
            gb = lam / (2.0 * root) - 2.0 * rho * ((mu @ self.rows - self.target_b) @ self.rows.T)
            moved = False
            while step > 1e-14:
                nl = _project_simplex(lam + step * ga)
                nm = _project_simplex(mu + step * gb)
                nobj = self._objective(nl, nm, rho, delta)
                if nobj > obj + 1e-15:
                    lam, mu, obj = nl, nm, nobj
                    step = min(step * 1.3, 1e3)
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
        self.lam, self.mu = lam, mu

    # -- eigenvector coordinate updates (outer stage) --

    def sweep(self) -> None:
        projs = np.einsum("ni,nj->nij", self.vectors, self.vectors.conj())
        sa = np.tensordot(self.lam, projs, axes=1)
        sb = np.tensordot(self.mu, projs, axes=1)
        ea = sa - self.a.matrix
        eb = sb - self.b.matrix
        changed = False
        for n in range(2 * self.d):
            ln, mn = self.lam[n], self.mu[n]
            pn = projs[n]
            if ln + mn < 1e-10:
                target = -(ea + eb)  # deficit direction for idle components
            else:
                target = ln * (self.a.matrix - (sa - ln * pn)) + mn * (self.b.matrix - (sb - mn * pn))
            w, v = np.linalg.eigh((target + target.conj().T) / 2.0)
            q = v[:, -1]
            if abs(np.vdot(q, self.vectors[n])) ** 2 > 1.0 - 1e-14:
                continue
            qq = np.outer(q, q.conj())
            sa += ln * (qq - pn)
            sb += mn * (qq - pn)
            ea = sa - self.a.matrix
            eb = sb - self.b.matrix
            projs[n] = qq
            self.vectors[n] = q
            self._set_row(n)
            changed = True
        if changed:
            self._fact = None

    # -- exact-polytope repair and polish --

    def dykstra(self, target: np.ndarray, x0: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, float]:
        pinv, _ = self._factorization()
        x = np.maximum(x0, 0.0)
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        best_x, best_v = x, float(np.linalg.norm(x @ self.rows - target))
        for _ in range(max_iter):
            y = x + p
            y = y - (y @ self.rows - target) @ pinv
            p = (x + p) - y
            xn = np.maximum(y + q, 0.0)
            q = (y + q) - xn
            v = float(np.linalg.norm(xn @ self.rows - target))
            if v < best_v:
                best_x, best_v = xn, v
            if v <= tol and np.abs(xn - x).max() <= tol:
                return xn, v
            x = xn
        return best_x, best_v

    def polish(self, tol: float) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Repair current weights onto the exact polytopes, then ascend inside.

        Movement stays in the null space of the constraint rows, so affine
        feasibility is preserved to machine precision; positivity is kept by
        backtracking. Returns (lam, mu, value, viol).
        """
        lam, _ = self.dykstra(self.target_a, self.lam, tol, _REPAIR_ITERS)
        mu, _ = self.dykstra(self.target_b, self.mu, tol, _REPAIR_ITERS)
        _, null = self._factorization()
        if null.shape[1] > 0:
            step = 0.1
            value = self.value_of(lam, mu)
            for _ in range(_POLISH_STEPS):
                root = np.sqrt(np.clip(lam * mu, 0.0, None) + 1e-16)
                ga = null @ (null.T @ (mu / (2.0 * root)))
                gb = null @ (null.T @ (lam / (2.0 * root)))
                moved = False
                while step > 1e-12:
                    nl = lam + step * ga
                    nm = mu + step * gb
                    if nl.min() < 0.0 or nm.min() < 0.0:
                        step *= 0.5
                        continue
                    nv = self.value_of(nl, nm)
                    if nv > value + 1e-14:
                        lam, mu, value = nl, nm, nv
                        step = min(step * 1.3, 10.0)
                        moved = True
                        break
                    step *= 0.5
                if not moved:
                    break
        return lam, mu, self.value_of(lam, mu), self.viol(lam, mu)


def _scheme_common_ray(a, b, inter_vecs, total, rng):
    """Exact certificate threading the best shared support direction.

    Puts weight s * (1 - 1e-9) on the strongest intersection ray (s being the
    strength of each state along it) and decomposes both residues spectrally
    into the 2 * dim free slots.
    """
    d = a.dim
    candidates = list(inter_vecs)
    if len(inter_vecs) >= 2:
        for _ in range(2):
            coef = rng.standard_normal(len(inter_vecs)) + 1j * rng.standard_normal(len(inter_vecs))
            w = sum(c * v for c, v in zip(coef, inter_vecs))
            nrm = np.linalg.norm(w)
            if nrm > 1e-12:
                candidates.append(w / nrm)
    best = None
    for c in candidates:
        ray = pure_state(c, normalize=True)
        s_a = strength(a, ray).value
        s_b = strength(b, ray).value
        score = s_a * s_b
        if best is None or score > best[0]:
            best = (score, c, s_a, s_b)
    score, c, s_a, s_b = best
    if score <= 0.0:
        return None
    eps_a = s_a * (1.0 - 1e-9)
    eps_b = s_b * (1.0 - 1e-9)
    pc = np.outer(c, c.conj())
    free = np.zeros((2 * d, d), dtype=np.complex128)
    lam0 = np.zeros(total)
    mu0 = np.zeros(total)

    for offset, (state, eps, weights) in enumerate(
        [(a, eps_a, lam0), (b, eps_b, mu0)]
    ):
        resid = state.matrix - eps * pc
        w, v = np.linalg.eigh((resid + resid.conj().T) / 2.0)
        w = np.clip(w[::-1], 0.0, None)
        v = v[:, ::-1]
        sl = slice(offset * d, (offset + 1) * d)
        free[sl] = v.T
        weights[offset * d : (offset + 1) * d] = w

    # locate c among the backbone intersection slots, the last rows (first one
    # only when c is the first principal direction; match explicitly instead)
    inter_start = total - len(inter_vecs)
    ci = inter_start
    best_ov = -1.0
    for k, v in enumerate(inter_vecs):
        ov = abs(np.vdot(v, c)) ** 2
        if ov > best_ov:
            best_ov = ov
            ci = inter_start + k
    lam0[ci] += eps_a
    mu0[ci] += eps_b
    return free, lam0, mu0


def _scheme_spectral(a, b, inter_vecs, total, rng):
    """Free slots seeded with the spectral family of a, weights paired.

    Side a gets its exact eigenvalues. Side b gets the diagonal of b in the
    same vectors, which is already exact whenever the two states commute
    (identical states included); otherwise the repair step moves it onto
    the feasible set.
    """
    d = a.dim
    ra, rb = a.numerical_rank, b.numerical_rank
    free = np.zeros((2 * d, d), dtype=np.complex128)
    lam0 = np.zeros(total)
    mu0 = np.zeros(total)
    free[:ra] = a.eigenvectors[:, :ra].T
    lam0[:ra] = a.eigenvalues[:ra]
    diag_b = np.einsum("ni,ij,nj->n", free[:ra].conj(), b.matrix, free[:ra]).real
    mu0[:ra] = np.clip(diag_b, 0.0, None)
    free[ra : ra + rb] = b.eigenvectors[:, :rb].T
    for i in range(ra + rb, 2 * d):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        free[i] = z / np.linalg.norm(z)
    return free, lam0, mu0


def _scheme_mixture(a, b, inter_vecs, total, rng):
    """Free slots from the spectral family of the midpoint state."""
    d = a.dim
    mid = (a.matrix + b.matrix) / 2.0
    w, v = np.linalg.eigh((mid + mid.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    keep = [i for i in order if w[i] > 1e-12]
    free = np.zeros((2 * d, d), dtype=np.complex128)
    for slot, i in enumerate(keep):
        free[slot] = v[:, i]
    for i in range(len(keep), 2 * d):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        free[i] = z / np.linalg.norm(z)
    return free, None, None


def _scheme_random(a, b, inter_vecs, total, rng):
    d = a.dim
    z = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    free = z / np.linalg.norm(z, axis=1, keepdims=True)
    return free, None, None


def _heuristic_weights(system: _JointSearch, state: SpectralOperator) -> np.ndarray:
    h = np.einsum("ni,ij,nj->n", system.vectors.conj(), state.matrix, system.vectors).real
    h = np.clip(h, 0.0, None)
    total = h.sum()
    return h / total if total > 0 else np.full(system.n, 1.0 / system.n)


def example_measure(a: SpectralOperator, b: SpectralOperator, cfg: MeasureConfig | None = None) -> MeasureResult:
    """Best joint pure-state decomposition overlap found across restarts.

    Returns 0 with an empty certificate when the supports are disjoint
    (``stop_reason`` "disjoint", ``upper_bound`` 0.0). Otherwise the restarts
    stop as soon as the best value is within _GAP_TOL of ``upper_bound``
    (``stop_reason`` "bound"), or after ``cfg.restarts`` ("exhausted");
    ``restarts_used`` counts the restarts run. Raises InfeasibleError when no
    restart yields reconstruction residuals within ``cfg.feas_tol``. Ties
    across restarts keep the earliest restart.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dims differ: {a.dim} != {b.dim}")
    cfg = cfg or MeasureConfig()
    n_free = 2 * a.dim
    if cfg.restarts < 1:
        raise ValidationError("restarts must be positive")

    sa, sb = support(a), support(b)
    inter_dim = subspace_intersection_dim(sa, sb)
    if inter_dim == 0:
        return MeasureResult(0.0, None, None, 0.0, 0, n_free, 0.0, "disjoint")

    inter_vecs = _intersection_vectors(sa, sb, inter_dim)
    backbone = np.vstack([sa.T, sb.T] + [v[None, :] for v in inter_vecs])
    total = n_free + backbone.shape[0]
    schemes = [_scheme_common_ray, _scheme_spectral, _scheme_mixture]
    ub = _upper_bound(a, b)

    best = None  # (value, lam, mu, system)
    used = 0
    stop_reason = "exhausted"
    for ridx in range(cfg.restarts):
        used = ridx + 1
        rng = child_rng(cfg.seed, 1, ridx)
        builder = schemes[ridx] if ridx < len(schemes) else _scheme_random
        built = builder(a, b, inter_vecs, total, rng)
        if built is None:
            built = _scheme_random(a, b, inter_vecs, total, rng)
        free, lam0, mu0 = built
        system = _JointSearch(a, b, np.vstack([free, backbone]))

        # every restart begins from repaired weights; exact constructions
        # pass through the repair untouched
        if lam0 is None:
            lam0 = _heuristic_weights(system, a)
        if mu0 is None:
            mu0 = _heuristic_weights(system, b)
        lam0, _ = system.dykstra(system.target_a, lam0, 1e-11, _REPAIR_ITERS)
        mu0, _ = system.dykstra(system.target_b, mu0, 1e-11, _REPAIR_ITERS)
        system.lam, system.mu = lam0.copy(), mu0.copy()

        # candidates carry a snapshot of the rays they were scored against,
        # because the sweeps below keep mutating the free components
        candidates = []
        warm_viol = system.viol(lam0, mu0)
        if warm_viol <= _CAND_TOL:
            candidates.append(
                (system.value_of(lam0, mu0), lam0.copy(), mu0.copy(), system.vectors.copy())
            )

        for rho, delta in zip(PENALTY_WEIGHTS, SMOOTHING):
            system.ascend(rho, delta)
            system.sweep()
        lam, mu, value, viol = system.polish(tol=1e-10)
        if viol <= _CAND_TOL:
            candidates.append((value, lam, mu, system.vectors.copy()))

        for cand in candidates:
            if best is None or cand[0] > best[0] + 1e-15:
                best = cand
        if best is not None and best[0] >= ub - _GAP_TOL:
            stop_reason = "bound"
            break

    if best is None:
        raise InfeasibleError("no restart produced a feasible joint decomposition")

    _, lam, mu, vectors = best
    system = _JointSearch(a, b, vectors)
    lam, _ = system.dykstra(system.target_a, lam, _FINAL_TOL, 4000)
    mu, _ = system.dykstra(system.target_b, mu, _FINAL_TOL, 4000)

    pures = tuple(pure_state(v, normalize=True) for v in system.vectors)
    dec_a = Decomposition(lam.copy(), pures)
    dec_b = Decomposition(mu.copy(), pures)
    residual = float(
        max(
            np.linalg.norm(dec_a.reconstruction() - a.matrix),
            np.linalg.norm(dec_b.reconstruction() - b.matrix),
        )
    )
    if residual > cfg.feas_tol:
        raise InfeasibleError(
            f"best decomposition residual {residual:.3e} exceeds feas_tol {cfg.feas_tol:.3e}"
        )
    value = min(1.0, _JointSearch.value_of(lam, mu))
    return MeasureResult(value, dec_a, dec_b, residual, used, n_free, ub, stop_reason)


def _result_key(res: MeasureResult) -> bytes:
    parts = [np.float64(res.value).tobytes(), np.float64(res.residual).tobytes()]
    for dec in (res.decomposition_a, res.decomposition_b):
        if dec is not None:
            parts.append(np.ascontiguousarray(dec.weights).tobytes())
            for p in dec.pures:
                parts.append(np.ascontiguousarray(p.vector).tobytes())
    return b"".join(parts)


def measure_symmetric(a: SpectralOperator, b: SpectralOperator, cfg: MeasureConfig | None = None) -> MeasureResult:
    """Symmetrized measure: runs both argument orders, keeps the larger value.

    Both orders run with the same seed, and exact value ties resolve by a
    content-based key, so the reported result is identical (with the two
    decompositions swapped) whichever way the arguments are passed.
    ``restarts_used``, ``upper_bound`` and ``stop_reason`` are those of the
    winning order.
    """
    r_ab = example_measure(a, b, cfg)
    r_ba = example_measure(b, a, cfg)
    swapped = r_ba.value > r_ab.value or (
        r_ba.value == r_ab.value and _result_key(r_ba) < _result_key(r_ab)
    )
    if not swapped:
        return r_ab
    return replace(r_ba, decomposition_a=r_ba.decomposition_b, decomposition_b=r_ba.decomposition_a)
