"""Built-in verification suite shared by the CLI and the test battery.

Eight criteria: strength against its bisection oracle, the two-state closed
form, the exact measure, symmetry round trips, adversarial rejection, rank
detection, symmetry invariance and determinism. `measure-exact` holds every
check of the measure: on constructed joint decompositions (known overlap, a
pure side, commuting states, ill-conditioned weights) it bounds the value
by the one-ray bound and the fidelity and the residual of the certificate
`example_measure` returns; on disjoint supports it asks for exactly 0 and
no certificate; and on every pair it asks that the swapped call mirror the
result bit for bit and that `is_compatible` hold exactly when a
certificate exists.

Each criterion is a deterministic seeded batch with an explicit tolerance.
Outcomes carry compact detail strings (counts, max deviations, failure
lists) and nothing derived from wall-clock time, so two runs with the same
seed produce byte-identical payloads.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .errors import NotASymmetryError, ValidationError
from .measure import MeasureResult, example_measure, fidelity, is_compatible
from .states import (
    DEFAULT_EPS_RANK,
    SpectralOperator,
    as_rng,
    child_rng,
    haar_unitary,
    pure_state,
    random_density,
    random_pure,
    random_symmetry,
    support,
    validate_density,
    validate_effect,
)
from .strength import strength, strength_oracle, two_state_formula
from .symmetry import (
    apply_symmetry,
    rank_via_compatibility,
    symmetry_overlap,
    transform_pure,
    transition_prob,
    verify_theorem,
)


@dataclass(frozen=True)
class CriterionOutcome:
    ident: str
    description: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AdversarialCase:
    name: str
    dim: int
    transform: object  # callable SpectralOperator -> SpectralOperator


def _dims(default: tuple[int, ...], cap: tuple[int, int] | None) -> tuple[int, ...]:
    if cap is None:
        return default
    chosen = tuple(d for d in default if cap[0] <= d <= cap[1])
    if not chosen:
        raise ValidationError(f"dims {cap[0]}..{cap[1]} leave no dimension for {default}")
    return chosen


def _random_effect(dim: int, rank: int, rng) -> np.ndarray:
    u = haar_unitary(dim, rng)
    t = np.zeros(dim)
    t[:rank] = rng.uniform(0.05, 1.0, size=rank)
    t[: min(1, rank)] = rng.uniform(0.5, 1.0)  # keep one well-sized eigenvalue
    m = (u * t) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _criterion_strength_oracle(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5, 6), dims_cap)
    total = 60 if quick else 500
    worst = 0.0
    for k in range(total):
        d = dims[k % len(dims)]
        rng = child_rng(seed, 11, k)
        rank = 1 + (k // len(dims)) % d
        eff = validate_effect(_random_effect(d, rank, rng))
        if k % 3 == 0:  # exercise the in-range branch at every rank
            coef = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
            v = support(eff) @ coef
            phi = pure_state(v / np.linalg.norm(v))
        else:
            phi = random_pure(d, seed=rng)
        delta = abs(strength(eff, phi).value - strength_oracle(eff, phi))
        worst = max(worst, delta)
    ok = worst <= 1e-7
    return CriterionOutcome(
        "strength-oracle",
        "closed-form strength equals bisection oracle within 1e-7",
        ok,
        f"n={total} max_delta={worst!r}",
    )


def _criterion_two_state(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5, 6), dims_cap)
    total = 40 if quick else 200
    worst = 0.0
    for k in range(total):
        d = dims[k % len(dims)]
        rng = child_rng(seed, 12, k)
        u = haar_unitary(d, rng)
        p, q = u[:, 0], u[:, 1]
        low = float(rng.uniform(0.05, 0.45))
        high = 1.0 - low
        if k % 10 == 0:
            theta = 0.0  # endpoint: the ray equals the low-weight branch
        elif k % 10 == 1:
            theta = np.pi / 2.0
        else:
            theta = float(rng.uniform(0.1, np.pi / 2 - 0.1))
        eta = float(rng.uniform(0.0, 2 * np.pi))
        r = np.cos(theta) * p + np.sin(theta) * np.exp(1j * eta) * q
        a = validate_density(low * np.outer(p, p.conj()) + high * np.outer(q, q.conj()))
        x = float(np.cos(theta) ** 2)
        predicted = two_state_formula(low, high, x)
        got = strength(a, pure_state(r, normalize=True)).value
        worst = max(worst, abs(predicted - got))
    ok = worst <= 1e-10
    return CriterionOutcome(
        "two-state-closed-form",
        "two-weight mixture strength matches the closed form within 1e-10",
        ok,
        f"n={total} max_delta={worst!r}",
    )


def _joint_decomposition(d: int, kind: int, rng):
    """Two states built from one shared ray list; returns (a, b, rays, lam, mu).

    kind 0: fewer rays than d (rank-deficient sides), 1: d to 2d - 1 rays
    (nearly full rank), 2: orthonormal rays (commuting states), 3: side a is
    the first ray alone, 4: 1 to 2d - 1 rays with log-uniform weights
    10^U(-9, 0), so the sides are ill-conditioned. About 30% of the weights
    are zeroed on each side.
    """
    if kind == 2:
        rays = haar_unitary(d, rng).T
    else:
        if kind == 0:
            n = int(rng.integers(1, d))
        elif kind == 4:
            n = int(rng.integers(1, 2 * d))
        else:
            n = d + int(rng.integers(0, d))
        z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        rays = z / np.linalg.norm(z, axis=1, keepdims=True)
    n = rays.shape[0]
    weights = []
    for _ in range(2):
        raw = 10.0 ** rng.uniform(-9.0, 0.0, n) if kind == 4 else rng.dirichlet(np.ones(n))
        w = raw * (rng.random(n) >= 0.3)
        if w.sum() == 0.0:
            w[int(rng.integers(n))] = 1.0
        weights.append(w / w.sum())
    lam, mu = weights
    if kind == 3:
        lam = np.eye(n)[0]
    states = []
    for w in (lam, mu):
        m = (rays.T * w) @ rays.conj()
        states.append(validate_density((m + m.conj().T) / 2.0))
    return states[0], states[1], rays, lam, mu


def _disjoint_pair(d: int, rng) -> tuple[SpectralOperator, SpectralOperator]:
    u = haar_unitary(d, rng)
    ka = int(rng.integers(1, d))
    wa = rng.dirichlet(np.ones(ka)) * 0.9 + 0.1 / ka
    wb = rng.dirichlet(np.ones(d - ka)) * 0.9 + 0.1 / (d - ka)
    a = (u[:, :ka] * wa) @ u[:, :ka].conj().T
    b = (u[:, ka:] * wb) @ u[:, ka:].conj().T
    return validate_density(a), validate_density(b)


def _dec_bytes(dec) -> tuple[bytes, bytes] | None:
    return None if dec is None else (dec.weights.tobytes(), dec.rays.tobytes())


def _measure_pair(a: SpectralOperator, b: SpectralOperator) -> tuple[MeasureResult, bool]:
    """``example_measure(a, b)`` and whether the pair passes the checks every
    pair gets: ``example_measure(b, a)`` mirrors it bit for bit (same value and
    residual, same weight and ray bytes with the decompositions swapped), and
    ``is_compatible`` holds exactly when a certificate exists."""
    res, mirror = example_measure(a, b), example_measure(b, a)
    mirrored = (res.value, res.residual, _dec_bytes(res.decomposition_a), _dec_bytes(res.decomposition_b)) == (
        mirror.value,
        mirror.residual,
        _dec_bytes(mirror.decomposition_b),
        _dec_bytes(mirror.decomposition_a),
    )
    return res, mirrored and is_compatible(a, b) == (res.decomposition_a is not None)


def _criterion_measure_exact(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5, 6, 7, 8), dims_cap)
    total = 16 if quick else 96
    limits = dict(overlap=1e-10, pure=1e-9, commuting=1e-10, lb=1e-10, fidelity=1e-10, residual=1e-12)
    # kind 4 has limits of its own, above the conditioning cost measured over
    # seeds 0-999 (overlap shortfall <= 2.7e-11 at seed 249, residual <= 3.8e-8
    # at seed 18; with --dims 2..2 --quick 1.2e-13 and 1.1e-15)
    limits.update(ill_overlap=1e-9, ill_residual=1e-6)
    worst = dict.fromkeys(limits, 0.0)
    failures = []
    for k in range(total):
        d = dims[k % len(dims)]
        kind = k % 4
        rng = child_rng(seed, 22, k)
        a, b, rays, lam, mu = _joint_decomposition(d, kind, rng)
        res, ok = _measure_pair(a, b)
        if not ok:
            failures.append(f"pair-{k}")
        overlap = float(np.sqrt(lam * mu).sum())
        worst["overlap"] = max(worst["overlap"], overlap - res.value)  # (i)
        if kind == 3:  # (ii)
            s = strength_oracle(b, pure_state(rays[0], normalize=True))
            worst["pure"] = max(worst["pure"], abs(res.value**2 - s))
        if kind == 2:  # (iii)
            worst["commuting"] = max(worst["commuting"], abs(res.value - overlap))
        one_ray = max(
            float(np.sqrt(strength(a, ray).value * strength(b, ray).value))
            for ray in (pure_state(c, normalize=True) for c in rays)
        )
        worst["lb"] = max(worst["lb"], one_ray - res.value)  # (iv)
        worst["fidelity"] = max(worst["fidelity"], res.value - fidelity(a, b))
        worst["residual"] = max(worst["residual"], res.residual)  # (vi)
    # (vii) ill-conditioned sides, on their own substream: shared rays with
    # weights down to 1e-9 reach the overlap only if dim S counts them
    n_ill = 0
    for k in range(total // 2):
        d = dims[k % len(dims)]
        a, b, rays, lam, mu = _joint_decomposition(d, 4, child_rng(seed, 23, k))
        res, ok = _measure_pair(a, b)
        if not ok:
            failures.append(f"ill-{k}")
        if (a.numerical_rank, b.numerical_rank) != (min(d, np.count_nonzero(lam)), min(d, np.count_nonzero(mu))):
            continue  # a weight fell through the rank cut: the built overlap is not a bound
        n_ill += 1
        worst["ill_overlap"] = max(worst["ill_overlap"], float(np.sqrt(lam * mu).sum()) - res.value)
        worst["ill_residual"] = max(worst["ill_residual"], res.residual)
    # (viii) disjoint supports, on their own substream: exactly 0 and no certificate
    for k in range(total // 2):
        res, ok = _measure_pair(*_disjoint_pair(dims[k % len(dims)], child_rng(seed, 14, k)))
        if not ok or res.decomposition_a is not None or res.value != 0.0:
            failures.append(f"disjoint-{k}")
    ok = not failures and all(worst[key] <= limit for key, limit in limits.items())
    return CriterionOutcome(
        "measure-exact",
        "on constructed joint decompositions the measure reaches their overlap, equals sqrt(strength) "
        "with a pure side and sum sqrt(pq) for commuting states, sits between the one-ray bound and "
        "the fidelity and reconstructs both states within 1e-12; with weights down to 1e-9 it "
        "reaches the overlap within 1e-9 and reconstructs within 1e-6; disjoint supports give "
        "exactly 0 and no certificate; on every pair the swapped call mirrors the result bit for "
        "bit and compatibility holds exactly when a certificate exists",
        ok,
        " ".join(
            [f"n={total}"]
            + [f"max_{key}={value!r}" for key, value in worst.items()]
            + [f"n_ill={n_ill}", f"n_disjoint={total // 2}", f"failures={failures!r}"]
        ),
    )


def _criterion_roundtrip(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5, 6, 7, 8), dims_cap)
    total = 12 if quick else 100
    n_mixed = 4 if quick else 6
    half = total // 2
    bad = []
    worst = 0.0
    for k in range(total):
        d = dims[k % len(dims)]
        anti = k >= half
        sym = random_symmetry(d, antiunitary=anti, seed=child_rng(seed, 17, k))
        res = verify_theorem(
            lambda st, s=sym: apply_symmetry(s, st), d, n_mixed=n_mixed, seed=seed + k
        )
        worst = max(worst, res.max_error)
        overlap = symmetry_overlap(res.symmetry, sym)
        if not (
            res.verdict
            and res.symmetry.antiunitary == anti
            and res.max_error <= 1e-8
            and overlap >= 1.0 - 1e-9
        ):
            bad.append(k)
    ok = not bad
    return CriterionOutcome(
        "symmetry-roundtrip",
        "reconstruction from probes recovers every seeded symmetry",
        ok,
        f"n={total} failures={bad!r} max_error={worst!r}",
    )


def _pure_top(state: SpectralOperator) -> bool:
    return state.eigenvalues[0] >= 1.0 - 1e-9


def adversarial_cases(seed: int = 0) -> list[AdversarialCase]:
    """Catalog of state maps that look plausible but are not symmetries.

    Every transform returns valid density operators; rejection must come
    from probe checks or mixed-state comparison, never from input
    validation.
    """
    cases: list[AdversarialCase] = []
    idx = 0

    def next_syms(d: int, count: int = 2):
        nonlocal idx
        out = []
        for _ in range(count):
            out.append(random_symmetry(d, antiunitary=False, seed=child_rng(seed, 18, idx)))
            idx += 1
        return out

    # pure inputs ride one unitary, every mixed input another
    for d in (2, 3, 4, 5, 6):
        u, w = next_syms(d)

        def tamper_mixed(st, u=u, w=w):
            return apply_symmetry(u if _pure_top(st) else w, st)

        cases.append(AdversarialCase(f"tamper-all-mixed-d{d}", d, tamper_mixed))

    # only rank-2 inputs are rerouted
    for d in (3, 4, 5):
        u, w = next_syms(d)

        def tamper_rank2(st, u=u, w=w):
            return apply_symmetry(w if st.numerical_rank == 2 else u, st)

        cases.append(AdversarialCase(f"tamper-rank2-d{d}", d, tamper_rank2))

    # basis rays and superposition rays answer to different generators
    for d in (2, 3, 4, 5):
        u1, u2 = next_syms(d)

        def split_gen(st, u1=u1, u2=u2):
            if _pure_top(st) and float(np.max(np.abs(st.leading[:, 0]) ** 2)) >= 1.0 - 1e-9:
                return apply_symmetry(u1, st)
            return apply_symmetry(u2, st) if _pure_top(st) else apply_symmetry(u1, st)

        cases.append(AdversarialCase(f"split-generator-d{d}", d, split_gen))

    # pure probes come back slightly depolarized
    for d in (2, 3, 4):
        (u,) = next_syms(d, 1)

        def depolarize(st, u=u, d=d):
            out = apply_symmetry(u, st)
            if _pure_top(st):
                m = 0.999 * out.matrix + 0.001 * np.eye(d) / d
                return validate_density(m)
            return out

        cases.append(AdversarialCase(f"depolarize-probes-d{d}", d, depolarize))

    # nonlinear warp: fixes pures, bends every mixed spectrum
    for d in (2, 3, 4):

        def square_warp(st):
            m = st.matrix @ st.matrix
            return validate_density(m / np.trace(m).real)

        cases.append(AdversarialCase(f"square-warp-d{d}", d, square_warp))

    # rotation angle driven by the input's purity
    for d in (2, 3):
        rng = as_rng(child_rng(seed, 19, d))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (h + h.conj().T) / 2.0
        hw, hv = np.linalg.eigh(h)

        def purity_rotation(st, hw=hw, hv=hv):
            s = float(np.sum(st.eigenvalues**2))
            g = (hv * np.exp(1j * np.pi * (1.0 - s) * hw)) @ hv.conj().T
            return validate_density(g @ st.matrix @ g.conj().T)

        cases.append(AdversarialCase(f"purity-rotation-d{d}", d, purity_rotation))

    # the relative-phase probe alone gets the conjugate image
    for d in (2, 3):
        (u,) = next_syms(d, 1)
        imag_vec = np.zeros(d, dtype=np.complex128)
        imag_vec[0] = 1.0 / np.sqrt(2.0)
        imag_vec[1] = 1j / np.sqrt(2.0)
        imag_proj = np.outer(imag_vec, imag_vec.conj())

        def flip_imag(st, u=u, imag_proj=imag_proj):
            if float(np.linalg.norm(st.matrix - imag_proj)) < 1e-9:
                return validate_density(u.u @ st.matrix.conj() @ u.u.conj().T)
            return apply_symmetry(u, st)

        cases.append(AdversarialCase(f"flip-phase-probe-d{d}", d, flip_imag))

    return cases


def _criterion_adversarial(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    cases = adversarial_cases(seed)
    if quick:
        cases = cases[::3]
    escaped = []
    for case in cases:
        try:
            res = verify_theorem(case.transform, case.dim, n_mixed=6, seed=seed)
        except NotASymmetryError:
            continue
        if res.verdict:
            escaped.append(case.name)
    ok = not escaped
    return CriterionOutcome(
        "adversarial-rejection",
        "every non-symmetry in the catalog is rejected",
        ok,
        f"n={len(cases)} escaped={escaped!r}",
    )


def _edge_density(d: int, rank: int, rng) -> SpectralOperator:
    """Validated state of rank 2..d-1 whose smallest kept and largest dropped
    eigenvalues lie within 10x of the rank cut, above and below it, each at
    least a factor 10^0.1 away from it, far beyond eigh's rounding."""
    u = haar_unitary(d, rng)
    w = np.zeros(d)
    w[: rank - 1] = np.sort(rng.uniform(0.5, 1.0, rank - 1))[::-1]
    w[rank - 1] = w[0] * DEFAULT_EPS_RANK * 10.0 ** rng.uniform(0.1, 1.0)
    w[rank] = w[0] * DEFAULT_EPS_RANK * 10.0 ** rng.uniform(-1.0, -0.1)
    m = (u * (w / w.sum())) @ u.conj().T
    return validate_density((m + m.conj().T) / 2.0)


def _criterion_rank_detection(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5, 8, 16, 32, 64), dims_cap)
    total = 40 if quick else 200
    # states at the rank cut need a kept and a dropped eigenvalue besides
    # the largest, so d >= 3
    edge_dims = [d for d in dims if d >= 3]
    n_edge = (1 if quick else 4) * len(edge_dims)
    bad = []
    for k in range(total + n_edge):
        if k < total:
            d = dims[k % len(dims)]
            rank = 1 + (k // len(dims)) % d
            state = random_density(d, rank, seed=child_rng(seed, 20, k))
        else:
            j = k - total
            d = edge_dims[j % len(edge_dims)]
            rank = 2 + (j // len(edge_dims)) % (d - 2)
            state = _edge_density(d, rank, child_rng(seed, 24, j))
        if not rank_via_compatibility(state) == state.numerical_rank == rank:
            bad.append(k)
    ok = not bad
    return CriterionOutcome(
        "rank-detection",
        "compatibility queries recover the spectral rank",
        ok,
        f"n={total + n_edge} failures={bad!r}",
    )


def _transform_effect(sym, eff):
    m = eff.matrix.conj() if sym.antiunitary else eff.matrix
    return validate_effect(sym.u @ m @ sym.u.conj().T)


def _criterion_invariance(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5), dims_cap)
    total = 12 if quick else 48
    worst = 0.0
    bool_bad = []
    for k in range(total):
        d = dims[k % len(dims)]
        anti = k % 2 == 1
        rng = child_rng(seed, 21, k)
        sym = random_symmetry(d, antiunitary=anti, seed=rng)
        eff = validate_effect(_random_effect(d, 1 + (k // len(dims)) % d, rng))
        phi = random_pure(d, seed=rng)
        s0 = strength(eff, phi).value
        s1 = strength(_transform_effect(sym, eff), transform_pure(sym, phi)).value
        worst = max(worst, abs(s0 - s1))

        p, q = random_pure(d, seed=rng), random_pure(d, seed=rng)
        t0 = transition_prob(p, q)
        t1 = transition_prob(transform_pure(sym, p), transform_pure(sym, q))
        worst = max(worst, abs(t0 - t1))

        a = random_density(d, 1 + (k // len(dims)) % d, seed=rng)
        b = random_density(d, 1 + (k // len(dims) + 1) % d, seed=rng)
        a1, b1 = apply_symmetry(sym, a), apply_symmetry(sym, b)
        if is_compatible(a, b) != is_compatible(a1, b1):
            bool_bad.append(k)
        worst = max(worst, abs(example_measure(a, b).value - example_measure(a1, b1).value))
    ok = worst <= 1e-10 and not bool_bad
    return CriterionOutcome(
        "symmetry-invariance",
        "strength, transition probability, the measure and compatibility are symmetry invariant",
        ok,
        f"n={total} max_delta={worst!r} bool_failures={bool_bad!r}",
    )


def _criterion_determinism(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    def probe() -> bytes:
        outs = [
            _criterion_two_state(seed, dims_cap, True),
            _criterion_rank_detection(seed, dims_cap, True),
        ]
        return json.dumps([asdict(o) for o in outs], sort_keys=True).encode()

    first, second = probe(), probe()
    ok = first == second
    return CriterionOutcome(
        "determinism",
        "repeated seeded runs produce byte-identical payloads",
        ok,
        f"bytes={len(first)} identical={ok}",
    )


_CRITERIA = (
    _criterion_strength_oracle,
    _criterion_two_state,
    _criterion_measure_exact,
    _criterion_roundtrip,
    _criterion_adversarial,
    _criterion_rank_detection,
    _criterion_invariance,
    _criterion_determinism,
)


def timed_criteria(
    seed: int = 0, dims_cap: tuple[int, int] | None = None, quick: bool = False
) -> Iterator[tuple[CriterionOutcome, float]]:
    """Run the criteria in order, yielding each outcome with its wall time in ms.

    The times are kept apart from the outcomes, whose payload stays
    byte-identical across runs.
    """
    for fn in _CRITERIA:
        t0 = time.perf_counter()
        outcome = fn(seed, dims_cap, quick)
        yield outcome, (time.perf_counter() - t0) * 1000.0


def run_criteria(
    seed: int = 0, dims_cap: tuple[int, int] | None = None, quick: bool = False
) -> list[CriterionOutcome]:
    return [outcome for outcome, _ in timed_criteria(seed, dims_cap, quick)]


def payload(outcomes: list[CriterionOutcome]) -> dict:
    return {
        "criteria": [asdict(o) for o in outcomes],
        "all_passed": all(o.passed for o in outcomes),
    }
