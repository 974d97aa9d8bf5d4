"""Built-in verification suite shared by the CLI and the test battery.

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
from .measure import MeasureConfig, _closed_form, example_measure, fidelity, is_compatible
from .states import (
    SpectralOperator,
    as_rng,
    child_rng,
    haar_unitary,
    pure_state,
    random_density,
    random_pure,
    random_symmetry,
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


def _random_effect(dim: int, rank: int, rng) -> "np.ndarray":
    u = haar_unitary(dim, rng)
    t = np.zeros(dim)
    t[:rank] = rng.uniform(0.05, 1.0, size=rank)
    t[: min(1, rank)] = rng.uniform(0.5, 1.0)  # keep one well-sized eigenvalue
    m = (u[:, :dim] * t) @ u[:, :dim].conj().T
    return (m + m.conj().T) / 2.0


def _criterion_strength_oracle(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5, 6), dims_cap)
    total = 60 if quick else 500
    worst = 0.0
    n = 0
    for k in range(total):
        d = dims[k % len(dims)]
        rng = child_rng(seed, 11, k)
        rank = 1 + (k // len(dims)) % d
        eff = validate_effect(_random_effect(d, rank, rng))
        if k % 3 == 0:  # exercise the in-range branch at every rank
            coef = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
            v = eff.eigenvectors[:, :rank] @ coef
            phi = pure_state(v / np.linalg.norm(v))
        else:
            phi = random_pure(d, seed=rng)
        delta = abs(strength(eff, phi).value - strength_oracle(eff, phi))
        worst = max(worst, delta)
        n += 1
    ok = worst <= 1e-7
    return CriterionOutcome(
        "strength-oracle",
        "closed-form strength equals bisection oracle within 1e-7",
        ok,
        f"n={n} max_delta={worst!r}",
    )


def _criterion_two_state(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5, 6), dims_cap)
    total = 40 if quick else 200
    worst = 0.0
    n = 0
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
        n += 1
    ok = worst <= 1e-10
    return CriterionOutcome(
        "two-state-closed-form",
        "two-weight mixture strength matches the closed form within 1e-10",
        ok,
        f"n={n} max_delta={worst!r}",
    )


def _supported_pure(a: SpectralOperator, rng) -> "np.ndarray":
    r = a.numerical_rank
    coef = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    v = a.eigenvectors[:, :r] @ coef
    return v / np.linalg.norm(v)


def _criterion_measure_vs_strength(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3), dims_cap)
    total = 6 if quick else 50
    worst = 0.0
    n = 0
    for k in range(total):
        d = dims[k % len(dims)]
        rng = child_rng(seed, 13, k)
        rank = 1 + (k // len(dims)) % d
        a = random_density(d, rank, seed=rng)
        v = _supported_pure(a, rng)
        p_dens = validate_density(np.outer(v, v.conj()))
        s = strength(a, pure_state(v, normalize=True)).value
        worst = max(worst, abs(example_measure(a, p_dens).value ** 2 - s))
        n += 1
    ok = worst <= 1e-9
    return CriterionOutcome(
        "measure-vs-strength",
        "squared measure against a supported ray equals strength within 1e-9",
        ok,
        f"n={n} max_delta={worst!r}",
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


def _criterion_measure_exact(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5, 6, 7, 8), dims_cap)
    total = 16 if quick else 96
    limits = dict(overlap=1e-10, pure=1e-9, commuting=1e-10, lb=1e-10, fidelity=1e-10, swap=1e-10, residual=1e-12)
    # kind 4 has limits of its own, above the conditioning cost measured over
    # seeds 0-999 (overlap shortfall <= 2.7e-11 at seed 249, residual <= 2.4e-7
    # at seed 562; with --dims 2..2 --quick 6.5e-12 and 7.1e-12)
    limits.update(ill_overlap=1e-9, ill_residual=1e-6)
    worst = dict.fromkeys(limits, 0.0)
    for k in range(total):
        d = dims[k % len(dims)]
        kind = k % 4
        rng = child_rng(seed, 22, k)
        a, b, rays, lam, mu = _joint_decomposition(d, kind, rng)
        res, swapped = _closed_form(a, b, MeasureConfig()), _closed_form(b, a, MeasureConfig())
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
        worst["swap"] = max(worst["swap"], abs(res.value - swapped.value))  # (v), of the formula itself
        worst["residual"] = max(worst["residual"], res.residual, swapped.residual)  # (vi)
    # (vii) ill-conditioned sides, on their own substream: shared rays with
    # weights down to 1e-9 reach the overlap only if dim S counts them
    n_ill = 0
    for k in range(total // 2):
        d = dims[k % len(dims)]
        a, b, rays, lam, mu = _joint_decomposition(d, 4, child_rng(seed, 23, k))
        if (a.numerical_rank, b.numerical_rank) != (min(d, np.count_nonzero(lam)), min(d, np.count_nonzero(mu))):
            continue  # a weight fell through the rank cut: the built overlap is not a bound
        n_ill += 1
        res, swapped = _closed_form(a, b, MeasureConfig()), _closed_form(b, a, MeasureConfig())
        worst["ill_overlap"] = max(worst["ill_overlap"], float(np.sqrt(lam * mu).sum()) - res.value)
        worst["ill_residual"] = max(worst["ill_residual"], res.residual, swapped.residual)
    ok = all(worst[key] <= limit for key, limit in limits.items())
    return CriterionOutcome(
        "measure-exact",
        "on constructed joint decompositions the measure reaches their overlap, equals sqrt(strength) "
        "with a pure side and sum sqrt(pq) for commuting states, sits between the one-ray bound and "
        "the fidelity, ignores argument order and reconstructs both states within 1e-12; with weights "
        "down to 1e-9 it reaches the overlap within 1e-9 and reconstructs within 1e-6",
        ok,
        " ".join([f"n={total}"] + [f"max_{key}={value!r}" for key, value in worst.items()] + [f"n_ill={n_ill}"]),
    )


def _disjoint_pair(d: int, rng) -> tuple[SpectralOperator, SpectralOperator]:
    u = haar_unitary(d, rng)
    ka = int(rng.integers(1, d))
    wa = rng.dirichlet(np.ones(ka)) * 0.9 + 0.1 / ka
    wb = rng.dirichlet(np.ones(d - ka)) * 0.9 + 0.1 / (d - ka)
    a = (u[:, :ka] * wa) @ u[:, :ka].conj().T
    b = (u[:, ka:] * wb) @ u[:, ka:].conj().T
    return validate_density(a), validate_density(b)


def _intersecting_pair(d: int, rng) -> tuple[SpectralOperator, SpectralOperator, np.ndarray]:
    """Two states whose supports share the planted ray c; returns (a, b, c)."""
    u = haar_unitary(d, rng)
    c = u[:, 0]
    pc = np.outer(c, c.conj())
    ka = int(rng.integers(1, d)) if d > 1 else 1
    kb = int(rng.integers(1, d)) if d > 1 else 1
    wa = rng.dirichlet(np.ones(ka)) * 0.6 + 0.05 / ka
    wb = rng.dirichlet(np.ones(kb)) * 0.6 + 0.05 / kb
    wa = wa / wa.sum() * 0.65
    wb = wb / wb.sum() * 0.65
    a = 0.35 * pc + (u[:, :ka] * wa) @ u[:, :ka].conj().T
    b = 0.35 * pc + (u[:, d - kb :] * wb) @ u[:, d - kb :].conj().T
    return validate_density(a), validate_density(b), c


def _criterion_support_split(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4), dims_cap)
    per_side = 10 if quick else 50
    bad = []
    for k in range(per_side):
        d = dims[k % len(dims)]
        a, b = _disjoint_pair(d, child_rng(seed, 14, k))
        res = example_measure(a, b)
        if is_compatible(a, b) or res.value > 1e-6 or res.decomposition_a is not None:
            bad.append(f"disjoint-{k}")
    for k in range(per_side):
        d = dims[k % len(dims)]
        a, b, c = _intersecting_pair(d, child_rng(seed, 15, k))
        res = example_measure(a, b)
        ray = pure_state(c, normalize=True)
        planted = np.sqrt(strength(a, ray).value * strength(b, ray).value)
        cert_ok = (
            res.decomposition_a is not None
            and res.value >= planted - 1e-10
            and res.residual <= 1e-12
        )
        if not is_compatible(a, b) or not cert_ok:
            bad.append(f"intersecting-{k}")
    ok = not bad
    return CriterionOutcome(
        "support-split",
        "disjoint supports give zero, intersecting supports reach the planted ray's one-ray bound",
        ok,
        f"n={2 * per_side} failures={bad!r}",
    )


def _criterion_symmetry_of_measure(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3), dims_cap)
    total = 4 if quick else 12
    bad = []
    for k in range(total):
        d = dims[k % len(dims)]
        a, b, _ = _intersecting_pair(d, child_rng(seed, 16, k))
        r1, r2 = example_measure(a, b), example_measure(b, a)
        same_value = r1.value == r2.value and r1.residual == r2.residual
        same_cert = (
            np.array_equal(r1.decomposition_a.weights, r2.decomposition_b.weights)
            and np.array_equal(r1.decomposition_b.weights, r2.decomposition_a.weights)
            and [p.vector.tobytes() for p in r1.decomposition_a.pures]
            == [p.vector.tobytes() for p in r2.decomposition_a.pures]
        )
        if not (same_value and same_cert):
            bad.append(k)
    ok = not bad
    return CriterionOutcome(
        "measure-argument-symmetry",
        "symmetrized measure is exactly argument-order independent",
        ok,
        f"n={total} failures={bad!r}",
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
            if _pure_top(st) and float(np.max(np.abs(st.eigenvectors[:, 0]) ** 2)) >= 1.0 - 1e-9:
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


def _criterion_rank_detection(seed: int, dims_cap, quick: bool) -> CriterionOutcome:
    dims = _dims((2, 3, 4, 5), dims_cap)
    total = 40 if quick else 200
    bad = []
    for k in range(total):
        d = dims[k % len(dims)]
        rank = 1 + (k // len(dims)) % d
        state = random_density(d, rank, seed=child_rng(seed, 20, k))
        found = rank_via_compatibility(state, seed=seed + k)
        if found != state.numerical_rank:
            bad.append(k)
    ok = not bad
    return CriterionOutcome(
        "rank-detection",
        "compatibility queries recover the spectral rank",
        ok,
        f"n={total} failures={bad!r}",
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
    _criterion_measure_vs_strength,
    _criterion_measure_exact,
    _criterion_support_split,
    _criterion_symmetry_of_measure,
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
