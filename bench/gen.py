"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy driven by the workload seed alone. The
library's own random generators are not used, so a change to them cannot
change what the benchmark feeds the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("measure-pure", "measure-mixed", "spectral-large-d", "cli")

MEASURE_PURE_DIMS = (2, 3, 4)
MEASURE_PURE_RAYS = 2  # supported rays per (dim, rank >= 2); rank 1 has one
MEASURE_MIXED_DIMS = (2, 3, 4, 6, 8, 12, 16)
MEASURE_MIXED_DISJOINT_DIMS = (4, 12)
SPECTRAL_DIMS = (8, 16, 32, 64)
CLI_ROUNDS = 3  # input sets per cli batch


def rng_for(seed: int, workload: str, *key: int) -> np.random.Generator:
    """Independent stream for one input of one workload."""
    tag = WORKLOADS.index(workload) + 1
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, *key]))


def haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def random_ray(d: int, rng: np.random.Generator) -> np.ndarray:
    return unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))


def ray_in(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector inside the span of the orthonormal columns."""
    k = basis.shape[1]
    return unit(basis @ (rng.standard_normal(k) + 1j * rng.standard_normal(k)))


def state_on(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Density matrix whose support is exactly the span of ``basis``.

    The eigenbasis is a random rotation inside the span and the spectrum is
    floored away from zero, so the rank never collapses numerically.
    """
    k = basis.shape[1]
    q = basis @ haar(k, rng)
    raw = rng.dirichlet(np.ones(k))
    w = (raw + 0.05) / (1.0 + 0.05 * k)
    w = w / w.sum()
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2.0


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class Pair:
    """Two density matrices to measure, with what the construction fixes."""

    label: str
    a: np.ndarray
    b: np.ndarray
    inter_dim: int  # support intersection dimension built in
    symmetric: bool
    restarts: int
    seed: int  # MeasureConfig seed


def _intersecting(d: int, shared: int, extra_a: int, extra_b: int, rng) -> tuple[np.ndarray, np.ndarray]:
    u = haar(d, rng)
    qa = u[:, : shared + extra_a]
    qb = np.hstack([u[:, :shared], u[:, shared + extra_a : shared + extra_a + extra_b]])
    return state_on(qa, rng), state_on(qb, rng)


def mixed_pair(kind: str, d: int, rng) -> tuple[np.ndarray, np.ndarray, int]:
    """Both sides mixed. Returns (a, b, support intersection dimension)."""
    if kind == "full":
        eye = np.eye(d, dtype=np.complex128)
        return state_on(eye, rng), state_on(eye, rng), d
    if kind == "inter1":  # shared ray plus private directions, d >= 3
        room = d - 1
        extra_a = int(rng.integers(1, room))
        extra_b = int(rng.integers(1, room - extra_a + 1))
        a, b = _intersecting(d, 1, extra_a, extra_b, rng)
        return a, b, 1
    if kind == "inter2":  # shared plane or more, proper subspace of both, d >= 3
        shared = int(rng.integers(2, max(3, d // 2 + 1)))
        room = d - shared
        extra_a = int(rng.integers(0, room))
        extra_b = int(rng.integers(1, room - extra_a + 1))
        a, b = _intersecting(d, shared, extra_a, extra_b, rng)
        return a, b, shared
    if kind == "deficient":  # unrelated rank-deficient supports, d >= 3
        ka = int(rng.integers(2, d))
        kb = int(rng.integers(max(2, d - ka + 1), d))
        a = state_on(haar(d, rng)[:, :ka], rng)
        b = state_on(haar(d, rng)[:, :kb], rng)
        return a, b, ka + kb - d
    if kind == "disjoint":  # orthogonal supports, d >= 4
        ka = int(rng.integers(2, d - 1))
        kb = int(rng.integers(2, d - ka + 1))
        u = haar(d, rng)
        return state_on(u[:, :ka], rng), state_on(u[:, ka : ka + kb], rng), 0
    raise ValueError(f"unknown pair kind {kind!r}")


def measure_pure_pairs(seed: int) -> list[Pair]:
    """A against a pure ray P inside supp A, every rank, default restarts."""
    pairs = []
    for d in MEASURE_PURE_DIMS:
        for r in range(1, d + 1):
            for j in range(1 if r == 1 else MEASURE_PURE_RAYS):
                rng = rng_for(seed, "measure-pure", d, r, j)
                support = haar(d, rng)[:, :r]
                a = state_on(support, rng)
                p = projector(ray_in(support, rng))
                pairs.append(
                    Pair(f"pure/d{d}/r{r}/{j}", a, p, 1, False, 32, int(rng.integers(2**31)))
                )
    return pairs


def measure_mixed_pairs(seed: int) -> list[Pair]:
    """Both sides mixed, restarts=8; every other pair runs both orders."""
    plan = []
    for d in MEASURE_MIXED_DIMS:
        kinds = ("full", "full") if d == 2 else ("inter1", "inter2", "full", "deficient")
        plan += [(d, kind) for kind in kinds]
    plan += [(d, "disjoint") for d in MEASURE_MIXED_DISJOINT_DIMS]
    pairs = []
    for k, (d, kind) in enumerate(plan):
        rng = rng_for(seed, "measure-mixed", k)
        a, b, inter = mixed_pair(kind, d, rng)
        pairs.append(
            Pair(f"mixed/d{d}/{kind}/{k}", a, b, inter, k % 2 == 1, 8, int(rng.integers(2**31)))
        )
    return pairs


def probe_rays(d: int) -> list[np.ndarray]:
    """Basis rays, (e0 + ej)/sqrt2 and (e0 + i e1)/sqrt2: the inputs a
    symmetry is reconstructed from."""
    eye = np.eye(d, dtype=np.complex128)
    rays = [eye[i] for i in range(d)]
    rays += [(eye[0] + eye[j]) / np.sqrt(2.0) for j in range(1, d)]
    rays.append((eye[0] + 1j * eye[1]) / np.sqrt(2.0))
    return rays


def probe_map(u: np.ndarray, antiunitary: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """Images of the probe rays under v -> u v (or u conj(v))."""
    return [(v, u @ (v.conj() if antiunitary else v)) for v in probe_rays(u.shape[0])]


@dataclass(frozen=True)
class SpectralCase:
    """Inputs of the optimizer-free calls at one large dimension."""

    d: int
    half: np.ndarray  # rank d/2 state
    full: np.ndarray  # full-rank state
    rays_half: tuple[np.ndarray, ...]  # two inside supp(half), one generic
    ray_full: np.ndarray
    compat_pair: tuple[np.ndarray, np.ndarray]  # supports share one ray
    disjoint_pair: tuple[np.ndarray, np.ndarray]  # orthogonal supports
    u: np.ndarray  # unitaries for the symmetry calls
    w: np.ndarray
    seed: int  # seed handed to seeded library calls


def spectral_cases(seed: int) -> list[SpectralCase]:
    cases = []
    for d in SPECTRAL_DIMS:
        rng = rng_for(seed, "spectral-large-d", d)
        h = d // 2
        basis = haar(d, rng)[:, :h]
        half = state_on(basis, rng)
        full = state_on(np.eye(d, dtype=np.complex128), rng)
        rays_half = (ray_in(basis, rng), ray_in(basis, rng), random_ray(d, rng))
        ray_full = random_ray(d, rng)
        compat_pair = _intersecting(d, 1, h - 1, h - 1, rng)
        v = haar(d, rng)
        disjoint_pair = (state_on(v[:, :h], rng), state_on(v[:, h:], rng))
        u, w = haar(d, rng), haar(d, rng)
        cases.append(
            SpectralCase(
                d, half, full, rays_half, ray_full, compat_pair, disjoint_pair, u, w,
                int(rng.integers(2**31)),
            )
        )
    return cases


@dataclass(frozen=True)
class CliInputs:
    """Arrays behind the CLI workload's input files, keyed by file stem."""

    states: dict[str, np.ndarray]
    vectors: dict[str, np.ndarray]
    symmetries: dict[str, tuple[np.ndarray, bool]]
    maps: dict[str, list[tuple[np.ndarray, np.ndarray]]]
    seed: int


def cli_inputs(seed: int, round_: int) -> CliInputs:
    rng = rng_for(seed, "cli", round_)
    states: dict[str, np.ndarray] = {}
    vectors: dict[str, np.ndarray] = {}

    basis = haar(64, rng)[:, :32]
    states["st64"] = state_on(basis, rng)
    vectors["v64"] = ray_in(basis, rng)

    u4 = haar(4, rng)
    eff = (u4 * rng.uniform(0.05, 1.0, size=4)) @ u4.conj().T
    states["eff4"] = (eff + eff.conj().T) / 2.0
    vectors["v4"] = random_ray(4, rng)

    states["c64a"], states["c64b"] = _intersecting(64, 1, 20, 20, rng)
    v8 = haar(8, rng)
    states["c8a"], states["c8b"] = state_on(v8[:, :3], rng), state_on(v8[:, 3:], rng)
    states["m3a"], states["m3b"], _ = mixed_pair("inter1", 3, rng)
    states["m2a"], states["m2b"], _ = mixed_pair("full", 2, rng)

    # invalid inputs: not Hermitian, trace two
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    states["nonherm3"] = z / 3.0
    states["trace2"] = 2.0 * states["m3a"]

    symmetries = {
        "sym64": (haar(64, rng), False),
        "nonunitary4": (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), False),
    }
    maps = {
        "map64": probe_map(haar(64, rng), False),
        "map8anti": probe_map(haar(8, rng), True),
        "map16": probe_map(haar(16, rng), True),
    }
    # a probe map plus one pair whose output breaks transition probabilities
    broken = probe_map(haar(4, rng), False)
    broken.append((random_ray(4, rng), random_ray(4, rng)))
    maps["broken4"] = broken
    return CliInputs(states, vectors, symmetries, maps, int(rng.integers(2**31)))


def canonical_bytes(obj) -> bytes:
    """Byte encoding of generated inputs, for determinism checks."""
    if isinstance(obj, np.ndarray):
        return repr((obj.dtype.str, obj.shape)).encode() + np.ascontiguousarray(obj).tobytes()
    if isinstance(obj, dict):
        return b"{" + b"".join(canonical_bytes(k) + canonical_bytes(v) for k, v in sorted(obj.items())) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b"".join(canonical_bytes(x) for x in obj) + b"]"
    if hasattr(obj, "__dataclass_fields__"):
        return canonical_bytes([getattr(obj, f) for f in obj.__dataclass_fields__])
    return repr(obj).encode()


def generate(workload: str, seed: int):
    """All generated inputs of one workload."""
    if workload == "measure-pure":
        return measure_pure_pairs(seed)
    if workload == "measure-mixed":
        return measure_mixed_pairs(seed)
    if workload == "spectral-large-d":
        return spectral_cases(seed)
    if workload == "cli":
        return [cli_inputs(seed, k) for k in range(CLI_ROUNDS)]
    raise ValueError(f"unknown workload {workload!r}")
