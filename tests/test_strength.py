import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcompat import (
    InvalidWeightsError,
    ValidationError,
    effects_equal_by_strength,
    haar_unitary,
    pure_state,
    random_density,
    random_pure,
    strength,
    strength_oracle,
    two_state_formula,
    validate_density,
    validate_effect,
)
from qcompat.states import _random_rays, as_rng, child_rng
from qcompat.strength import BISECTION_TOL, PSD_FLOOR, _strengths

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestStrengthClosedForm:
    def test_maximally_mixed_gives_inverse_dim(self):
        eff = validate_effect(np.eye(4, dtype=complex) / 4)
        for s in range(5):
            assert abs(strength(eff, random_pure(4, seed=s)).value - 0.25) < 1e-12

    def test_own_projection_gives_one(self):
        p = random_pure(3, seed=2)
        eff = validate_effect(p.projection)
        r = strength(eff, p)
        assert r.in_range
        assert abs(r.value - 1.0) < 1e-12

    def test_identity_gives_one(self):
        eff = validate_effect(np.eye(5, dtype=complex))
        assert strength(eff, random_pure(5, seed=1)).value == 1.0

    def test_out_of_range_gives_zero(self):
        eff = validate_effect(np.diag([1.0, 0.0]).astype(complex))
        phi = pure_state(np.array([0.0, 1.0], dtype=complex))
        r = strength(eff, phi)
        assert r.value == 0.0
        assert not r.in_range

    def test_near_boundary_flagged(self):
        # ray leaning almost entirely into the support
        eps = 1e-3
        v = np.array([np.sqrt(1 - eps**2), eps], dtype=complex)
        eff = validate_effect(np.diag([1.0, 0.0]).astype(complex))
        r = strength(eff, pure_state(v))
        assert r.value == 0.0
        assert not r.in_range
        assert r.near_boundary

    def test_plain_miss_not_flagged(self):
        eff = validate_effect(np.diag([1.0, 0.0]).astype(complex))
        r = strength(eff, pure_state(np.array([0.6, 0.8], dtype=complex)))
        assert not r.near_boundary

    def test_diagonal_weighted(self):
        eff = validate_effect(np.diag([1.0, 0.5]).astype(complex))
        phi = pure_state(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
        # 1 / (0.5/1 + 0.5/0.5) = 2/3
        assert abs(strength(eff, phi).value - 2 / 3) < 1e-12

    @given(seed=seeds, dim=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, seed, dim):
        rng = child_rng(seed, 99)
        rank = int(rng.integers(1, dim + 1))
        u = haar_unitary(dim, rng)
        t = np.zeros(dim)
        t[:rank] = rng.uniform(0.05, 1.0, size=rank)
        eff = validate_effect((u * t) @ u.conj().T)
        phi = random_pure(dim, seed=rng)
        assert abs(strength(eff, phi).value - strength_oracle(eff, phi)) <= 1e-7

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_value_bounded(self, seed):
        eff = validate_effect(random_density(4, 3, seed=seed).matrix)
        v = strength(eff, random_pure(4, seed=seed)).value
        assert 0.0 <= v <= 1.0

    def test_eigenvector_rays_are_extremal(self):
        # along an eigenvector the strength equals that eigenvalue exactly
        d = random_density(4, 4, seed=11)
        for i in range(4):
            phi = pure_state(d.eigenvectors[:, i])
            assert abs(strength(d, phi).value - d.eigenvalues[i]) < 1e-10


def _unit(z):
    return z / np.linalg.norm(z)


def _oracle_cases(d, kind, deficient):
    """A state or effect of the given rank, with in-range, random and near-boundary rays."""
    rng = child_rng(d, 31, kind == "state", deficient)
    rank = max(1, d // 2) if deficient else d
    if kind == "state":
        op = random_density(d, rank, seed=rng)
    else:
        u = haar_unitary(d, rng)
        t = np.zeros(d)
        t[:rank] = rng.uniform(0.05, 1.0, size=rank)
        op = validate_effect((u * t) @ u.conj().T)
    gauss = lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    inside = _unit(op.eigenvectors[:, :rank] @ gauss(rank))
    rays = [inside, _unit(gauss(d))]
    if deficient:
        kernel = _unit(op.eigenvectors[:, rank:] @ gauss(d - rank))
        rays += [np.sqrt(1.0 - w) * inside + np.sqrt(w) * kernel for w in np.logspace(-24, -2, 12)]
    return op, [pure_state(v, normalize=True) for v in rays]


class TestStrengthOracleContract:
    """What the oracle returns, checked with eigvalsh whatever the oracle computes inside."""

    @pytest.mark.parametrize("deficient", [False, True])
    @pytest.mark.parametrize("kind", ["state", "effect"])
    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_largest_feasible_weight(self, d, kind, deficient):
        # the oracle's feasibility test and eigvalsh's floor eigenvalue differ
        # by rounding; the largest gap measured on these cases is 2.5e-16
        slack = d * 1e-15
        op, rays = _oracle_cases(d, kind, deficient)

        def floor(t, phi):
            return float(np.linalg.eigvalsh(op.matrix - t * phi.projection)[0])

        for phi in rays:
            lo = strength_oracle(op, phi)
            assert 0.0 <= lo <= 1.0
            assert floor(lo, phi) >= PSD_FLOOR - slack
            assert lo == 1.0 or floor(lo + 2 * BISECTION_TOL, phi) < PSD_FLOOR + slack

    def test_runs_no_eigensolver(self, monkeypatch):
        op, rays = _oracle_cases(64, "effect", True)
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append("eigh"))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append("eigvalsh"))
        values = [strength_oracle(op, phi) for phi in rays]
        assert calls == []
        assert 0.0 < values[0] < 1.0  # the in-range ray bisects


class TestTwoStateFormula:
    def test_endpoints(self):
        assert abs(two_state_formula(0.4, 0.6, 1.0) - 0.4) < 1e-15
        assert abs(two_state_formula(0.4, 0.6, 0.0) - 0.6) < 1e-15

    def test_rejects_bad_ordering(self):
        with pytest.raises(InvalidWeightsError):
            two_state_formula(0.6, 0.4, 0.5)
        with pytest.raises(InvalidWeightsError):
            two_state_formula(0.5, 0.5, 0.5)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidWeightsError):
            two_state_formula(0.3, 0.6, 0.5)

    def test_rejects_overlap_outside_unit(self):
        # nan passes no comparison, so it must be rejected, not returned
        for overlap in (1.5, -0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidWeightsError):
                two_state_formula(0.4, 0.6, overlap)

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_against_strength(self, seed):
        rng = child_rng(seed, 98)
        d = int(rng.integers(2, 7))
        u = haar_unitary(d, rng)
        p, q = u[:, 0], u[:, 1]
        low = float(rng.uniform(0.05, 0.45))
        high = 1.0 - low
        theta = float(rng.uniform(0.0, np.pi / 2))
        r = np.cos(theta) * p + np.sin(theta) * q
        a = validate_density(low * np.outer(p, p.conj()) + high * np.outer(q, q.conj()))
        got = strength(a, pure_state(r, normalize=True)).value
        want = two_state_formula(low, high, float(np.cos(theta) ** 2))
        assert abs(got - want) <= 1e-10


class TestEffectsEqualByStrength:
    def test_identical_effects_equal(self):
        e = validate_effect(random_density(3, 3, seed=4).matrix)
        assert effects_equal_by_strength(e, e)

    def test_distinct_projections_differ(self):
        a = validate_effect(np.diag([1.0, 0.0]).astype(complex))
        b = validate_effect(np.diag([0.0, 1.0]).astype(complex))
        assert not effects_equal_by_strength(a, b)

    def test_scaled_effect_differs(self):
        a = validate_effect(np.eye(3, dtype=complex) * 0.5)
        b = validate_effect(np.eye(3, dtype=complex) * 0.4)
        assert not effects_equal_by_strength(a, b)

    def test_conjugated_pair_differs(self):
        u = haar_unitary(3, seed=5)
        e = validate_effect(np.diag([0.9, 0.5, 0.1]).astype(complex))
        f = validate_effect(u @ e.matrix @ u.conj().T)
        assert not effects_equal_by_strength(e, f)


    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        e = validate_effect(random_density(3, 2, seed=4).matrix)
        with pytest.raises(ValidationError, match="tol"):
            effects_equal_by_strength(e, e, tol=tol)

    def test_negative_ray_count_is_validation_error(self):
        e = validate_effect(random_density(3, 2, seed=4).matrix)
        with pytest.raises(ValidationError, match="n_rays"):
            effects_equal_by_strength(e, e, n_rays=-1)


def _old_random_pure_stream(d, n, seed):
    # reference draw: per ray, real then imaginary parts, scaled by pure_state
    rng = as_rng(seed)
    return [pure_state(rng.standard_normal(d) + 1j * rng.standard_normal(d), normalize=True) for _ in range(n)]


def _effect_pair(rng):
    """Two effects on tilted bases: kernel rays, near-boundary rays, other supports.

    The second effect's basis turns the first's by an angle t between a
    support vector and a kernel vector, so its eigenvector rays have kernel
    weight sin(t)^2 under the first, from below eps_mem (1e-13) through the
    near-boundary band to plainly outside; its rank may also differ.
    """
    d = int(rng.integers(2, 7))
    u = haar_unitary(d, rng)
    r1 = int(rng.integers(1, d + 1))
    w1 = np.zeros(d)
    w1[:r1] = rng.uniform(0.05, 1.0, r1)
    t = float(10.0 ** rng.uniform(-8.0, -0.5)) if r1 < d else 0.0
    c, s = np.cos(t), np.sin(t)
    v = u.copy()
    v[:, 0], v[:, -1] = c * u[:, 0] + s * u[:, -1], -s * u[:, 0] + c * u[:, -1]
    w2 = w1.copy() if rng.random() < 0.5 else np.roll(w1, int(rng.integers(0, d)))
    first = validate_effect((u * w1) @ u.conj().T)
    second = validate_effect((v * w2) @ v.conj().T)
    return first, second


class TestStackedStrength:
    @given(seed=seeds, n_rays=st.integers(0, 12), tol=st.sampled_from([1e-12, 1e-8, 1e-6, 1e-2]))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_ray_loop(self, seed, n_rays, tol):
        first, second = _effect_pair(child_rng(seed, 95))
        d = first.dim
        rays = [pure_state(first.eigenvectors[:, k], normalize=True) for k in range(d)]
        rays += [pure_state(second.eigenvectors[:, k], normalize=True) for k in range(d)]
        rays += _old_random_pure_stream(d, n_rays, seed)
        gaps = [abs(strength(first, ray).value - strength(second, ray).value) for ray in rays]
        # a gap within rounding of tol may fall either way
        assume(all(abs(g - tol) > 1e-12 for g in gaps))
        assert effects_equal_by_strength(first, second, n_rays=n_rays, seed=seed, tol=tol) == all(g <= tol for g in gaps)

        stacked = np.array([ray.vector for ray in rays]).T
        for eff in (first, second):
            values, in_range, near = _strengths(eff, stacked)
            for k, ray in enumerate(rays):
                one = strength(eff, ray)
                assert abs(values[k] - one.value) <= 1e-14
                assert (in_range[k], near[k]) == (one.in_range, one.near_boundary)

    @given(seed=seeds, d=st.integers(1, 64), n=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_random_rays_are_the_random_pure_stream(self, seed, d, n):
        rays = _random_rays(d, n, as_rng(seed))
        assert rays.shape == (d, n)
        for k, p in enumerate(_old_random_pure_stream(d, n, seed)):
            assert rays[:, k].tobytes() == p.vector.tobytes()
        assert random_pure(d, seed).vector.tobytes() == _old_random_pure_stream(d, 1, seed)[0].vector.tobytes()


_DENSITY_MATRICES = {
    "pure": random_pure(3, seed=21).projection,
    "maximally-mixed": np.eye(4, dtype=complex) / 4,
    "rank-2-of-4": random_density(4, 2, seed=22).matrix,
    "full-rank-5": random_density(5, 5, seed=23).matrix,
    "diagonal-deficient": np.diag([0.7, 0.3, 0.0]).astype(complex),
}


@pytest.mark.parametrize("name", sorted(_DENSITY_MATRICES))
def test_density_and_effect_constructors_agree_bitwise(name):
    # strength and its companions read one spectral type, whichever
    # constructor validated the matrix
    m = _DENSITY_MATRICES[name]
    dens, eff = validate_density(m), validate_effect(m)
    d = dens.dim
    other = validate_effect(random_density(d, d, seed=24).matrix)
    in_support = dens.eigenvectors[:, : dens.numerical_rank] @ np.linspace(1.0, 2.0, dens.numerical_rank)
    rays = [pure_state(in_support, normalize=True)] + [random_pure(d, seed=s) for s in range(3)]
    for phi in rays:
        assert strength(dens, phi) == strength(eff, phi)
        assert strength_oracle(dens, phi) == strength_oracle(eff, phi)
    assert effects_equal_by_strength(dens, eff)
    assert effects_equal_by_strength(dens, other) == effects_equal_by_strength(eff, other)


@given(seed=seeds, anti=st.booleans())
@settings(max_examples=25, deadline=None)
def test_strength_symmetry_invariance(seed, anti):
    from qcompat import random_symmetry, transform_pure

    rng = child_rng(seed, 97)
    d = int(rng.integers(2, 6))
    eff = validate_effect(random_density(d, int(rng.integers(1, d + 1)), seed=rng).matrix)
    phi = random_pure(d, seed=rng)
    sym = random_symmetry(d, antiunitary=anti, seed=rng)
    m = eff.matrix.conj() if anti else eff.matrix
    eff2 = validate_effect(sym.u @ m @ sym.u.conj().T)
    s0 = strength(eff, phi).value
    s1 = strength(eff2, transform_pure(sym, phi)).value
    assert abs(s0 - s1) <= 1e-10
