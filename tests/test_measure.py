from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcompat import (
    DimensionMismatchError,
    InfeasibleError,
    MeasureConfig,
    NotUnitVectorError,
    ValidationError,
    example_measure,
    fidelity,
    haar_unitary,
    is_compatible,
    measure_symmetric,
    pure_state,
    random_density,
    strength,
    validate_density,
)
from qcompat import measure as measure_module
from qcompat.measure import DEFAULT_FEAS_TOL, _closed_form
from qcompat.selftest import _joint_decomposition
from qcompat.states import (
    DEFAULT_EPS_MEM,
    DEFAULT_EPS_RANK,
    MAX_DIM,
    child_rng,
    subspace_intersection_dim,
    support,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)

FAST = MeasureConfig(restarts=4, seed=0)


def _intersecting(d, seed):
    rng = child_rng(seed, 50)
    u = haar_unitary(d, rng)
    c = np.outer(u[:, 0], u[:, 0].conj())
    ra = random_density(d, d - 1, seed=rng)
    rb = random_density(d, d - 1, seed=rng)
    a = validate_density(0.4 * c + 0.6 * ra.matrix)
    b = validate_density(0.4 * c + 0.6 * rb.matrix)
    return a, b


def _pure_side_pair():
    """A of rank 2 at d=3 against a ray P inside supp A: the measure is sqrt(strength)."""
    a = random_density(3, 2, seed=13)
    rng = child_rng(13, 52)
    coef = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = a.leading @ coef
    v /= np.linalg.norm(v)
    return a, validate_density(np.outer(v, v.conj())), strength(a, pure_state(v)).value


def _generic_full_rank_pair():
    return random_density(2, 2, seed=31), random_density(2, 2, seed=32)


def _contained_pair(d, rank_a, rank_b, seed):
    """supp A inside supp B, both spanned by leading columns of one Haar unitary; also returns A's basis."""
    rng = child_rng(seed, 56)
    u = haar_unitary(d, rng)
    qa, qb = u[:, :rank_a], u[:, :rank_b]
    a = qa @ random_density(rank_a, rank_a, seed=rng).matrix @ qa.conj().T
    b = qb @ random_density(rank_b, rank_b, seed=rng).matrix @ qb.conj().T
    return validate_density((a + a.conj().T) / 2), validate_density((b + b.conj().T) / 2), qa


def _assert_bit_identical(r1, r2):
    assert (r1.value, r1.residual, r1.components) == (r2.value, r2.residual, r2.components)
    for d1, d2 in ((r1.decomposition_a, r2.decomposition_a), (r1.decomposition_b, r2.decomposition_b)):
        assert d1.weights.tobytes() == d2.weights.tobytes()
        assert [p.vector.tobytes() for p in d1.pures] == [p.vector.tobytes() for p in d2.pures]


def _power(m, p):
    w, v = np.linalg.eigh(m)
    return (v * w**p) @ v.conj().T


# exact values tr([A]_S # [B]_S) of rank-deficient mixed pairs (the restart
# optimizer reached 2.3e-5, 9e-6, 4e-6, 0.355 and 0.000 on them)
PINNED = [
    ((4, 4, 1), (4, 2, 2), 0.6124668127150),
    ((4, 3, 300), (4, 3, 400), 0.4651761889630),
    ((4, 3, 301), (4, 3, 401), 0.5081785994263),
    ((4, 3, 302), (4, 3, 402), 0.6678922653660),
    ((4, 3, 303), (4, 3, 403), 0.4389164820973),
]


@st.composite
def joint_decompositions(draw):
    """Two states from one shared list of rays, weights >= 0 with zeros allowed."""
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 2 * d))
    rng = child_rng(draw(seeds), 54)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    rays = z / np.linalg.norm(z, axis=1, keepdims=True)
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    lam = np.array(draw(st.lists(weight, min_size=n, max_size=n).filter(any)))
    mu = np.array(draw(st.lists(weight, min_size=n, max_size=n).filter(any)))
    lam, mu = lam / lam.sum(), mu / mu.sum()
    a, b = ((rays.T * w) @ rays.conj() for w in (lam, mu))
    return validate_density((a + a.conj().T) / 2), validate_density((b + b.conj().T) / 2), lam, mu


class TestCompatibility:
    def test_orthogonal_pures_incompatible(self):
        a = validate_density(np.diag([1.0, 0.0]).astype(complex))
        b = validate_density(np.diag([0.0, 1.0]).astype(complex))
        assert not is_compatible(a, b)

    def test_full_rank_compatible_with_anything(self):
        a = validate_density(np.eye(3, dtype=complex) / 3)
        b = random_density(3, 1, seed=1)
        assert is_compatible(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_compatible(random_density(2, 1, seed=0), random_density(3, 1, seed=0))

    @given(seed=seeds, anti=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_symmetry_invariance(self, seed, anti):
        from qcompat import apply_symmetry, random_symmetry

        rng = child_rng(seed, 51)
        d = int(rng.integers(2, 5))
        a = random_density(d, int(rng.integers(1, d + 1)), seed=rng)
        b = random_density(d, int(rng.integers(1, d + 1)), seed=rng)
        s = random_symmetry(d, antiunitary=anti, seed=rng)
        assert is_compatible(a, b) == is_compatible(apply_symmetry(s, a), apply_symmetry(s, b))


def _tilted_ray(a, kernel_weight, rng):
    """A ray in supp A tilted into its kernel until the kernel holds ``kernel_weight`` of it.

    The kernel directions are the first d - r columns of eigh's ascending basis of A.
    """
    r = a.numerical_rank
    gauss = lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n)  # noqa: E731
    inside = a.leading[:, :r] @ gauss(r)
    kernel = np.linalg.eigh(a.matrix)[1][:, : a.dim - r] @ gauss(a.dim - r)
    v = np.sqrt(1.0 - kernel_weight) * inside / np.linalg.norm(inside)
    return pure_state(v + np.sqrt(kernel_weight) * kernel / np.linalg.norm(kernel), normalize=True)


def _membership_answers(a, phi):
    """For the pure state phi: strength's in_range, is_compatible and measure > 0."""
    p = validate_density(phi.projection)
    s, res = strength(a, phi), example_measure(a, p)
    return (s.in_range, is_compatible(a, p), res.value > 0.0), s.value, res.value


class TestOneMembershipCut:
    """strength, is_compatible and the measure decide "phi lies in supp A" by one cut."""

    @given(seed=seeds, d=st.integers(2, MAX_DIM), log_weight=st.floats(-24.0, -2.0))
    @settings(max_examples=60, deadline=None)
    def test_three_answers_agree(self, seed, d, log_weight):
        # the kernel weight is computed two ways, equal up to rounding at the cut
        assume(abs(log_weight - np.log10(DEFAULT_EPS_MEM)) > 0.01)
        rng = child_rng(seed, 54)
        a = random_density(d, int(rng.integers(1, d)), seed=rng)
        answers, s, m = _membership_answers(a, _tilted_ray(a, 10.0**log_weight, rng))
        assert answers in ((True,) * 3, (False,) * 3)
        if answers[0]:
            assert abs(m**2 - s) <= 1e-12

    @pytest.mark.parametrize("scale,inside", [(0.1, True), (10.0, False)])
    def test_jump_at_the_cut(self, scale, inside):
        # a ray counts fully or not at all: no value between sqrt(strength) and 0
        a = random_density(4, 2, seed=7)
        answers, s, m = _membership_answers(a, _tilted_ray(a, scale * DEFAULT_EPS_MEM, child_rng(7, 55)))
        assert answers == (inside,) * 3
        assert abs(m**2 - s) <= 1e-12


class TestExampleMeasure:
    def test_identical_states_give_one(self):
        a = random_density(3, 2, seed=5)
        res = example_measure(a, a, FAST)
        assert abs(res.value - 1.0) <= 1e-9
        assert res.residual <= 1e-9

    @pytest.mark.parametrize("d,rank,seed", [(1, 1, 0), (2, 1, 3), (3, 2, 4), (4, 4, 5), (8, 5, 6)])
    def test_byte_equal_inputs_mirror_one_decomposition(self, d, rank, seed):
        a = random_density(d, rank, seed=seed)
        for b in (a, validate_density(a.matrix.copy())):
            res = example_measure(a, b)
            assert res.decomposition_a.weights.tobytes() == res.decomposition_b.weights.tobytes()
            assert abs(res.value - 1.0) <= 1e-12
            assert res.residual <= 1e-12

    def test_disjoint_supports_give_zero(self):
        u = haar_unitary(4, seed=2)
        a = validate_density(np.outer(u[:, 0], u[:, 0].conj()))
        b = validate_density(np.outer(u[:, 1], u[:, 1].conj()))
        res = example_measure(a, b, FAST)
        assert res.value == 0.0
        assert res.decomposition_a is None
        assert res.decomposition_b is None
        assert res.restarts_used == 0
        assert res.components == 0

    def test_certificate_reconstructs_inputs(self):
        a, b = _intersecting(3, seed=7)
        res = example_measure(a, b, FAST)
        assert res.value > 0.0
        np.testing.assert_allclose(res.decomposition_a.reconstruction(), a.matrix, atol=1e-9)
        np.testing.assert_allclose(res.decomposition_b.reconstruction(), b.matrix, atol=1e-9)
        assert res.residual <= 1e-10
        assert np.all(res.decomposition_a.weights >= 0.0)
        assert np.all(res.decomposition_b.weights >= 0.0)

    def test_commuting_states_reach_spectral_overlap(self):
        wa = np.array([0.7, 0.3, 0.0])
        wb = np.array([0.2, 0.5, 0.3])
        u = haar_unitary(3, seed=4)
        a = validate_density((u * wa) @ u.conj().T)
        b = validate_density((u * wb) @ u.conj().T)
        res = example_measure(a, b, FAST)
        lower = float(np.sqrt(wa * wb).sum())
        assert res.value >= lower - 1e-9

    def test_value_squared_tracks_strength_of_supported_ray(self):
        a, p, s = _pure_side_pair()
        res = example_measure(a, p, MeasureConfig(restarts=8, seed=3))
        assert abs(res.value**2 - s) <= 1e-9

    def test_infeasible_when_tolerance_is_zero(self):
        a, b = _intersecting(3, seed=9)
        with pytest.raises(InfeasibleError):
            example_measure(a, b, MeasureConfig(restarts=2, seed=0, feas_tol=0.0))

    def test_config_validation(self):
        a = random_density(3, 3, seed=1)
        with pytest.raises(ValueError):
            example_measure(a, a, MeasureConfig(restarts=0))

    @pytest.mark.parametrize("feas_tol", [-1.0, np.nan, np.inf])
    def test_feas_tol_must_be_finite_and_nonnegative(self, feas_tol):
        a, b = _intersecting(3, seed=9)
        with pytest.raises(ValidationError):
            example_measure(a, b, MeasureConfig(feas_tol=feas_tol))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_components_is_the_certificate_length(self, d):
        a, b = _intersecting(d, seed=d)
        res = example_measure(a, b, MeasureConfig(restarts=1, seed=0))
        shared = subspace_intersection_dim(support(a), support(b))
        assert res.components == a.numerical_rank + b.numerical_rank - shared <= d
        assert res.components == len(res.decomposition_a.pures) == len(res.decomposition_b.weights)

    @pytest.mark.parametrize("spec_a,spec_b,value", PINNED, ids=[f"seeds-{a[2]}-{b[2]}" for a, b, _ in PINNED])
    def test_rank_deficient_pairs_reach_the_exact_value(self, spec_a, spec_b, value):
        a, b = random_density(*spec_a[:2], seed=spec_a[2]), random_density(*spec_b[:2], seed=spec_b[2])
        res = example_measure(a, b)
        assert abs(res.value - value) <= 1e-9
        assert res.residual <= 1e-12

    def test_ill_conditioned_pair_reaches_its_overlap(self):
        # d = 7, A full rank with smallest eigenvalue 2.2e-10, B rank 5, dim S = 5;
        # tr([A]_S # [B]_S) to 50 digits is 0.01016692, 1.4e-8 above the overlap
        a, b, _, lam, mu = _joint_decomposition(7, 4, child_rng(0, 23, 47))
        overlap = float(np.sqrt(lam * mu).sum())
        for x, y in ((a, b), (b, a)):
            res = _closed_form(x, y, DEFAULT_FEAS_TOL)
            assert abs(res.value - overlap) <= 1e-7
            assert res.residual <= 1e-11

    def test_full_rank_pair_is_trace_of_geometric_mean(self):
        a, b = _generic_full_rank_pair()
        root = _power(a.matrix, 0.5)
        inv_root = _power(a.matrix, -0.5)
        mean = root @ _power(inv_root @ b.matrix @ inv_root, 0.5) @ root
        res = example_measure(a, b)
        assert abs(res.value - np.trace(mean).real) <= 1e-12
        assert res.value < fidelity(a, b) - 1e-3

    @given(pair=joint_decompositions())
    @settings(max_examples=60, deadline=None)
    def test_between_joint_overlap_and_fidelity(self, pair):
        a, b, lam, mu = pair
        res = example_measure(a, b)
        assert res.value >= np.sqrt(lam * mu).sum() - 1e-10
        assert res.value <= fidelity(a, b) + 1e-10
        assert res.components <= a.dim

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            example_measure(random_density(2, 1, seed=0), random_density(3, 1, seed=0))

    def test_argument_order_is_bit_identical(self):
        # the closed form alone differs in the last bits between these two orders
        a, b = random_density(4, 3, seed=0), random_density(4, 2, seed=1000)
        r1, r2 = example_measure(a, b), example_measure(b, a)
        mirrored = replace(r2, decomposition_a=r2.decomposition_b, decomposition_b=r2.decomposition_a)
        _assert_bit_identical(r1, mirrored)

    def test_deterministic_given_seed(self):
        a, b = _intersecting(3, seed=21)
        r1 = example_measure(a, b, FAST)
        r2 = example_measure(a, b, FAST)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.decomposition_a.weights, r2.decomposition_a.weights)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=12, deadline=None)
    def test_value_in_unit_interval(self, seed):
        rng = child_rng(seed, 53)
        d = int(rng.integers(2, 4))
        a = random_density(d, int(rng.integers(1, d + 1)), seed=rng)
        b = random_density(d, int(rng.integers(1, d + 1)), seed=rng)
        if not is_compatible(a, b):
            return
        res = example_measure(a, b, MeasureConfig(restarts=3, seed=seed))
        assert 0.0 <= res.value <= 1.0
        assert res.residual <= MeasureConfig().feas_tol


class TestFactorizations:
    """The route on S is QR and SVD, never eigh; blocks already known are not factorized."""

    LAPACK = ("eigh", "svd", "qr", "inv", "solve")

    # (a, b) -> expected calls of one example_measure, in the order of LAPACK;
    # every case has the SVD of the principal angles and the SVD of the mean
    CASES = {
        # dim S = 1 and the pure side is all of S: only A has a remainder
        "pure-side-in-supp-a": (lambda: _pure_side_pair()[:2], (0, 2, 1, 1, 1)),
        # S = supp A: A has no remainder, B has one
        "supp-a-in-supp-b": (lambda: _contained_pair(4, 2, 3, seed=1)[:2], (0, 2, 1, 1, 1)),
        # S is everything: no QR on either side
        "full-rank": (_generic_full_rank_pair, (0, 2, 0, 0, 1)),
        # d = 4, ranks 2 and 3 meet in one ray: both sides have a remainder
        "one-ray-intersection": (
            lambda: (random_density(4, 2, seed=3), random_density(4, 3, seed=4)),
            (0, 2, 2, 2, 1),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lapack_calls(self, case, monkeypatch):
        pair, expected = self.CASES[case]
        a, b = pair()
        calls = Counter()
        for name in self.LAPACK:

            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        res = example_measure(a, b)
        assert res.value > 0.0
        assert tuple(calls[name] for name in self.LAPACK) == expected

    @pytest.mark.parametrize("d,rank_a,rank_b", [(6, 2, 4), (16, 5, 9)])
    def test_contained_support_is_the_geometric_mean_of_the_shorts(self, d, rank_a, rank_b):
        a, b, q = _contained_pair(d, rank_a, rank_b, seed=d)
        assert (a.numerical_rank, b.numerical_rank) == (rank_a, rank_b)
        a_s = q.conj().T @ a.matrix @ q
        w, v = np.linalg.eigh(b.matrix)
        b_plus = (v[:, w > 1e-10] / w[w > 1e-10]) @ v[:, w > 1e-10].conj().T
        b_s = np.linalg.inv(q.conj().T @ b_plus @ q)
        root, inv_root = _power(a_s, 0.5), _power(a_s, -0.5)
        mean = root @ _power(inv_root @ b_s @ inv_root, 0.5) @ root
        res = example_measure(a, b)
        assert abs(res.value - np.trace(mean).real) <= 1e-10
        assert res.components == rank_b
        swapped = example_measure(b, a)
        mirrored = replace(swapped, decomposition_a=swapped.decomposition_b, decomposition_b=swapped.decomposition_a)
        _assert_bit_identical(res, mirrored)


class TestCertificateRays:
    """The certificate's rays are normalized as one array, by the norms the weights come from."""

    def test_rays_have_unit_norm_at_max_dim(self):
        # ranks 40 and 40 at d = 64 meet in 16 rays: shared block plus two remainders
        a, b = random_density(MAX_DIM, 40, seed=64), random_density(MAX_DIM, 40, seed=65)
        res = example_measure(a, b)
        assert subspace_intersection_dim(support(a), support(b)) == 16
        assert res.components == 64
        rays = np.array([p.vector for p in res.decomposition_a.pures])
        assert np.abs(np.linalg.norm(rays, axis=1) - 1.0).max() <= 1e-15
        assert np.count_nonzero(res.decomposition_a.weights == 0.0) == 24
        assert np.count_nonzero(res.decomposition_b.weights == 0.0) == 24

    @pytest.mark.parametrize("d,rank_a,rank_b,seed", [(4, 3, 2, 0), (MAX_DIM, 40, 40, 4)])
    def test_certificate_is_one_ray_array(self, d, rank_a, rank_b, seed, monkeypatch):
        # the pairs of CI's measure commands; no PureState is built until `pures` is read
        built = []

        class CountingPureState(measure_module.PureState):
            def __init__(self, vector):
                built.append(1)
                super().__init__(vector)

        monkeypatch.setattr(measure_module, "PureState", CountingPureState)
        a, b = random_density(d, rank_a, seed=seed), random_density(d, rank_b, seed=seed + 1)
        res = example_measure(a, b)
        assert built == []
        dec = res.decomposition_a
        assert dec.rays is res.decomposition_b.rays
        assert dec.rays.shape == (res.components, d)
        assert [p.vector.tobytes() for p in dec.pures] == [v.tobytes() for v in dec.rays]
        assert len(built) == res.components
        sides = ((res.decomposition_a, a), (res.decomposition_b, b))
        assert res.residual == max(float(np.linalg.norm(x.reconstruction() - op.matrix)) for x, op in sides)

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("d,rank_a,rank_b", [(4, 2, 3), (8, 5, 6), (MAX_DIM, 40, 40)])
    def test_value_is_the_overlap_of_the_weights(self, d, rank_a, rank_b, swap):
        a, b = random_density(d, rank_a, seed=d), random_density(d, rank_b, seed=d + 1)
        res = example_measure(*((b, a) if swap else (a, b)))
        lam, mu = res.decomposition_a.weights, res.decomposition_b.weights
        assert res.value == min(1.0, float(np.sqrt(lam * mu).sum()))

    @pytest.mark.parametrize("norm", [0.0, np.nan, np.inf])
    def test_bad_ray_norm_raises_not_unit_vector(self, norm, monkeypatch):
        real = measure_module._split

        def bad_first_ray(op, rot, k):
            f, norms, rays = real(op, rot, k)
            norms, rays = norms.copy(), rays.copy()
            norms[:1], rays[:1] = norm, norm
            return f, norms, rays

        monkeypatch.setattr(measure_module, "_split", bad_first_ray)
        # d = 4, ranks 2 and 3 meet in one ray: both sides have a remainder
        with pytest.raises(NotUnitVectorError):
            example_measure(random_density(4, 2, seed=3), random_density(4, 3, seed=4))


class TestStopRule:
    """``restarts`` and ``seed`` are accepted and ignored."""

    def test_restarts_and_seed_are_no_ops(self):
        a, p, s = _pure_side_pair()
        assert abs(example_measure(a, p, MeasureConfig(seed=0)).value - np.sqrt(s)) <= 1e-9
        for a, b in ((a, p), _generic_full_rank_pair()):
            res = example_measure(a, b, MeasureConfig(seed=0))
            assert res.restarts_used == 1
            for cfg in (MeasureConfig(restarts=1, seed=7), MeasureConfig(restarts=3), MeasureConfig(restarts=8)):
                _assert_bit_identical(example_measure(a, b, cfg), res)


class TestMeasureSymmetric:
    def test_exact_argument_symmetry(self):
        a, b = _intersecting(3, seed=17)
        cfg = MeasureConfig(restarts=5, seed=2)
        r1 = measure_symmetric(a, b, cfg)
        r2 = measure_symmetric(b, a, cfg)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.decomposition_a.weights, r2.decomposition_b.weights)
        np.testing.assert_array_equal(r1.decomposition_b.weights, r2.decomposition_a.weights)

    def test_is_example_measure(self):
        assert measure_symmetric is example_measure


class TestFidelity:
    def test_identical_states(self):
        a = random_density(3, 3, seed=2)
        assert abs(fidelity(a, a) - 1.0) < 1e-10

    def test_orthogonal_pures(self):
        a = validate_density(np.diag([1.0, 0.0]).astype(complex))
        b = validate_density(np.diag([0.0, 1.0]).astype(complex))
        assert fidelity(a, b) < 1e-10

    def test_argument_order_agrees(self):
        a, b = random_density(4, 3, seed=5), random_density(4, 3, seed=6)
        assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-12

    def test_argument_order_is_bit_identical(self):
        # evaluated in the given order these differ in the last bit
        a, b = random_density(4, 3, seed=0), random_density(4, 2, seed=1000)
        assert fidelity(a, b) == fidelity(b, a)

    def test_pure_overlap(self):
        v = np.array([1.0, 0.0], dtype=complex)
        w = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        a = validate_density(np.outer(v, v.conj()))
        b = validate_density(np.outer(w, w.conj()))
        assert abs(fidelity(a, b) - np.sqrt(0.5)) < 1e-12

    @pytest.mark.parametrize(
        "dim, rank_a, rank_b",
        [(4, 4, 4), (8, 8, 8), (5, 2, 3), (8, 1, 5), (MAX_DIM, MAX_DIM, MAX_DIM), (MAX_DIM, 40, 40), (MAX_DIM, 1, 30)],
    )
    def test_matches_trace_norm_of_root_product(self, dim, rank_a, rank_b):
        # reference: ||sqrt(A) sqrt(B)||_1 with each root built from a fresh eigh of the matrix,
        # on the support that the rank cut keeps: the square root would lift a rounding-level
        # kernel eigenvalue (~1e-17) to ~3e-9
        def root(m):
            w, v = np.linalg.eigh(m)
            keep = w > DEFAULT_EPS_RANK * w.max()
            return (v[:, keep] * np.sqrt(w[keep])) @ v[:, keep].conj().T

        for seed in range(3):
            a = validate_density(random_density(dim, rank_a, seed=seed).matrix)
            b = validate_density(random_density(dim, rank_b, seed=100 + seed).matrix)
            reference = np.linalg.svd(root(a.matrix) @ root(b.matrix), compute_uv=False).sum()
            assert abs(fidelity(a, b) - reference) <= 1e-13

    def test_pure_side_reads_the_overlap(self):
        # c holds the ray u2 at weight 1e-5, above the rank cut; d is that ray. Its
        # kernel eigenvalues (~1e-18) would add ~1e-9 under the square root. The
        # weight 1e-5 is known to ~1e-16 in float64, so ~6e-15 after the root
        u = haar_unitary(3, 0)
        p = [np.outer(u[:, k], u[:, k].conj()) for k in range(3)]
        c = validate_density(0.6 * p[0] + (0.4 - 1e-5) * p[1] + 1e-5 * p[2])
        d = validate_density(p[2])
        exact = np.sqrt(np.vdot(u[:, 2], c.matrix @ u[:, 2]).real)
        assert abs(fidelity(c, d) - exact) <= 1e-13
        assert abs(fidelity(c, d) - example_measure(c, d).value) <= 1e-15
