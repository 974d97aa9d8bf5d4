import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import (
    DimensionMismatchError,
    IncompleteMapError,
    NotASymmetryError,
    TraceNotOneError,
    ValidationError,
    apply_symmetry,
    haar_unitary,
    probe_pure_states,
    pure_characterization_probe,
    pure_state,
    pure_state_map,
    random_density,
    random_pure,
    random_symmetry,
    rank_via_compatibility,
    symmetry_op,
    symmetry_overlap,
    symmetry_probe_map,
    transform_pure,
    transition_prob,
    validate_density,
    validate_effect,
    verify_theorem,
    wigner_reconstruct,
)
from qcompat.states import child_rng
from qcompat.symmetry import _probe_family

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _basis(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return pure_state(v)


class TestTransitionProb:
    def test_same_ray_is_one(self):
        p = random_pure(3, seed=1)
        q = pure_state(np.exp(0.7j) * p.vector)
        assert abs(transition_prob(p, q) - 1.0) < 1e-14

    def test_orthogonal_is_zero(self):
        assert transition_prob(_basis(0, 2), _basis(1, 2)) < 1e-14

    def test_equal_superposition(self):
        q = pure_state(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
        assert abs(transition_prob(_basis(0, 2), q) - 0.5) < 1e-14


class TestApplySymmetry:
    def test_identity(self):
        s = symmetry_op(np.eye(3, dtype=complex))
        rho = random_density(3, 2, seed=2)
        np.testing.assert_allclose(apply_symmetry(s, rho).matrix, rho.matrix, atol=1e-14)

    def test_conjugation_transposes(self):
        s = symmetry_op(np.eye(2, dtype=complex), antiunitary=True)
        rho = random_density(2, 2, seed=3)
        np.testing.assert_allclose(apply_symmetry(s, rho).matrix, rho.matrix.conj(), atol=1e-14)

    @given(seed=seeds, anti=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_spectrum_preserved(self, seed, anti):
        rng = child_rng(seed, 60)
        d = int(rng.integers(2, 6))
        rho = random_density(d, int(rng.integers(1, d + 1)), seed=rng)
        s = random_symmetry(d, antiunitary=anti, seed=rng)
        out = apply_symmetry(s, rho)
        np.testing.assert_allclose(out.eigenvalues, rho.eigenvalues, atol=1e-12)

    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_closed_form_spectral_data(self, d, anti):
        # the image's spectrum is the input's and its eigenvectors are U.V,
        # and they agree with a fresh eigendecomposition of the image
        s = random_symmetry(d, antiunitary=anti, seed=d)
        for rank in sorted({1, max(d // 2, 1), d}):
            out = apply_symmetry(s, random_density(d, rank, seed=10 * d + rank))
            v = out.eigenvectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-13)
            np.testing.assert_allclose((v * out.eigenvalues) @ v.conj().T, out.matrix, atol=1e-13)
            fresh = validate_density(out.matrix)
            np.testing.assert_allclose(out.eigenvalues, fresh.eigenvalues, atol=1e-13)
            assert out.numerical_rank == fresh.numerical_rank == rank

    def test_effect_with_other_trace_rejected(self):
        s = random_symmetry(3, antiunitary=False, seed=8)
        with pytest.raises(TraceNotOneError):
            apply_symmetry(s, validate_effect(np.diag([1.0, 0.5, 0.0]).astype(complex)))

    def test_clipped_eigenvalues_keep_the_state_valid(self):
        # entry noise of 1e-14 leaves eigenvalues in [-1e-12, 0) that
        # validation clips to zero; their summed mass (~1.5e-12 here) must
        # not turn the image into a trace error
        rng = np.random.default_rng(7)
        s = random_symmetry(64, antiunitary=False, seed=21)
        for _ in range(3):
            noise = rng.standard_normal((64, 64)) * 1e-14
            noise = (noise + noise.T) / 2.0
            m = random_pure(64, seed=rng).projection + noise - np.trace(noise) / 64 * np.eye(64)
            rho = validate_density(m)
            out = apply_symmetry(s, rho)
            np.testing.assert_allclose(out.matrix, s.u @ m @ s.u.conj().T, atol=1e-11)
            assert out.numerical_rank == rho.numerical_rank

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_symmetry(random_symmetry(3), random_density(4, 1, seed=0))

    def test_transform_pure_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            transform_pure(random_symmetry(3), random_pure(4, seed=0))

    @pytest.mark.parametrize("anti", [False, True])
    def test_overlap_dimension_mismatch(self, anti):
        # checked before the kinds, so mixed kinds of two dimensions raise too
        with pytest.raises(DimensionMismatchError):
            symmetry_overlap(random_symmetry(3), random_symmetry(4, antiunitary=anti))

    def test_transform_pure_preserves_probabilities(self):
        s = random_symmetry(3, antiunitary=True, seed=5)
        p = random_pure(3, seed=6)
        q = random_pure(3, seed=7)
        before = transition_prob(p, q)
        after = transition_prob(transform_pure(s, p), transform_pure(s, q))
        assert abs(before - after) < 1e-12


class TestPureStateMapValidation:
    def test_duplicate_inputs_rejected(self):
        pairs = [(_basis(0, 2), _basis(0, 2)), (_basis(0, 2), _basis(1, 2))]
        with pytest.raises(ValidationError):
            pure_state_map(pairs)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            pure_state_map([(_basis(0, 2), _basis(0, 3))])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            pure_state_map([])

    def test_first_duplicate_pair_is_named(self):
        # duplicates at (0, 3) and (1, 2): row-major order names (0, 3) first
        e0, e1 = _basis(0, 2), _basis(1, 2)
        pairs = [(e0, e0), (e1, e1), (pure_state(1j * e1.vector), e1), (pure_state(-e0.vector), e0)]
        with pytest.raises(ValidationError, match=r"^duplicate input ray at pairs 0 and 3$"):
            pure_state_map(pairs)

    def test_dim_one_rejected(self):
        one = pure_state(np.array([1.0], dtype=complex))
        with pytest.raises(ValidationError):
            pure_state_map([(one, one)])
        with pytest.raises(ValidationError):
            probe_pure_states(1)


class TestProbeFamily:
    @staticmethod
    def _one_pure_state_per_ray(d):
        eye = np.eye(d, dtype=np.complex128)
        probes = [(f"basis-{i}", pure_state(eye[i])) for i in range(d)]
        probes += [(f"pair-0-{j}", pure_state((eye[0] + eye[j]) / np.sqrt(2.0))) for j in range(1, d)]
        probes.append(("imag-0-1", pure_state((eye[0] + 1j * eye[1]) / np.sqrt(2.0))))
        return probes

    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_matches_one_pure_state_per_ray(self, d):
        want = self._one_pure_state_per_ray(d)
        got = probe_pure_states(d)
        labels, rays = _probe_family(d)
        assert [label for label, _ in got] == list(labels) == [label for label, _ in want]
        assert [p.vector.tobytes() for _, p in got] == [p.vector.tobytes() for _, p in want]
        assert rays.tobytes() == b"".join(p.vector.tobytes() for _, p in want)

    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_states_own_their_vectors(self, d):
        for _, p in probe_pure_states(d):
            assert p.vector.base is None

    @pytest.mark.parametrize("d", [2, 3, 64])
    @pytest.mark.parametrize("last_basis_dropped", [True, False])
    def test_incomplete_map_names_first_missing_probe(self, d, last_basis_dropped):
        dropped = {"imag-0-1", "pair-0-1"} | ({f"basis-{d - 1}"} if last_basis_dropped else set())
        sym = random_symmetry(d, seed=d)
        pairs = [(p, transform_pure(sym, p)) for label, p in probe_pure_states(d) if label not in dropped]
        first = f"basis-{d - 1}" if last_basis_dropped else "pair-0-1"
        with pytest.raises(IncompleteMapError, match=f"probe {first}$"):
            wigner_reconstruct(pure_state_map(pairs))


class TestWignerReconstruct:
    def test_identity_map(self):
        pairs = [(p, p) for _, p in probe_pure_states(3)]
        s = wigner_reconstruct(pure_state_map(pairs))
        assert not s.antiunitary
        ident = symmetry_op(np.eye(3, dtype=complex))
        assert symmetry_overlap(s, ident) > 1 - 1e-10

    def test_conjugation_map(self):
        conj = symmetry_op(np.eye(2, dtype=complex), antiunitary=True)
        pairs = [(p, transform_pure(conj, p)) for _, p in probe_pure_states(2)]
        s = wigner_reconstruct(pure_state_map(pairs))
        assert s.antiunitary
        assert symmetry_overlap(s, conj) > 1 - 1e-10

    @given(seed=seeds, anti=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_roundtrip(self, seed, anti):
        rng = child_rng(seed, 61)
        d = int(rng.integers(2, 6))
        s = random_symmetry(d, antiunitary=anti, seed=rng)
        rec = wigner_reconstruct(symmetry_probe_map(s))
        assert rec.antiunitary == s.antiunitary
        assert symmetry_overlap(s, rec) > 1 - 1e-9

    def test_incomplete_map_rejected(self):
        s = random_symmetry(3, antiunitary=False, seed=8)
        pairs = list(symmetry_probe_map(s).pairs)[:3]
        with pytest.raises(IncompleteMapError):
            wigner_reconstruct(pure_state_map(pairs))

    def test_probability_breaking_map_rejected(self):
        pairs = []
        for label, p in probe_pure_states(2):
            out = _basis(0, 2) if label == "pair-0-1" else p
            pairs.append((p, out))
        with pytest.raises(NotASymmetryError) as exc:
            wigner_reconstruct(pure_state_map(pairs))
        assert exc.value.probe

    def test_first_broken_transition_is_named(self):
        # outputs break inputs (0, 4) and (1, 2) only; row-major order names (0, 4)
        outs = {2: np.array([0, 1, 1]) / np.sqrt(2.0), 4: np.array([0, 0, 1])}
        pairs = [(p, pure_state(outs[k]) if k in outs else p) for k, (_, p) in enumerate(probe_pure_states(3))]
        with pytest.raises(NotASymmetryError) as exc:
            wigner_reconstruct(pure_state_map(pairs))
        assert exc.value.probe == "overlap-0-4"
        assert str(exc.value) == "transition probability broken between inputs 0 and 4: 0.500000 -> 0.000000"

    @given(seed=seeds, anti=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_broken_transition_matches_loop_reference(self, seed, anti):
        rng = child_rng(seed, 62)
        d = int(rng.integers(2, 6))
        pairs = list(symmetry_probe_map(random_symmetry(d, antiunitary=anti, seed=rng)).pairs)
        for k in rng.choice(len(pairs), size=int(rng.integers(1, 4)), replace=False):
            pairs[k] = (pairs[k][0], random_pure(d, seed=rng))
        expected = next(
            (
                f"overlap-{i}-{j}"
                for i in range(len(pairs))
                for j in range(i + 1, len(pairs))
                if abs(transition_prob(pairs[i][0], pairs[j][0]) - transition_prob(pairs[i][1], pairs[j][1])) > 1e-8
            ),
            None,
        )
        assert expected is not None
        with pytest.raises(NotASymmetryError) as exc:
            wigner_reconstruct(pure_state_map(pairs))
        assert exc.value.probe == expected

    @pytest.mark.parametrize("anti", [False, True])
    def test_zero_tolerance_accepts_exact_map(self, anti):
        s = random_symmetry(4, antiunitary=anti, seed=10)
        rec = wigner_reconstruct(symmetry_probe_map(s), tol=0.0)
        assert rec.antiunitary == anti
        assert symmetry_overlap(s, rec) > 1 - 1e-9

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # an infinite tol would accept this map, whose pair 0 output is a random ray
        pairs = list(symmetry_probe_map(random_symmetry(3, seed=1)).pairs)
        pairs[0] = (pairs[0][0], random_pure(3, seed=2))
        with pytest.raises(ValidationError, match="tol"):
            wigner_reconstruct(pure_state_map(pairs), tol=tol)

    def test_reconstruction_reproduces_unlisted_states(self):
        s = random_symmetry(4, antiunitary=True, seed=9)
        rec = wigner_reconstruct(symmetry_probe_map(s))
        for k in range(5):
            p = random_pure(4, seed=100 + k)
            a = transform_pure(s, p)
            b = transform_pure(rec, p)
            assert abs(transition_prob(a, b) - 1.0) < 1e-10


class TestVerifyTheorem:
    def test_unitary_transform_accepted(self):
        s = random_symmetry(3, antiunitary=False, seed=11)
        res = verify_theorem(lambda rho: apply_symmetry(s, rho), 3, n_mixed=5, seed=0)
        assert res.verdict
        assert res.max_error < 1e-8
        assert not res.failures
        assert not res.symmetry.antiunitary

    def test_antiunitary_transform_accepted(self):
        s = random_symmetry(4, antiunitary=True, seed=12)
        res = verify_theorem(lambda rho: apply_symmetry(s, rho), 4, n_mixed=5, seed=0)
        assert res.verdict
        assert res.symmetry.antiunitary

    def test_tampered_mixed_action_detected(self):
        u = symmetry_op(haar_unitary(3, seed=13))
        w = symmetry_op(haar_unitary(3, seed=14))

        def warped(rho):
            target = u if rho.numerical_rank == 1 else w
            return apply_symmetry(target, rho)

        res = verify_theorem(warped, 3, n_mixed=6, seed=0)
        assert not res.verdict
        assert res.failures

    def test_nonpure_probe_image_rejected(self):
        def depolarize(rho):
            m = 0.97 * rho.matrix + 0.03 * np.eye(3) / 3
            return validate_density(m)

        with pytest.raises(NotASymmetryError) as exc:
            verify_theorem(depolarize, 3, n_mixed=4, seed=0)
        assert exc.value.probe

    def test_probes_skip_the_eigendecomposition(self, monkeypatch):
        # the probes get closed-form spectral data, random_density returns
        # the spectrum and basis it drew, and apply_symmetry carries both
        # through, so no state or image of the run needs an eigh
        s = random_symmetry(16, antiunitary=False, seed=19)
        calls = []
        eigh = np.linalg.eigh

        def counted(m, *args, **kwargs):
            calls.append(m.shape)
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        res = verify_theorem(lambda rho: apply_symmetry(s, rho), 16, n_mixed=4, seed=0)
        assert res.verdict
        assert calls == []

    def test_memory_stays_small_at_max_dim(self):
        # each probe image keeps only its own vector, not the d x d eigenvectors
        s = random_symmetry(64, antiunitary=False, seed=20)
        tracemalloc.start()
        try:
            res = verify_theorem(lambda rho: apply_symmetry(s, rho), 64, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.verdict
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n_mixed", [0, -1])
    def test_needs_a_mixed_state(self, n_mixed):
        s = random_symmetry(2, antiunitary=False, seed=18)
        with pytest.raises(ValidationError):
            verify_theorem(lambda rho: apply_symmetry(s, rho), 2, n_mixed=n_mixed, seed=0)

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # a negative tol would fail every mixed state of a true symmetry
        s = random_symmetry(3, antiunitary=False, seed=18)
        with pytest.raises(ValidationError, match="tol"):
            verify_theorem(lambda rho: apply_symmetry(s, rho), 3, n_mixed=2, seed=0, tol=tol)

    def test_negative_seed_is_validation_error(self):
        # the strength rays come from as_rng(seed), which takes no negative seed
        s = random_symmetry(2, antiunitary=False, seed=18)
        with pytest.raises(ValidationError, match="seed"):
            verify_theorem(lambda rho: apply_symmetry(s, rho), 2, n_mixed=2, seed=-1)


class TestRankViaCompatibility:
    def test_pure_state(self):
        assert rank_via_compatibility(random_density(4, 1, seed=15)) == 1

    def test_maximally_mixed(self):
        rho = validate_density(np.eye(3, dtype=complex) / 3)
        assert rank_via_compatibility(rho) == 3

    def test_matches_spectral_rank(self):
        for k in range(8):
            d = 2 + k % 4
            r = 1 + k % d
            rho = random_density(d, r, seed=300 + k)
            assert rank_via_compatibility(rho, seed=k) == r

    @pytest.mark.parametrize("rank", [1, 32, 63, 64])
    def test_exact_at_max_dim(self, rank):
        rho = random_density(64, rank, seed=rank)
        assert rank_via_compatibility(rho, seed=rank) == rank

    def test_draws_no_random_numbers(self, monkeypatch):
        # every generator in qcompat comes from np.random.default_rng
        def refuse(*args, **kwargs):
            raise AssertionError("the rank probe drew random numbers")

        rho = random_density(16, 7, seed=2)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert rank_via_compatibility(rho, seed=5) == 7

    def test_eigenvalues_either_side_of_the_rank_cut_at_max_dim(self):
        # kept at ~2e-10 lambda_max, dropped at ~5e-11 lambda_max: only the cut separates them
        u = haar_unitary(64, 3)
        w = np.zeros(64)
        w[:31] = np.linspace(1.0, 0.5, 31)
        w[31], w[32] = 2e-10, 5e-11
        m = (u * (w / w.sum())) @ u.conj().T
        rho = validate_density((m + m.conj().T) / 2.0)
        assert rho.numerical_rank == 32
        assert rank_via_compatibility(rho) == 32

    @pytest.mark.parametrize(
        "diag,rank",
        [([0.0, 0.0, 0.0], 0), ([1.0, 0.5, 0.0], 2), ([1.0, 1.0, 1.0], 3), ([0.3, 1e-11, 0.0], 1)],
    )
    def test_effects(self, diag, rank):
        eff = validate_effect(np.diag(diag).astype(complex))
        assert eff.numerical_rank == rank
        assert rank_via_compatibility(eff) == rank

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            rank_via_compatibility(random_density(3, 2, seed=0), seed=-1)


class TestCharacterization:
    def test_pure_state_is_consistent(self):
        probe = pure_characterization_probe(random_density(3, 1, seed=17), samples=60, seed=0)
        assert probe.is_pure
        assert probe.rank == 1
        assert probe.consistent
        assert probe.witness is None

    def test_maximally_mixed_qubit_has_witness(self):
        probe = pure_characterization_probe(
            validate_density(np.eye(2, dtype=complex) / 2), samples=60, seed=0
        )
        assert not probe.is_pure
        assert not probe.consistent
        assert probe.witness is not None
        assert probe.witness.numerical_rank == 1

    def test_rank_two_state_in_dim_three(self):
        probe = pure_characterization_probe(random_density(3, 2, seed=18), samples=60, seed=1)
        assert probe.rank == 2
        assert not probe.consistent
        assert probe.witness is not None
