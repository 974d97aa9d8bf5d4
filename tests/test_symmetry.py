import dataclasses
import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import (
    DimensionMismatchError,
    IncompleteMapError,
    NotASymmetryError,
    NotUnitVectorError,
    PureState,
    PureStateMap,
    SpectralOperator,
    TraceNotOneError,
    ValidationError,
    apply_symmetry,
    haar_unitary,
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
from qcompat import symmetry
from qcompat.states import _pure_density, child_rng
from qcompat.symmetry import MAP_TOL, _mixed_state, _nearest_unitary, _probe_family, _probe_gram

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _basis(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return pure_state(v)


def _failing_at(k, fail):
    """A d = 3 symmetry's transform that counts its calls and returns ``fail(image)`` on call k."""
    s = random_symmetry(3, seed=21)
    calls = []

    def transform(rho):
        calls.append(rho)
        out = apply_symmetry(s, rho)
        return fail(out) if len(calls) == k + 1 else out

    return transform, calls


def _pairs(pmap):
    """The map's rows as (input, output) pure-state pairs."""
    return [(PureState(x), PureState(y)) for x, y in zip(pmap.ins, pmap.outs)]


def _noisy_outs(pmap, seed, change):
    """``pmap``'s outputs plus Gaussian noise, renormalized, scaled so that the largest
    transition-probability change is about ``change``; returns them and that change."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(pmap.outs.shape) + 1j * rng.standard_normal(pmap.outs.shape)
    t_in = symmetry._overlaps(pmap.ins, pmap.ins)

    def moved(scale):
        outs = pmap.outs + scale * noise
        outs /= np.linalg.norm(outs, axis=1, keepdims=True)
        return outs, float(np.abs(symmetry._overlaps(outs, outs) - t_in).max())

    # the change is linear in a small scale
    return moved(1e-10 * change / moved(1e-10)[1])


def _loop_reference(pmap):
    """The operator of a family-first map as a per-column phase loop and the SVD polar factor U V* build it."""
    d = pmap.dim
    images = pmap.outs[: 2 * d]
    cols = np.zeros((d, d), dtype=np.complex128)
    f0 = images[0]
    nz = np.flatnonzero(np.abs(f0) > 1e-8)[0]
    cols[:, 0] = f0 * (f0[nz].conj() / abs(f0[nz]))
    for j in range(1, d):
        g = images[d - 1 + j]
        phase = np.vdot(images[j], g) / np.vdot(cols[:, 0], g)
        cols[:, j] = images[j] * (phase / abs(phase))
    uu, _, vh = np.linalg.svd(cols)
    return uu @ vh


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
        # the image's spectrum is the input's and its stored eigenvectors are
        # U.V, and they agree with a fresh eigendecomposition of the image
        s = random_symmetry(d, antiunitary=anti, seed=d)
        for rank in sorted({1, max(d // 2, 1), d}):
            out = apply_symmetry(s, random_density(d, rank, seed=10 * d + rank))
            v = out.leading
            np.testing.assert_allclose(v.conj().T @ v, np.eye(rank), atol=1e-13)
            np.testing.assert_allclose((v * out.eigenvalues[:rank]) @ v.conj().T, out.matrix, atol=1e-13)
            fresh = validate_density(out.matrix)
            np.testing.assert_allclose(out.eigenvalues, fresh.eigenvalues, atol=1e-13)
            assert out.numerical_rank == fresh.numerical_rank == rank

    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("d", [2, 64])
    def test_every_constructor_route(self, d, anti):
        # only the stored columns are mapped, whichever constructor stored them
        s = random_symmetry(d, antiunitary=anti, seed=d + 1)
        pure = _pure_density(random_pure(d, seed=d))
        routes = {
            "validate_density": validate_density(random_density(d, max(1, d // 2), seed=d).matrix),
            "random_density": random_density(d, max(1, d // 3), seed=d + 2),
            "_pure_density": pure,
            "pure image": apply_symmetry(random_symmetry(d, antiunitary=not anti, seed=d + 3), pure),
        }
        for name, rho in routes.items():
            out = apply_symmetry(s, rho)
            m = rho.matrix.conj() if anti else rho.matrix
            err = float(np.abs(out.matrix - s.u @ m @ s.u.conj().T).max())
            assert err <= 1e-14, (name, err)
            assert out.eigenvalues.tobytes() == rho.eigenvalues.tobytes(), name
            assert out.leading.shape == rho.leading.shape, name

    def test_effect_with_other_trace_rejected(self):
        s = random_symmetry(3, antiunitary=False, seed=8)
        with pytest.raises(TraceNotOneError):
            apply_symmetry(s, validate_effect(np.diag([1.0, 0.5, 0.0]).astype(complex)))

    @pytest.mark.parametrize("d", [3, 64])
    def test_trace_check_on_the_spectrum_decides_as_on_the_matrix(self, d):
        # the check reads the carried spectrum's sum; on the eigh route and on
        # the rank-one route it rejects and accepts what Re tr(m) did
        s = random_symmetry(d, antiunitary=False, seed=d + 9)
        mixed = random_density(d, d // 2 + 1, seed=d).matrix
        pure = random_pure(d, seed=d).projection
        cases = [(mixed, 0.5, False), (mixed, 1.0 + 5e-12, False), (mixed, 1.0 - 1e-14, True), (mixed, 1.0 + 1e-14, True)]
        cases += [(pure, 0.5, False), (pure, 1.0 - 1e-14, True), (pure, 1.0 + 1e-14, True)]
        for m, scale, accepted in cases:
            effect = validate_effect(scale * m)
            assert (abs(effect.matrix.trace().real - 1.0) <= 1e-12) == accepted
            if accepted:
                assert apply_symmetry(s, effect).eigenvalues is effect.eigenvalues
            else:
                with pytest.raises(TraceNotOneError):
                    apply_symmetry(s, effect)

    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_matrix_is_the_image_formula_built_on_first_read(self, d, anti):
        # (W' w') W'* over the nonzero eigenvalues, bit for bit; nor is a
        # lazy input's matrix built by its image
        s = random_symmetry(d, antiunitary=anti, seed=d + 4)
        routes = [
            _pure_density(random_pure(d, seed=d)),
            random_density(d, d // 2 + 1, seed=d),
            validate_density(random_density(d, d, seed=d + 1).matrix),
        ]
        for rho in routes:
            lazy = "matrix" not in vars(rho)
            out = apply_symmetry(s, rho)
            assert "matrix" not in vars(out)
            assert ("matrix" not in vars(rho)) == lazy
            vecs = s.u @ (rho.leading.conj() if anti else rho.leading)
            w = rho.eigenvalues[: vecs.shape[1]]
            image = vecs[:, w != 0.0]
            want = (image * w[w != 0.0]) @ image.conj().T
            assert out.matrix.tobytes() == want.tobytes()

    def test_negative_eigenvalues_keep_the_image_valid(self):
        # entry noise of 1e-14 leaves eigenvalues in [-1e-12, 0); the image is
        # built over them too, so it keeps the input's trace and re-validates
        rng = np.random.default_rng(7)
        s = random_symmetry(64, antiunitary=False, seed=21)
        for _ in range(5):
            noise = rng.standard_normal((64, 64)) * 1e-14
            noise = (noise + noise.T) / 2.0
            m = random_pure(64, seed=rng).projection + noise - np.trace(noise) / 64 * np.eye(64)
            rho = validate_density(m)
            assert -1e-12 <= rho.eigenvalues[-1] < 0.0
            out = apply_symmetry(s, rho)
            np.testing.assert_array_equal(out.eigenvalues, rho.eigenvalues)
            validate_density(out.matrix)
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
            symmetry_probe_map(symmetry_op(np.eye(1)))


class TestPureStateMapChecks:
    """A `PureStateMap` checks its own arrays, however it was built."""

    @staticmethod
    def _probe_map():
        pmap = symmetry_probe_map(random_symmetry(3, seed=1))
        return pmap.ins, pmap.outs

    def test_fewer_outputs_than_inputs(self):
        ins, outs = self._probe_map()
        with pytest.raises(DimensionMismatchError, match=r"^map ins and outs must be 2-D arrays of one shape, got \(6, 3\) and \(5, 3\)$"):
            PureStateMap(ins, outs[:5])

    def test_outputs_of_another_dim(self):
        ins, outs = self._probe_map()
        wide = np.hstack([outs, np.zeros((6, 1))])
        with pytest.raises(DimensionMismatchError, match=r"got \(6, 3\) and \(6, 4\)$"):
            PureStateMap(ins, wide)

    def test_outputs_scaled_by_two(self):
        ins, outs = self._probe_map()
        with pytest.raises(NotUnitVectorError, match=r"^map output ray has norm (2\.0|1\.99999|2\.00000).*, not 1 within 1e-12$"):
            PureStateMap(ins, 2.0 * outs)
        with pytest.raises(NotUnitVectorError, match="^map input ray has norm"):
            PureStateMap(2.0 * ins, outs)

    def test_one_row_off_by_more_than_the_norm_tolerance(self):
        ins, outs = self._probe_map()
        outs = outs.copy()
        outs[4] *= 1.0 + 1e-11
        with pytest.raises(NotUnitVectorError, match="^map output ray has norm 1.00000000001"):
            PureStateMap(ins, outs)
        outs[4] /= 1.0 + 1e-11
        PureStateMap(ins, outs * (1.0 + 1e-13))

    def test_rows_must_be_stacked(self):
        ins, outs = self._probe_map()
        with pytest.raises(DimensionMismatchError, match=r"got \(3,\) and \(3,\)$"):
            PureStateMap(ins[0], outs[0])

    def test_needs_a_pair(self):
        with pytest.raises(ValidationError, match="^map needs at least one pair$"):
            PureStateMap(np.zeros((0, 3), dtype=complex), np.zeros((0, 3), dtype=complex))


class TestPureStateMapForm:
    def test_holds_input_and_output_rays_as_rows(self):
        pairs = [(random_pure(3, seed=k), random_pure(3, seed=10 + k)) for k in range(4)]
        pmap = pure_state_map(pairs)
        assert [f.name for f in dataclasses.fields(PureStateMap)] == ["ins", "outs"]
        assert pmap.ins.shape == pmap.outs.shape == (4, 3)
        assert pmap.dim == 3
        assert pmap.ins.tobytes() == b"".join(p.vector.tobytes() for p, _ in pairs)
        assert pmap.outs.tobytes() == b"".join(q.vector.tobytes() for _, q in pairs)


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
        labels, rays = _probe_family(d)
        assert list(labels) == [label for label, _ in want]
        assert rays.tobytes() == b"".join(p.vector.tobytes() for _, p in want)
        # symmetry_probe_map's inputs are the same rays, in the same order
        pmap = symmetry_probe_map(symmetry_op(np.eye(d)))
        assert pmap.ins.tobytes() == b"".join(p.vector.tobytes() for _, p in want)

    @pytest.mark.parametrize("d", [2, 64])
    def test_built_once_per_dim_and_read_only(self, d):
        labels, rays = _probe_family(d)
        again = _probe_family(d)
        assert again[0] is labels and again[1] is rays
        assert _probe_gram(d) is _probe_gram(d)
        assert _probe_gram(d).tobytes() == symmetry._overlaps(rays, rays).tobytes()
        for array in (rays, _probe_gram(d)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0

    def test_a_float_dim_reads_no_int_dims_rays(self):
        # equal keys of another type would otherwise hand a float dim the rays that _check_dim refuses it
        _probe_family(3)
        with pytest.raises(DimensionMismatchError, match=r"^dimension must be an integer in 2..64, got 3.0$"):
            _probe_family(3.0)

    def test_memos_are_bounded_by_the_dims_and_their_size_documented(self):
        # one key per dim in 2..MAX_DIM; at d = 64 the rays and the Gram matrix take 128 KiB each
        assert _probe_family.cache_info().maxsize == _probe_gram.cache_info().maxsize == 63
        assert _probe_family(64)[1].nbytes == _probe_gram(64).nbytes == 128 * 2**10
        assert "128 KiB" in _probe_family.__doc__
        assert "128 KiB" in _probe_gram.__doc__

    def test_a_transform_that_writes_into_a_probe_raises(self):
        s = random_symmetry(4, seed=34)
        before = verify_theorem(lambda rho: apply_symmetry(s, rho), 4, n_mixed=2, seed=0)

        def writes(rho):
            out = apply_symmetry(s, rho)
            rho.leading[0, 0] = 0.0
            return out

        with pytest.raises(ValueError, match="read-only"):
            verify_theorem(writes, 4, n_mixed=2, seed=0)
        assert _probe_family(4)[1].tobytes() == b"".join(p.vector.tobytes() for _, p in self._one_pure_state_per_ray(4))
        after = verify_theorem(lambda rho: apply_symmetry(s, rho), 4, n_mixed=2, seed=0)
        assert after.symmetry.u.tobytes() == before.symmetry.u.tobytes()
        doc = " ".join(verify_theorem.__doc__.split())
        assert "a transform that writes into a probe's ``leading`` raises numpy's ValueError" in doc

    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_map_owns_its_two_arrays(self, d):
        pmap = symmetry_probe_map(random_symmetry(d, seed=d))
        assert pmap.ins.base is None
        assert pmap.outs.base is None

    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_matches_pure_state_map_of_its_pairs(self, d, anti):
        sym = random_symmetry(d, antiunitary=anti, seed=d)
        want = pure_state_map([(p, transform_pure(sym, p)) for _, p in self._one_pure_state_per_ray(d)])
        pmap = symmetry_probe_map(sym)
        assert pmap.ins.shape == pmap.outs.shape == want.outs.shape
        assert pmap.ins.tobytes() == want.ins.tobytes()
        assert pmap.outs.tobytes() == want.outs.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 64])
    @pytest.mark.parametrize("last_basis_dropped", [True, False])
    def test_incomplete_map_names_first_missing_probe(self, d, last_basis_dropped):
        dropped = {"imag-0-1", "pair-0-1"} | ({f"basis-{d - 1}"} if last_basis_dropped else set())
        sym = random_symmetry(d, seed=d)
        labels = _probe_family(d)[0]
        pairs = [pair for label, pair in zip(labels, _pairs(symmetry_probe_map(sym))) if label not in dropped]
        first = f"basis-{d - 1}" if last_basis_dropped else "pair-0-1"
        with pytest.raises(IncompleteMapError, match=f"probe {first}$"):
            wigner_reconstruct(pure_state_map(pairs))


class TestWignerReconstruct:
    def test_identity_map(self):
        pairs = [(p, p) for p in map(pure_state, _probe_family(3)[1])]
        s = wigner_reconstruct(pure_state_map(pairs))
        assert not s.antiunitary
        ident = symmetry_op(np.eye(3, dtype=complex))
        assert symmetry_overlap(s, ident) > 1 - 1e-10

    def test_conjugation_map(self):
        conj = symmetry_op(np.eye(2, dtype=complex), antiunitary=True)
        s = wigner_reconstruct(symmetry_probe_map(conj))
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
        pairs = _pairs(symmetry_probe_map(s))[:3]
        with pytest.raises(IncompleteMapError):
            wigner_reconstruct(pure_state_map(pairs))

    def test_probability_breaking_map_rejected(self):
        labels, rays = _probe_family(2)
        pairs = [(p, _basis(0, 2) if label == "pair-0-1" else p) for label, p in zip(labels, map(pure_state, rays))]
        with pytest.raises(NotASymmetryError) as exc:
            wigner_reconstruct(pure_state_map(pairs))
        assert exc.value.probe

    def test_first_broken_transition_is_named(self):
        # outputs break inputs (0, 4) and (1, 2) only; row-major order names (0, 4)
        outs = {2: np.array([0, 1, 1]) / np.sqrt(2.0), 4: np.array([0, 0, 1])}
        probes = map(pure_state, _probe_family(3)[1])
        pairs = [(p, pure_state(outs[k]) if k in outs else p) for k, p in enumerate(probes)]
        with pytest.raises(NotASymmetryError) as exc:
            wigner_reconstruct(pure_state_map(pairs))
        assert exc.value.probe == "overlap-0-4"
        assert str(exc.value) == "transition probability broken between inputs 0 and 4: 0.500000 -> 0.000000"

    @given(seed=seeds, anti=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_broken_transition_matches_loop_reference(self, seed, anti):
        rng = child_rng(seed, 62)
        d = int(rng.integers(2, 6))
        pairs = _pairs(symmetry_probe_map(random_symmetry(d, antiunitary=anti, seed=rng)))
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

    def test_reconstruction_reproduces_unlisted_states(self):
        s = random_symmetry(4, antiunitary=True, seed=9)
        rec = wigner_reconstruct(symmetry_probe_map(s))
        for k in range(5):
            p = random_pure(4, seed=100 + k)
            a = transform_pure(s, p)
            b = transform_pure(rec, p)
            assert abs(transition_prob(a, b) - 1.0) < 1e-10


class TestNearestUnitary:
    """The snap to a unitary: Newton–Schulz steps in place of an SVD, to the same polar factor."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "at-cut"])
    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_matches_the_loop_and_svd_polar_factor(self, d, anti, noisy):
        pmap = symmetry_probe_map(random_symmetry(d, antiunitary=anti, seed=70 + d))
        if noisy:
            # outputs moved until a transition probability changes by nearly MAP_TOL
            outs, change = _noisy_outs(pmap, 80 + d, 0.9 * MAP_TOL)
            assert 0.5 * MAP_TOL < change <= MAP_TOL
            pmap = PureStateMap(pmap.ins, outs)
        rec = wigner_reconstruct(pmap)
        assert rec.antiunitary == anti
        assert np.abs(rec.u - _loop_reference(pmap)).max() <= 1e-13

    def test_converges_within_its_steps_at_the_bound(self):
        # unit columns whose every pair overlaps by |<x_i|x_j>|^2 = MAP_TOL (1 - 1e-9), all in phase,
        # so ||X*X - I||_2 = 63 sqrt(MAP_TOL): the most the transition check lets through at d = 64
        d = 64
        c = np.sqrt(MAP_TOL * (1.0 - 1e-9))
        w, v = np.linalg.eigh((1.0 - c) * np.eye(d) + c * np.ones((d, d)))
        unitary = haar_unitary(d, 71)
        x = unitary @ ((v * np.sqrt(w)) @ v.T)
        assert np.abs(np.linalg.norm(x, axis=0) - 1.0).max() < 1e-14
        off = ~np.eye(d, dtype=bool)
        assert np.abs(np.abs(x.conj().T @ x)[off] ** 2 / MAP_TOL - (1.0 - 1e-9)).max() < 1e-6
        # x = unitary times a positive definite root, so its polar factor is that unitary
        u = _nearest_unitary(x)
        assert np.abs(u - unitary).max() <= 1e-13
        assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-14

    @pytest.mark.parametrize("d", [2, 64])
    def test_a_unitary_is_returned_as_it_is(self, d):
        u = haar_unitary(d, 72)
        assert _nearest_unitary(u) is u


def _reconstruct_error(pmap, order=None):
    """Type, probe and message of the error ``pmap`` raises; with ``order``, pmap's row r is row order[r] of the base map."""
    with pytest.raises((NotASymmetryError, IncompleteMapError)) as exc:
        wigner_reconstruct(pmap)
    probe, text = getattr(exc.value, "probe", None), str(exc.value)
    if order is not None and probe and probe.startswith("overlap-"):
        i, j = sorted(int(order[int(k)]) for k in probe.split("-")[1:])
        probe, text = f"overlap-{i}-{j}", re.sub(r"inputs \d+ and \d+", f"inputs {i} and {j}", text)
    return type(exc.value), probe, text


class TestProbeRoutes:
    """A map whose first 2d inputs are the probe family skips probe matching, and one that is the family reads
    the memoized Gram matrix; any other map takes the general route, to the same bytes and the same errors."""

    @staticmethod
    def _routes(ins, outs, sym):
        # the map as given, its rows reversed (probe matching), and with one more pair (the Gram product)
        d = ins.shape[1]
        order = np.arange(len(ins))[::-1]
        x = random_pure(d, seed=d)
        extended = PureStateMap(np.vstack([ins, x.vector]), np.vstack([outs, transform_pure(sym, x).vector]))
        return {
            "given": (PureStateMap(ins, outs), None),
            "permuted": (PureStateMap(ins[order], outs[order]), order),
            "extended": (extended, None),
        }

    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_every_route_gives_the_same_operator_bytes(self, d, anti, noisy):
        sym = random_symmetry(d, antiunitary=anti, seed=50 + d)
        pmap = symmetry_probe_map(sym)
        outs = pmap.outs
        if noisy:
            # basis images off orthogonal by ~1e-9: the snap takes Newton steps
            outs = _noisy_outs(pmap, 90 + d, 0.1 * MAP_TOL)[0]
            assert np.abs(outs[:d].conj() @ outs[:d].T - np.eye(d)).max() > 1e-12
        got = {name: wigner_reconstruct(m) for name, (m, _) in self._routes(pmap.ins, outs, sym).items()}
        assert {name: rec.antiunitary for name, rec in got.items()} == dict.fromkeys(got, anti)
        assert len({rec.u.tobytes() for rec in got.values()}) == 1
        assert symmetry_overlap(sym, got["given"]) > 1 - 1e-9

    @staticmethod
    def _defective(d, anti, defect, noisy):
        """A probe map with one defect: a transition probability or the phase probe broken, or a probe missing."""
        sym = random_symmetry(d, antiunitary=anti, seed=60 + d)
        pmap = symmetry_probe_map(sym)
        ins, outs = pmap.ins, _noisy_outs(pmap, 95 + d, 0.1 * MAP_TOL)[0] if noisy else pmap.outs.copy()
        f0, f1 = outs[0], outs[1]
        if defect == "transition":
            # pair-0-1's image takes a relative phase: only its transition probability to imag-0-1 moves
            outs[d] = pure_state((f0 + np.exp(1j) * f1) / np.sqrt(2.0), normalize=True).vector
        elif defect == "phase":
            # imag-0-1's image fits neither branch: only its transition probability to pair-0-1 moves
            outs[2 * d - 1] = pure_state((f0 + np.exp(0.5j) * f1) / np.sqrt(2.0), normalize=True).vector
        else:
            keep = np.arange(2 * d) != d
            ins, outs = ins[keep], outs[keep]
        return ins, outs, sym

    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
    @pytest.mark.parametrize("defect", ["transition", "phase", "missing"])
    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_every_route_raises_the_same_error(self, d, anti, defect, noisy):
        ins, outs, sym = self._defective(d, anti, defect, noisy)
        errors = {name: _reconstruct_error(m, order) for name, (m, order) in self._routes(ins, outs, sym).items()}
        want = {
            "transition": (NotASymmetryError, f"overlap-{d}-{2 * d - 1}"),
            "phase": (NotASymmetryError, f"overlap-{d}-{2 * d - 1}"),
            "missing": (IncompleteMapError, None),
        }[defect]
        assert errors["given"][:2] == want
        if defect == "missing":
            assert errors["given"][2] == "map lacks an input matching probe pair-0-1"
        assert errors["permuted"] == errors["given"]
        assert errors["extended"] == errors["given"]

    def test_each_route_runs_only_its_products(self, monkeypatch):
        # _overlaps calls: t_out only for the family, t_in too with an extra pair,
        # and the probe-matching product for any other order
        sym = random_symmetry(8, seed=68)
        pmap = symmetry_probe_map(sym)
        _probe_gram(8)
        calls = []
        overlaps = symmetry._overlaps
        monkeypatch.setattr(symmetry, "_overlaps", lambda rows, cols: calls.append(rows.shape) or overlaps(rows, cols))
        counts = {}
        for name, (m, _) in self._routes(pmap.ins, pmap.outs, sym).items():
            calls.clear()
            wigner_reconstruct(m)
            counts[name] = len(calls)
        assert counts == {"given": 1, "permuted": 3, "extended": 2}

    def test_no_route_runs_an_svd(self, monkeypatch):
        # the snap to a unitary is Newton–Schulz steps, on every route and for either kind
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args) or svd(*args, **kwargs))
        for anti in (False, True):
            sym = random_symmetry(8, antiunitary=anti, seed=69)
            pmap = symmetry_probe_map(sym)
            for outs in (pmap.outs, _noisy_outs(pmap, 69, 0.1 * MAP_TOL)[0]):
                for m, _ in self._routes(pmap.ins, outs, sym).values():
                    assert wigner_reconstruct(m).antiunitary == anti
        assert calls == []


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

    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("d", [2, 5, 64])
    def test_probe_path_matches_the_public_route(self, d, anti):
        # the map of every probe to its image's top eigenvector, through
        # pure_state_map and wigner_reconstruct, gives the same operator bytes
        s = random_symmetry(d, antiunitary=anti, seed=d)

        def transform(rho):
            return apply_symmetry(s, rho)

        pairs = []
        for p in map(pure_state, _probe_family(d)[1]):
            pairs.append((p, pure_state(transform(_pure_density(p)).leading[:, 0])))
        want = wigner_reconstruct(pure_state_map(pairs)).u
        got = verify_theorem(transform, d, n_mixed=1, seed=0).symmetry.u
        assert got.tobytes() == want.tobytes()

    def test_reconstructs_once_through_wigner_reconstruct(self, monkeypatch):
        maps = []
        public = symmetry.wigner_reconstruct

        def counted(pmap):
            maps.append(pmap)
            return public(pmap)

        monkeypatch.setattr(symmetry, "wigner_reconstruct", counted)
        s = random_symmetry(3, seed=15)
        res = verify_theorem(lambda rho: apply_symmetry(s, rho), 3, n_mixed=3, seed=0)
        assert res.verdict
        assert len(maps) == 1
        assert isinstance(maps[0], PureStateMap)
        assert maps[0].ins.tobytes() == _probe_family(3)[1].tobytes()

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_non_unit_probe_image_stops_the_loop(self, k):
        def stretched(out):
            return SpectralOperator(out.matrix, out.eigenvalues, out.leading * 1.1)

        transform, calls = _failing_at(k, stretched)
        with pytest.raises(NotUnitVectorError, match="^vector has norm 1.1"):
            verify_theorem(transform, 3, n_mixed=1, seed=0)
        assert len(calls) == k + 1

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_rejected_probe_output_names_the_probe_and_stops_the_loop(self, k):
        def rejected(out):
            raise TraceNotOneError("trace 2.0 differs from 1")

        transform, calls = _failing_at(k, rejected)
        with pytest.raises(NotASymmetryError) as exc:
            verify_theorem(transform, 3, n_mixed=1, seed=0)
        assert exc.value.probe == _probe_family(3)[0][k]
        assert len(calls) == k + 1

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

    @pytest.mark.parametrize("anti", [False, True])
    def test_probes_and_images_store_one_column(self, anti):
        # each pure probe and its image store one column
        s = random_symmetry(64, antiunitary=anti, seed=22)
        seen = []

        def transform(rho):
            out = apply_symmetry(s, rho)
            seen.append((rho, out))
            return out

        assert verify_theorem(transform, 64, n_mixed=2, seed=0).verdict
        # the 2d probes are the first transform calls, then come the mixed
        # draws of ranks 1 and 2; the rank-1 draw stores one column too
        pure = seen[: 2 * 64]
        assert len(pure) == len(seen) - 2 == 128
        assert seen[128][0].leading.shape == (64, 1)
        for rho, out in pure:
            assert rho.leading.shape == (64, 1)
            assert out.leading.shape == (64, 1)
            # nor did the run build either one's d x d matrix
            assert "matrix" not in vars(rho)
            assert "matrix" not in vars(out)

    def test_memory_stays_small_at_max_dim(self):
        # each probe image keeps only its own vector, not a d x d basis
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

    def test_negative_seed_is_validation_error(self):
        # the strength rays come from as_rng(seed), which takes no negative seed
        s = random_symmetry(2, antiunitary=False, seed=18)
        with pytest.raises(ValidationError, match="seed"):
            verify_theorem(lambda rho: apply_symmetry(s, rho), 2, n_mixed=2, seed=-1)


class TestMapTolerance:
    """`MAP_TOL` is a constant: no entry point takes a tolerance, and rows either side of it pin its value."""

    def test_no_entry_point_takes_a_tolerance(self):
        assert list(inspect.signature(wigner_reconstruct).parameters) == ["pmap"]
        assert list(inspect.signature(verify_theorem).parameters) == ["transform", "dim", "n_mixed", "seed"]

    @staticmethod
    def _mixed_by(weight):
        """A pure image with its top eigenvalue lowered to 1 - ``weight``, the rest on an orthogonal ray."""

        def change(out):
            w = out.leading[:, 0]
            r = random_pure(3, seed=41).vector
            r = r - w * np.vdot(w, r)
            r /= np.linalg.norm(r)
            m = (1.0 - weight) * np.outer(w, w.conj()) + weight * np.outer(r, r.conj())
            return SpectralOperator(m, np.array([1.0 - weight, weight, 0.0]), np.column_stack([w, r]))

        return change

    @pytest.mark.parametrize("factor,passes", [(0.5, True), (2.0, False)], ids=["inside", "outside"])
    @pytest.mark.parametrize("k", [0, 3, 5], ids=["basis-0", "pair-0-1", "imag-0-1"])
    def test_probe_purity_floor(self, k, factor, passes):
        # call k is probe k of the d = 3 family
        transform, _ = _failing_at(k, self._mixed_by(factor * 1e-8))
        if passes:
            assert verify_theorem(transform, 3, n_mixed=3, seed=0).verdict
        else:
            with pytest.raises(NotASymmetryError) as exc:
                verify_theorem(transform, 3, n_mixed=3, seed=0)
            assert exc.value.probe == _probe_family(3)[0][k]

    @pytest.mark.parametrize("factor,passes", [(0.5, True), (2.0, False)], ids=["inside", "outside"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["raised", "lowered"])
    def test_transition_probability_cut(self, sign, factor, passes):
        # inputs e_0 and (e_0 + e_1)/sqrt 2 overlap 1/2; the outputs overlap 1/2 +- factor MAP_TOL.
        # Past the transition check, the two-pair map lacks probe basis-1.
        s = random_symmetry(3, seed=43)
        t = 0.5 + sign * factor * 1e-8
        ins = [_basis(0, 3), pure_state(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))]
        outs = [_basis(0, 3), pure_state(np.array([np.sqrt(t), np.sqrt(1.0 - t), 0.0]))]
        pmap = pure_state_map((p, transform_pure(s, q)) for p, q in zip(ins, outs))
        assert abs(transition_prob(*(PureState(y) for y in pmap.outs)) - t) < 1e-15
        if passes:
            with pytest.raises(IncompleteMapError, match="basis-1"):
                wigner_reconstruct(pmap)
        else:
            with pytest.raises(NotASymmetryError) as exc:
                wigner_reconstruct(pmap)
            assert exc.value.probe == "overlap-0-1"

    # x and a ray r orthogonal to it, chosen so that tilting x towards r moves x's transition
    # probability to every d = 3 probe only at second order, by at most 7/12 of sin^2
    _TILTED = (np.ones(3) / np.sqrt(3.0), 1j * np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0))

    @pytest.mark.parametrize("factor,passes", [(0.5, True), (1.5, False)], ids=["inside", "outside"])
    @pytest.mark.parametrize("anti", [False, True])
    def test_reproduction_fit(self, anti, factor, passes):
        # the probe map of a symmetry plus pair 6: x to the image of x tilted by sin^2 = factor MAP_TOL,
        # whose fit is 1 - factor MAP_TOL while no transition probability moves by MAP_TOL
        s = random_symmetry(3, antiunitary=anti, seed=44)
        x, r = self._TILTED
        w = factor * 1e-8
        tilted = transform_pure(s, pure_state(np.sqrt(1.0 - w) * x + np.sqrt(w) * r))
        pmap = pure_state_map([*_pairs(symmetry_probe_map(s)), (pure_state(x), tilted)])
        moved = np.abs(np.abs(pmap.ins.conj() @ pmap.ins.T) ** 2 - np.abs(pmap.outs.conj() @ pmap.outs.T) ** 2)
        assert moved.max() < 1e-8
        if passes:
            rec = wigner_reconstruct(pmap)
            assert rec.antiunitary == anti
            assert symmetry_overlap(s, rec) > 1 - 1e-9
        else:
            with pytest.raises(NotASymmetryError) as exc:
                wigner_reconstruct(pmap)
            assert exc.value.probe == "pair-6"

    @staticmethod
    def _moved_by(err):
        """The image moved by ``err`` in Frobenius norm, traceless and inside its support."""

        def change(out):
            v = out.leading[:, :2]
            h = (np.outer(v[:, 0], v[:, 0].conj()) - np.outer(v[:, 1], v[:, 1].conj())) / np.sqrt(2.0)
            return validate_density(out.matrix + err * h)

        return change

    @pytest.mark.parametrize("factor,failures", [(0.5, ()), (2.0, ("mixed-2",))], ids=["inside", "outside"])
    def test_mixed_state_error(self, factor, failures):
        # calls 0-5 are the probes and call 8 the full-rank mixed state k = 2, which the
        # strength check (k < 2 only) skips, so the error alone decides
        res = verify_theorem(_failing_at(8, self._moved_by(factor * 1e-8))[0], 3, n_mixed=3, seed=0)
        assert res.failures == failures
        assert abs(res.max_error - factor * 1e-8) < 1e-14

    @pytest.mark.parametrize("out_dim", [1, 4])
    def test_a_mixed_output_of_another_dim_raises(self, out_dim):
        # numpy would refuse the d = 4 output with its own ValueError and broadcast the d = 1 one silently
        other = random_density(out_dim, 1, seed=42)
        transform, _ = _failing_at(6, lambda out: other)
        with pytest.raises(DimensionMismatchError, match=f"^map entry dims differ: 3 != {out_dim}$"):
            verify_theorem(transform, 3, n_mixed=3, seed=0)


class TestMixedStateMemo:
    @staticmethod
    def _apply(s):
        return lambda rho: apply_symmetry(s, rho)

    def test_a_second_call_draws_no_state(self, monkeypatch):
        _mixed_state.cache_clear()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return random_density(*args, **kwargs)

        monkeypatch.setattr(symmetry, "random_density", counted)
        transform = self._apply(random_symmetry(8, antiunitary=True, seed=30))
        first = verify_theorem(transform, 8, n_mixed=12, seed=5)
        assert len(calls) == 12
        calls.clear()
        second = verify_theorem(transform, 8, n_mixed=12, seed=5)
        assert calls == []
        assert np.float64(second.max_error).tobytes() == np.float64(first.max_error).tobytes()

    def test_states_are_read_only(self):
        state = _mixed_state(8, 5, 3)
        for array in (state.matrix, state.eigenvalues, state.leading):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_a_writing_transform_raises_and_corrupts_no_later_call(self):
        s = random_symmetry(4, seed=31)
        before = verify_theorem(self._apply(s), 4, n_mixed=3, seed=6)

        def writes(rho):
            out = apply_symmetry(s, rho)
            rho.matrix[0, 0] += 1.0
            return out

        with pytest.raises(ValueError, match="read-only"):
            verify_theorem(writes, 4, n_mixed=3, seed=6)
        after = verify_theorem(self._apply(s), 4, n_mixed=3, seed=6)
        assert np.float64(after.max_error).tobytes() == np.float64(before.max_error).tobytes()
        assert after.symmetry.u.tobytes() == before.symmetry.u.tobytes()

    def test_one_seed_at_four_dims_draws_each_state_once(self):
        # 4 dims x the default n_mixed = 10 keys, cycled: an LRU smaller than the
        # cycle would miss on every key of every round
        _mixed_state.cache_clear()
        transforms = {d: self._apply(random_symmetry(d, seed=33 + d)) for d in (8, 16, 32, 64)}
        rounds = []
        for _ in range(2):
            before = _mixed_state.cache_info().misses
            rounds.append({d: verify_theorem(t, d, seed=9) for d, t in transforms.items()})
            rounds[-1]["misses"] = _mixed_state.cache_info().misses - before
        assert rounds[0]["misses"] == 40
        assert rounds[1]["misses"] == 0
        for d in transforms:
            first, second = rounds[0][d], rounds[1][d]
            assert np.float64(second.max_error).tobytes() == np.float64(first.max_error).tobytes()
            assert second.symmetry.u.tobytes() == first.symmetry.u.tobytes()

    def test_bounded_and_its_worst_case_memory_documented(self):
        _mixed_state.cache_clear()
        bound = _mixed_state.cache_info().maxsize
        assert bound is not None
        verify_theorem(self._apply(random_symmetry(2, seed=32)), 2, n_mixed=bound + 8, seed=7)
        assert _mixed_state.cache_info().currsize == bound
        # the largest entry at d = 64 is a full-rank draw
        full = _mixed_state(64, 0, 63)
        entry = full.matrix.nbytes + full.eigenvalues.nbytes + full.leading.nbytes
        assert f"{entry / 2**10:.1f} KiB" in _mixed_state.__doc__
        assert f"{bound * entry / 2**20:.1f} MiB" in _mixed_state.__doc__


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

