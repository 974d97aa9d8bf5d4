import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import (
    DimensionMismatchError,
    InvalidRankError,
    NotAnEffectError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
    NotUnitVectorError,
    PureState,
    TraceNotOneError,
    ValidationError,
    haar_unitary,
    probe_pure_states,
    pure_state,
    random_density,
    random_pure,
    random_symmetry,
    sqrt_psd,
    strength,
    subspace_intersection_dim,
    support,
    symmetry_op,
    validate_density,
    validate_effect,
)
from qcompat.states import DEFAULT_EPS_MEM, _pure_density, child_rng
from qcompat.strength import _strengths

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        d = validate_density(np.eye(3) / 3)
        assert d.numerical_rank == 3
        assert d.dim == 3
        np.testing.assert_allclose(d.eigenvalues, [1 / 3] * 3)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(NotHermitianError):
            validate_density(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSDError):
            validate_density(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(TraceNotOneError):
            validate_density(np.eye(2, dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.ones((2, 3)))

    def test_eigenvalues_sorted_descending(self):
        d = validate_density(np.diag([0.1, 0.6, 0.3]).astype(complex))
        assert list(d.eigenvalues) == sorted(d.eigenvalues, reverse=True)

    @given(dim=dims, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_random_density_valid(self, dim, seed):
        for rank in (1, dim):
            d = random_density(dim, rank, seed=seed)
            assert d.numerical_rank == rank
            assert abs(np.trace(d.matrix) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(d.matrix)[0] > -1e-12

    def test_random_density_rank_guard(self):
        with pytest.raises(InvalidRankError):
            random_density(3, 4, seed=0)
        with pytest.raises(InvalidRankError):
            random_density(3, 0, seed=0)


class TestValidateEffect:
    def test_identity_is_effect(self):
        e = validate_effect(np.eye(4, dtype=complex))
        assert e.numerical_rank == 4

    def test_rejects_above_one(self):
        with pytest.raises(NotAnEffectError):
            validate_effect(np.diag([1.5, 0.0]).astype(complex))

    def test_density_is_effect(self):
        validate_effect(np.diag([0.7, 0.3]).astype(complex))


class TestPureDensity:
    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_closed_form_spectral_data_of_every_probe(self, d):
        for _, p in probe_pure_states(d):
            op = _pure_density(p)
            vecs = op.eigenvectors
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(d), atol=1e-14)
            phase = np.vdot(p.vector, vecs[:, 0])
            assert abs(abs(phase) - 1.0) <= 1e-14
            np.testing.assert_allclose(vecs[:, 0], phase * p.vector, atol=1e-14)
            np.testing.assert_allclose((vecs * op.eigenvalues) @ vecs.conj().T, p.projection, atol=1e-14)
            assert op.eigenvalues.tolist() == [1.0] + [0.0] * (d - 1)
            assert op.numerical_rank == 1
            assert op.matrix.tobytes() == validate_density(p.projection).matrix.tobytes()


class TestRandomDensity:
    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_drawn_spectral_data(self, d):
        # the returned eigensystem is the drawn one, and a fresh eigh agrees
        for rank in sorted({1, d // 2, d}):
            op = random_density(d, rank, seed=100 * d + rank)
            v = op.eigenvectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-13)
            np.testing.assert_allclose((v * op.eigenvalues) @ v.conj().T, op.matrix, atol=1e-13)
            fresh = validate_density(op.matrix)
            np.testing.assert_allclose(op.eigenvalues, fresh.eigenvalues, atol=1e-13)
            assert op.numerical_rank == fresh.numerical_rank == rank
            assert op.eigenvalues[rank:].tolist() == [0.0] * (d - rank)


class TestNonFiniteInput:
    """Non-finite entries are rejected before any arithmetic, so numpy never warns."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_matrix_rejected(self, bad, where):
        m = np.eye(3, dtype=complex) / 3
        m[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError):
                validate_density(m)
            with pytest.raises(NotHermitianError):
                validate_effect(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_symmetry_rejected(self, bad):
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitaryError):
                symmetry_op(u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_vector_rejected(self, bad, normalize):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitVectorError):
                pure_state(np.array([1.0, bad, 0.0]), normalize=normalize)


class TestPureState:
    def test_requires_unit_norm(self):
        with pytest.raises(NotUnitVectorError):
            pure_state(np.array([1.0, 1.0], dtype=complex))

    def test_normalize_flag(self):
        p = pure_state(np.array([1.0, 1.0], dtype=complex), normalize=True)
        assert abs(np.linalg.norm(p.vector) - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(NotUnitVectorError):
            pure_state(np.zeros(3), normalize=True)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "vector", [np.eye(2) / np.sqrt(2), np.ones((1, 1)), np.array(1.0)], ids=["matrix", "1x1", "scalar"]
    )
    def test_rejects_input_that_is_not_1d(self, vector, normalize):
        with pytest.raises(DimensionMismatchError):
            pure_state(vector, normalize=normalize)

    def test_projection_idempotent(self):
        p = random_pure(4, seed=3)
        np.testing.assert_allclose(p.projection @ p.projection, p.projection, atol=1e-12)

    def test_stores_only_its_vector(self):
        assert [f.name for f in dataclasses.fields(PureState)] == ["vector"]

    def test_copies_a_matrix_column(self):
        vecs = random_density(8, 3, seed=4).eigenvectors
        p = pure_state(vecs[:, 0])
        assert not np.shares_memory(p.vector, vecs)
        np.testing.assert_array_equal(p.vector, vecs[:, 0])


class TestSymmetryOp:
    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            symmetry_op(np.ones((2, 2)))

    @given(dim=st.integers(2, 6), seed=seeds, anti=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_random_symmetry_unitary(self, dim, seed, anti):
        s = random_symmetry(dim, antiunitary=anti, seed=seed)
        np.testing.assert_allclose(s.u.conj().T @ s.u, np.eye(dim), atol=1e-10)
        assert s.antiunitary == anti


class TestSupportAndRange:
    def test_support_dimension(self):
        d = validate_density(np.diag([0.5, 0.5, 0.0]).astype(complex))
        assert support(d).shape == (3, 2)

    def test_range_membership_inside(self):
        # strength's ray test: kernel weight at most the membership cut
        d = validate_density(np.diag([0.5, 0.5, 0.0]).astype(complex))
        v = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)
        assert strength(d, pure_state(v)).in_range

    def test_range_membership_outside(self):
        d = validate_density(np.diag([0.5, 0.5, 0.0]).astype(complex))
        v = np.array([0.0, 0.0, 1.0], dtype=complex)
        assert not strength(d, pure_state(v)).in_range

    @pytest.mark.parametrize("rank", [1, 5, 8])
    def test_stacked_kernel_weights_match_each_ray(self, rank):
        # reference: a unit ray's kernel weight is one minus its support weight;
        # half the rays are projected into the support first
        d = random_density(8, rank, seed=rank)
        s = support(d)
        rays = [random_pure(8, seed=k) for k in range(6)]
        rays[:3] = [pure_state(s @ (s.conj().T @ p.vector), normalize=True) for p in rays[:3]]
        in_range = _strengths(d, np.stack([p.vector for p in rays], axis=1))[1]
        for flag, p in zip(in_range, rays):
            inside = np.linalg.norm(s.conj().T @ p.vector) ** 2
            assert flag == strength(d, p).in_range == (1.0 - inside <= DEFAULT_EPS_MEM)
        assert in_range[:3].all()

    def test_sqrt_psd_squares_back(self):
        d = random_density(4, 3, seed=9)
        r = sqrt_psd(d)
        np.testing.assert_allclose(r @ r, d.matrix, atol=1e-12)


class TestSubspaceIntersection:
    def test_disjoint(self):
        e = np.eye(4)
        assert subspace_intersection_dim(e[:, :2], e[:, 2:]) == 0

    def test_nested(self):
        e = np.eye(4)
        assert subspace_intersection_dim(e[:, :3], e[:, :2]) == 2

    def test_generic_overlap(self):
        # two 3-dim subspaces of a 4-dim space meet in >= 2 dimensions
        u0 = haar_unitary(4, seed=1)
        u1 = haar_unitary(4, seed=2)
        assert subspace_intersection_dim(u0[:, :3], u1[:, :3]) == 2

    @pytest.mark.parametrize("sin_sq,shared", [(1e-14, 2), (1e-12, 1), (1e-2, 1)])
    def test_counts_principal_angles_under_the_membership_cut(self, sin_sq, shared):
        # the planes span(e0, e1) and span(e0, e1 tilted toward e2) share e0 at
        # angle 0; the tilted direction counts iff sin^2 <= DEFAULT_EPS_MEM = 1e-13
        e = np.eye(3)
        tilted = np.hstack([e[:, :1], np.sqrt(1.0 - sin_sq) * e[:, 1:2] + np.sqrt(sin_sq) * e[:, 2:]])
        assert subspace_intersection_dim(e[:, :2], tilted) == shared

    def test_ambient_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            subspace_intersection_dim(np.eye(4)[:, :2], np.eye(3)[:, :2])

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_self_intersection_is_full(self, seed):
        d = random_density(5, 3, seed=seed)
        s = support(d)
        assert subspace_intersection_dim(s, s) == 3


@given(dim=st.integers(1, 8), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_haar_unitary_is_unitary(dim, seed):
    u = haar_unitary(dim, seed)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_generators_deterministic(seed):
    a = random_density(3, 2, seed=seed)
    b = random_density(3, 2, seed=seed)
    np.testing.assert_array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize(
    "draw,args",
    [(random_density, (3, 2)), (random_pure, (3,)), (random_symmetry, (3,))],
    ids=["random_density", "random_pure", "random_symmetry"],
)
def test_negative_seed_is_validation_error(draw, args):
    # as for child_rng, not numpy's bare ValueError
    with pytest.raises(ValidationError, match="seed"):
        draw(*args, seed=-1)


class TestChildRng:
    def test_seeds_past_63_bits_draw_their_own_stream(self):
        assert child_rng(2**63, 2, 0).random() != child_rng(0, 2, 0).random()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            child_rng(-1, 2, 0)
