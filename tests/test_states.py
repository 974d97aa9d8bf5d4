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
    apply_symmetry,
    effects_equal_by_strength,
    haar_unitary,
    pure_state,
    random_density,
    random_pure,
    random_symmetry,
    rank_via_compatibility,
    strength,
    subspace_intersection_dim,
    support,
    symmetry_op,
    validate_density,
    validate_effect,
)
from qcompat.states import DEFAULT_EPS_MEM, DEFAULT_EPS_RANK, SpectralOperator, _pure_density, child_rng
from qcompat.strength import NEAR_BOUNDARY_SQ, _strengths
from qcompat.symmetry import _mixed_state, _probe_family

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

    @pytest.mark.parametrize("d", [2, 5, 64])
    def test_eigensystem_is_eigh_reversed_and_c_contiguous(self, d):
        # later products round in the eigenvectors' layout, C order on every
        # route; the maximally mixed state's equal eigenvalues keep eigh's
        # columns reversed too. Rank >= 2, since a rank-one input skips eigh
        for m in (random_density(d, max(2, d // 2), seed=d).matrix, np.eye(d, dtype=complex) / d):
            op = validate_density(m)
            w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
            assert op.eigenvalues.tobytes() == w[::-1].tobytes()
            assert op.leading.tobytes() == v[:, ::-1].tobytes()
            assert op.leading.flags.c_contiguous

    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_near_rank_one_inputs(self, d, monkeypatch):
        # an exact v v* with the wrong trace or above 1 is rejected without
        # eigh; a second eigenvalue of +-1e-11 or 1e-9 lies far above the
        # rank-one cut, so eigh runs and decides
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(d) or eigh(h))
        u = haar_unitary(d, seed=d)
        vv, ww = (np.outer(u[:, k], u[:, k].conj()) for k in (0, 1))
        with pytest.raises(TraceNotOneError):
            validate_density(2.0 * vv)
        with pytest.raises(NotAnEffectError):
            validate_effect((1.0 + 1e-9) * vv)
        assert calls == []
        with pytest.raises(NotPSDError):
            validate_density((vv - 1e-11 * ww) / (1.0 - 1e-11))
        assert len(calls) == 1
        for second, rank in ((1e-11, 1), (1e-9, 2)):
            op = validate_density((vv + second * ww) / (1.0 + second))
            assert op.leading.shape == (d, d)
            np.testing.assert_allclose(op.eigenvalues[1], second / (1.0 + second), rtol=1e-3)
            assert op.numerical_rank == rank
        assert len(calls) == 3

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
        with pytest.raises(InvalidRankError):
            random_density(3, -1, seed=0)


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
        for ray in _probe_family(d)[1]:
            p = pure_state(ray)
            op = _pure_density(p)
            vecs = op.leading
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(1), atol=1e-14)
            np.testing.assert_allclose((vecs * op.eigenvalues[:1]) @ vecs.conj().T, p.projection, atol=1e-14)
            assert op.eigenvalues.tolist() == [1.0] + [0.0] * (d - 1)
            assert op.numerical_rank == 1
            assert op.matrix.tobytes() == validate_density(p.projection).matrix.tobytes()

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_matrix_is_the_outer_product_built_on_first_read(self, d):
        # np.outer, not a generic (V w) V*, which differs from it in the last bits
        rng = child_rng(d, 72)
        for ray in [*_probe_family(d)[1], *(random_pure(d, seed=rng).vector for _ in range(20))]:
            p = pure_state(ray)
            op = _pure_density(p)
            assert op.dim == d
            assert "matrix" not in vars(op)
            assert op.matrix.tobytes() == np.outer(p.vector, p.vector.conj()).tobytes()
            assert vars(op)["matrix"] is op.matrix  # built once

    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_stores_only_the_vector(self, d):
        # one stored column, the state's own bytes
        for ray in [*_probe_family(d)[1], random_pure(d, seed=d).vector]:
            p = pure_state(ray)
            op = _pure_density(p)
            assert op.leading.shape == (d, 1)
            assert op.leading[:, 0].tobytes() == p.vector.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_kernel_readers_agree_with_the_eigh_route(self, d, monkeypatch):
        # every rank-one route (the closed form, and the validation of the
        # projection and of the effect 0.3 v v*) stores one column and the
        # spectrum (lam, 0, ..., 0), runs no eigh, and its residual off that
        # one column answers every kernel question as eigh's full basis does. A
        # validated route's values get 2e-15 against eigh, whose own top
        # eigenvalue is 1 ulp off at d = 64, and 1e-15 against the closed form
        eigh = np.linalg.eigh

        def refuse(*args, **kwargs):
            raise AssertionError("eigh ran on a rank-one input")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rng = child_rng(d, 71)
        rays = [*_probe_family(d)[1], *(random_pure(d, seed=rng).vector for _ in range(20))]
        probes = np.array(rays).T
        for ray in rays:
            p = pure_state(ray)
            cols = np.hstack([p.vector[:, None], 1j * p.vector[:, None], probes])
            closed = _pure_density(p)
            validated = validate_density(p.projection)
            np.testing.assert_allclose(_strengths(validated, cols)[0], _strengths(closed, cols)[0], rtol=0, atol=1e-15)
            for m, routes in (
                (p.projection, ((closed, 1e-15), (validated, 2e-15))),
                (0.3 * p.projection, ((validate_effect(0.3 * p.projection), 2e-15),)),
            ):
                w, v = eigh((m + m.conj().T) / 2.0)
                ref = SpectralOperator(m, w[::-1].copy(), v[:, ::-1].copy())
                assert routes[-1][0].matrix.tobytes() == m.tobytes()
                for op, atol in routes:
                    assert op.leading.shape == (d, 1)
                    assert op.eigenvalues[1:].tolist() == [0.0] * (d - 1)
                    assert abs(op.eigenvalues[0] - ref.eigenvalues[0]) <= 1e-15
                    assert op.numerical_rank == 1
                    got, want = _strengths(op, cols), _strengths(ref, cols)
                    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=atol)
                    assert got[1].tolist() == want[1].tolist()
                    assert got[2].tolist() == want[2].tolist()
                    assert got[1][:2].all()
                    assert rank_via_compatibility(op) == 1
                    assert effects_equal_by_strength(op, ref)


class TestRandomDensity:
    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_drawn_spectral_data(self, d):
        # the returned eigensystem is the drawn one, and a fresh eigh agrees
        for rank in sorted({1, d // 2, d}):
            op = random_density(d, rank, seed=100 * d + rank)
            v = op.leading
            np.testing.assert_allclose(v.conj().T @ v, np.eye(rank), atol=1e-13)
            np.testing.assert_allclose((v * op.eigenvalues[:rank]) @ v.conj().T, op.matrix, atol=1e-13)
            fresh = validate_density(op.matrix)
            np.testing.assert_allclose(op.eigenvalues, fresh.eigenvalues, atol=1e-13)
            assert op.numerical_rank == fresh.numerical_rank == rank
            assert op.eigenvalues[rank:].tolist() == [0.0] * (d - rank)

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 64])
    def test_same_draw_as_the_full_haar_unitary(self, d):
        # the stored columns are the first ones of the Haar unitary the same
        # generator draws, the matrix is the full-basis formula's, bit for bit,
        # and the generator is left where that unitary and spectrum leave it
        for rank in sorted({1, d // 2, d} - {0}):
            g, twin = np.random.default_rng(10 * d + rank), np.random.default_rng(10 * d + rank)
            op = random_density(d, rank, seed=g)
            v = haar_unitary(d, twin)[:, :rank]
            lam = np.sort((twin.dirichlet(np.ones(rank)) + 0.05) / (1.0 + 0.05 * rank))[::-1]
            lam = lam / lam.sum()
            m = (v * lam) @ v.conj().T
            assert op.leading.shape == (d, rank)
            assert op.leading.tobytes() == v.tobytes()
            assert op.matrix.tobytes() == ((m + m.conj().T) / 2.0).tobytes()
            assert op.eigenvalues.tobytes() == np.concatenate([lam, np.zeros(d - rank)]).tobytes()
            assert g.standard_normal(4).tobytes() == twin.standard_normal(4).tobytes()


class TestEigenvectorLayout:
    """Every constructor stores ``leading`` C-contiguous.

    Products such as `strength`'s round by the strides of ``leading``, so
    one layout on every route keeps result bytes from depending on which
    constructor built an operator.
    """

    @pytest.mark.parametrize("d", [3, 64])
    def test_every_constructor(self, d):
        rho = random_density(d, 2, seed=d)
        pure = _pure_density(random_pure(d, seed=d))
        uni, anti = random_symmetry(d, seed=d), random_symmetry(d, antiunitary=True, seed=d)
        ops = {
            "validate_density": validate_density(rho.matrix),
            "validate_effect": validate_effect(rho.matrix),
            "random_density": rho,
            "_pure_density": pure,
            "validate_density of a pure state": validate_density(pure.matrix),
            "apply_symmetry": apply_symmetry(uni, rho),
            "apply_symmetry antiunitary": apply_symmetry(anti, rho),
            "apply_symmetry of a pure state": apply_symmetry(anti, pure),
            "apply_symmetry of a validated state": apply_symmetry(uni, validate_density(rho.matrix)),
            "_mixed_state": _mixed_state(d, 0, 1),
        }
        for name, op in ops.items():
            assert op.leading.flags.c_contiguous, name


class TestNumericalRank:
    """The rank is not a field: every construction route reads it from the cached spectrum."""

    @staticmethod
    def _routes():
        yield validate_density(random_density(6, 4, seed=1).matrix)
        yield validate_effect(np.diag([1.0, 0.5, 1e-12, 0.0]).astype(complex))
        yield validate_effect(np.zeros((3, 3), dtype=complex))
        yield random_density(8, 3, seed=2)
        yield _pure_density(random_pure(5, seed=3))
        # the d = 64 noisy pure state of test_symmetry: eigenvalues in [-1e-12, 0)
        rng = np.random.default_rng(7)
        noise = rng.standard_normal((64, 64)) * 1e-14
        noise = (noise + noise.T) / 2.0
        m = random_pure(64, seed=rng).projection + noise - np.trace(noise) / 64 * np.eye(64)
        rho = validate_density(m)
        assert -1e-12 <= rho.eigenvalues[-1] < 0.0
        yield apply_symmetry(random_symmetry(64, antiunitary=False, seed=21), rho)

    def test_read_from_the_spectrum_on_every_route(self):
        assert [f.name for f in dataclasses.fields(SpectralOperator)] == ["source", "eigenvalues", "leading"]
        ranks = []
        for op in self._routes():
            w = op.eigenvalues
            assert "numerical_rank" not in vars(op)
            assert op.numerical_rank == (int(np.count_nonzero(w > DEFAULT_EPS_RANK * w[0])) if w[0] > 0.0 else 0)
            assert vars(op)["numerical_rank"] == op.numerical_rank  # cached after the first read
            ranks.append(op.numerical_rank)
        assert ranks == [4, 2, 0, 3, 1, 1]


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
        vecs = random_density(8, 3, seed=4).leading
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

    @pytest.mark.parametrize("d", [3, 64])
    def test_support_is_a_view_of_leading(self, d):
        # support hands out the stored columns themselves, never a copy, so on a
        # shared read-only `_mixed_state` entry a write raises instead of landing
        shared = _mixed_state(d, 0, 1)
        for op in (validate_density(random_density(d, 2, seed=d).matrix), shared):
            s = support(op)
            assert np.shares_memory(s, op.leading)
            assert s.shape == (d, op.numerical_rank)
        with pytest.raises(ValueError):
            support(shared)[0, 0] = 0.0

    def test_range_membership_inside(self):
        # strength's ray test: kernel weight at most the membership cut
        d = validate_density(np.diag([0.5, 0.5, 0.0]).astype(complex))
        v = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)
        assert strength(d, pure_state(v)).in_range

    def test_range_membership_outside(self):
        d = validate_density(np.diag([0.5, 0.5, 0.0]).astype(complex))
        v = np.array([0.0, 0.0, 1.0], dtype=complex)
        assert not strength(d, pure_state(v)).in_range

    @staticmethod
    def _residual_sq(op, rays):
        """Each column's kernel weight as its squared residual off the support columns."""
        s = support(op)
        return (np.abs(rays - s @ (s.conj().T @ rays)) ** 2).sum(axis=0)

    @staticmethod
    def _operators(d):
        """A drawn, an eigh-validated, a rank-one, a symmetry-image and a full-rank operator.

        The eigh-validated one carries 1e-12 of weight on a kernel ray, under
        the rank cut and far above the rank-one test, so eigh runs at every d.
        """
        r = max(1, d // 2)
        drawn = random_density(d, r, seed=d)
        u = haar_unitary(d, seed=d + 1)
        w = np.zeros(d)
        w[:r] = np.linspace(2.0, 1.0, r)
        w[r] = 1e-12 * w.sum()
        yield "drawn", drawn
        yield "eigh-validated", validate_density((u * (w / w.sum())) @ u.conj().T)
        yield "rank-one", validate_density(random_pure(d, seed=d + 2).projection)
        yield "apply_symmetry", apply_symmetry(random_symmetry(d, antiunitary=True, seed=d + 3), drawn)
        yield "full rank", random_density(d, d, seed=d + 4)

    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_stacked_kernel_weights_match_each_ray(self, d):
        # reference: the squared residual off the support. Each operator gets
        # three rays in its support, three anywhere, and, when it has a
        # kernel, rays with a planted kernel weight: 10^U(-16, -10), then
        # within 3% of the 1e-13 cut, then through the near-boundary band and
        # past it. Up to 1e-10 the residual agrees within 1e-19 with the weight
        # read from a full orthonormal basis (the support, then its complete-QR
        # kernel columns); past it, to a relative 1e-15 or so. A planted weight
        # at least 1% from the cut is decided by its side of the cut, and every
        # ray by its residual (one minus the support weight is off by up to
        # 1.6e-15 here and flips rays within 1% of the cut)
        rng = child_rng(d, 72)
        gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
        for name, op in self._operators(d):
            r = op.numerical_rank
            rays = np.hstack([support(op) @ gauss(r, 3), gauss(d, 3)])
            rays /= np.linalg.norm(rays, axis=0)
            planted = np.zeros(0)
            if r < d:
                planted = np.concatenate(
                    [
                        10.0 ** rng.uniform(-16.0, -10.0, 40),
                        DEFAULT_EPS_MEM * (1.0 + rng.uniform(-0.03, 0.03, 40)),
                        [1e-6, 5e-5, 2e-4, 1e-2],
                    ]
                )
                kernel_basis = np.linalg.qr(support(op), mode="complete")[0][:, r:]
                inside, kernel = support(op) @ gauss(r, planted.size), kernel_basis @ gauss(d - r, planted.size)
                tilted = np.sqrt(1.0 - planted) * inside / np.linalg.norm(inside, axis=0)
                tilted += np.sqrt(planted) * kernel / np.linalg.norm(kernel, axis=0)
                full_basis_weight = (np.abs(kernel_basis.conj().T @ tilted) ** 2).sum(axis=0)
                gap = np.abs(self._residual_sq(op, tilted) - full_basis_weight)
                assert gap[planted <= 1e-10].max() <= 1e-19, name
                rays = np.hstack([rays, tilted])
            _, in_range, near = _strengths(op, rays)
            assert in_range[:3].all(), name
            clear = np.abs(planted - DEFAULT_EPS_MEM) >= 0.01 * DEFAULT_EPS_MEM
            for weight, got_in, got_near in (
                (self._residual_sq(op, rays), in_range, near),
                (planted[clear], in_range[6:][clear], near[6:][clear]),
            ):
                assert got_in.tolist() == (weight <= DEFAULT_EPS_MEM).tolist(), name
                assert got_near.tolist() == ((weight > DEFAULT_EPS_MEM) & (weight <= NEAR_BOUNDARY_SQ)).tolist(), name
            for k in range(rays.shape[1]):
                one = strength(op, pure_state(rays[:, k]))
                assert (one.in_range, one.near_boundary) == (in_range[k], near[k]), name


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
