import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidistill import linalg, states
from fermidistill.linalg import ValidationError, pfaffian, svd

from helpers import (
    haar_frame,
    haar_frame_householder,
    pfaffian_combinatorial,
    polar_decompose,
    random_antisymmetric,
    random_orthogonal,
)


class TestPfaffian:
    def test_two_by_two_definition(self):
        assert pfaffian(np.array([[0.0, 3.5], [-3.5, 0.0]])) == pytest.approx(3.5)

    def test_canonical_symplectic_blocks(self):
        for m in range(1, 5):
            a = np.zeros((2 * m, 2 * m))
            for k in range(m):
                a[2 * k, 2 * k + 1] = 1.0
                a[2 * k + 1, 2 * k] = -1.0
            assert pfaffian(a) == pytest.approx(1.0)

    def test_squares_to_determinant(self, rng):
        a = random_antisymmetric(8, rng)
        det = np.linalg.det(a)  # LU-based oracle
        assert pfaffian(a) ** 2 == pytest.approx(det, rel=1e-10)

    def test_matches_combinatorial_oracle(self, rng):
        for dim in (2, 4, 6, 8, 10):
            a = random_antisymmetric(dim, rng)
            assert pfaffian(a) == pytest.approx(pfaffian_combinatorial(a), rel=1e-9)

    def test_complex_entries(self, rng):
        a = random_antisymmetric(6, rng, complex_entries=True)
        ref = pfaffian_combinatorial(a)
        assert pfaffian(a) == pytest.approx(ref, rel=1e-9)

    def test_half_symplectic_scaling(self):
        # Pf(1/2 [[0, I], [-I, 0]]) = (-1)^(k(k-1)/2) 2^(-k) for k x k blocks
        for k in (1, 2, 3, 4):
            a = np.zeros((2 * k, 2 * k))
            a[:k, k:] = np.eye(k) / 2
            a[k:, :k] = -np.eye(k) / 2
            expected = (-1.0) ** (k * (k - 1) // 2) * 2.0 ** (-k)
            assert pfaffian(a) == pytest.approx(expected, rel=1e-12)
            assert pfaffian_combinatorial(a) == pytest.approx(expected, rel=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            pfaffian(np.zeros((3, 3)))

    def test_symmetry_violation_rejected(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(ValidationError, match="antisymmetric"):
            pfaffian(a)

    def test_singular_matrix_gives_zero(self):
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0] = 1.0, -1.0
        assert pfaffian(a) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([2, 4, 6]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_congruence_transformation(self, dim, seed):
        # Pf(B^T A B) = det(B) Pf(A)
        rng = np.random.default_rng(seed)
        a = random_antisymmetric(dim, rng)
        b = rng.standard_normal((dim, dim))
        lhs = pfaffian(b.T @ a @ b)
        rhs = np.linalg.det(b) * pfaffian(a)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def _oracle_stack(n: int, lead: tuple, seed: int, complex_entries: bool) -> np.ndarray:
    """Random antisymmetric stack seeded with the members elimination finds hard.

    Member 0 is all-zero, member 1 has a vanishing first column, member 2
    is member 3 under an odd row/column permutation (so its Pfaffian has
    the opposite sign and a different pivot sequence).
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(lead + (n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal(lead + (n, n))
    a = (a - np.swapaxes(a, -1, -2)) / 2
    flat = a.reshape((math.prod(lead), n, n))
    if n and len(flat) >= 4:
        flat[0] = 0.0
        flat[1, :, 0] = flat[1, 0, :] = 0.0
        perm = np.arange(n)
        perm[[0, n - 1]] = perm[[n - 1, 0]]
        flat[2] = flat[3][np.ix_(perm, perm)]
    return flat.reshape(a.shape)


class TestPfaffianStack:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([0, 2, 4, 6, 8]),
        lead=st.one_of(
            st.tuples(st.integers(min_value=1, max_value=40)),
            st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=8)),
        ),
        seed=st.integers(min_value=0, max_value=2**31),
        complex_entries=st.booleans(),
    )
    def test_members_match_oracle_and_scalar_call(self, n, lead, seed, complex_entries):
        a = _oracle_stack(n, lead, seed, complex_entries)
        with np.errstate(divide="raise", invalid="raise"):
            pf = pfaffian(a)
        assert pf.shape == lead
        assert pf.dtype == (complex if complex_entries else float)
        for idx in np.ndindex(lead):
            ref = pfaffian_combinatorial(a[idx])
            assert pf[idx] == pytest.approx(ref, rel=1e-9, abs=1e-12)
            # same operations per member; complex products may round differently
            assert pf[idx] == pytest.approx(pfaffian(a[idx]), rel=1e-13, abs=1e-15)
        flat = pf.reshape(-1)
        if n and flat.size >= 4:
            assert flat[0] == 0.0 and flat[1] == 0.0
            assert flat[2] == pytest.approx(-flat[3], rel=1e-12, abs=1e-15)

    def test_scalar_call_returns_python_scalar(self, rng):
        assert type(pfaffian(random_antisymmetric(4, rng))) is float
        assert type(pfaffian(random_antisymmetric(4, rng, complex_entries=True))) is complex
        assert pfaffian(np.zeros((0, 0))) == 1.0
        np.testing.assert_array_equal(pfaffian(np.zeros((3, 0, 0))), np.ones(3))

    def test_non_antisymmetric_member_rejected(self, rng):
        a = np.stack([random_antisymmetric(6, rng) for _ in range(5)])
        a[3, 0, 2] += 1e-3
        with pytest.raises(ValidationError, match=r"stack member \(3,\) is not antisymmetric"):
            pfaffian(a)

    def test_tolerance_is_per_member(self, rng):
        # a roundoff-sized defect passes next to a tiny member, whose own
        # scale sets its tolerance
        big = random_antisymmetric(4, rng) * 1e6
        big[0, 1] += 1e-8
        tiny = random_antisymmetric(4, rng) * 1e-6
        pfaffian(np.stack([big, tiny]))
        tiny[0, 1] += 1e-15
        with pytest.raises(ValidationError, match=r"stack member \(1,\)"):
            pfaffian(np.stack([big, tiny]))

    def test_workspace_reused_across_stacks(self):
        # one work buffer and one scratch serve two full stacks and then a
        # partial-count view, as in sample_suboptimal's chunks; scratch
        # starts as NaN, so a read of a stale entry would show
        n, size = 6, 12
        work_buf = np.empty(n * n * size)
        scratch = np.empty(linalg._scratch_size(n, size))
        scratch[:] = np.nan
        for count, seed in ((size, 1), (size, 2), (5, 3)):
            a = _oracle_stack(n, (count,), seed, complex_entries=False)
            # integer entries in {-1, 0, 1}: pivot columns full of ties
            a[-1] = np.sign(a[-1])
            work = work_buf[: n * n * count].reshape(n, n, count)
            work[...] = a.transpose(1, 2, 0)
            with np.errstate(divide="raise", invalid="raise"):
                pf = linalg._eliminate(work, scratch, (count,))
            assert pf.shape == (count,)
            for i in range(count):
                assert pf[i] == pytest.approx(pfaffian_combinatorial(a[i]), rel=1e-9, abs=1e-12)
                assert pf[i] == pytest.approx(pfaffian(a[i]), rel=1e-13, abs=1e-15)
            assert pf[0] == 0.0 and pf[1] == 0.0


class TestMalformedInput:
    def test_one_error_type(self):
        assert states.ValidationError is linalg.ValidationError

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_rejected(self, rng, value):
        a = np.stack([random_antisymmetric(4, rng) for _ in range(3)])
        a[1, 0, 2], a[1, 2, 0] = value, -value
        with pytest.raises(ValidationError, match="non-finite"):
            pfaffian(a)
        with pytest.raises(ValidationError, match="non-finite"):
            pfaffian(a[1])

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 4, 2)])
    def test_shape_rejected(self, shape):
        with pytest.raises(ValidationError, match="square"):
            pfaffian(np.zeros(shape))


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(4))
        np.testing.assert_allclose(s, np.ones(4))

    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0])

    def test_reconstruction_and_unitarity(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u, s, vh = svd(a)
        np.testing.assert_allclose(u @ np.diag(s) @ vh, a, atol=1e-10)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(6), atol=1e-10)
        assert np.all(np.diff(s) <= 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPolar:
    def test_orthogonal_input(self, rng):
        y = random_orthogonal(4, rng)
        v, p = polar_decompose(y)
        np.testing.assert_allclose(v, y, atol=1e-10)
        np.testing.assert_allclose(p, np.eye(4), atol=1e-10)

    def test_zero_input(self):
        v, p = polar_decompose(np.zeros((3, 3)))
        assert np.all(v == 0) and np.all(p == 0)

    def test_full_rank_residual_and_isometry(self, rng):
        y = rng.standard_normal((4, 4))
        v, p = polar_decompose(y)
        np.testing.assert_allclose(v @ p, y, atol=1e-10)
        proj = v.conj().T @ v
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)

    def test_rank_deficient_kernel(self, rng):
        y = rng.standard_normal((4, 2))
        y = np.hstack([y, np.zeros((4, 2))])  # rank 2
        v, p = polar_decompose(y)
        np.testing.assert_allclose(v @ p, y, atol=1e-10)
        # v vanishes on the kernel of |y|
        assert np.linalg.matrix_rank(v, tol=1e-10) == 2

    def test_consistent_with_svd(self, rng):
        y = rng.standard_normal((5, 5))
        v, _ = polar_decompose(y)
        u, _, vh = svd(y)
        np.testing.assert_allclose(v, u @ vh, atol=1e-9)


class TestRandomOrthogonal:
    def test_dim_one(self):
        for seed in range(5):
            r = random_orthogonal(1, seed)
            assert abs(abs(r[0, 0]) - 1.0) < 1e-12

    def test_orthogonality(self, rng):
        r = random_orthogonal(7, rng)
        np.testing.assert_allclose(r.T @ r, np.eye(7), atol=1e-10)

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(random_orthogonal(5, 123), random_orthogonal(5, 123))

    def test_bad_dim(self):
        with pytest.raises(ValidationError):
            random_orthogonal(0, 1)

    def test_generator_draws_like_its_seed(self):
        np.testing.assert_array_equal(
            random_orthogonal(6, 31), random_orthogonal(6, np.random.default_rng(31))
        )

    def test_frame_is_leading_columns_of_square_draw(self, rng):
        g = rng.standard_normal((3, 8, 8))
        frames = haar_frame(g[:, :, :4])
        for gi, frame in zip(g, frames):
            np.testing.assert_allclose(frame, haar_frame(gi)[:, :4], atol=1e-12)
            np.testing.assert_allclose(frame.T @ frame, np.eye(4), atol=1e-12)


class TestHaarFrame:
    @pytest.mark.parametrize("shape", [(1, 1), (6, 6), (8, 4), (5, 1), (3, 8, 3), (4, 2, 6, 6)])
    def test_matches_householder_reference(self, rng, shape):
        g = rng.standard_normal(shape)
        frame = haar_frame(g)
        assert frame.shape == shape
        np.testing.assert_allclose(frame, haar_frame_householder(g), rtol=0, atol=1e-12)
        k = shape[-1]
        gram = np.swapaxes(frame, -1, -2) @ frame
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(k), gram.shape), atol=1e-13)

    def test_ill_conditioned_columns_stay_orthonormal(self, rng):
        # one column within 1e-8 of the span of the others: classical
        # Gram-Schmidt once loses orthogonality here, twice keeps it
        g = rng.standard_normal((8, 4))
        g[:, 3] = g[:, :3] @ rng.standard_normal(3) + 1e-8 * rng.standard_normal(8)
        frame = haar_frame(g)
        np.testing.assert_allclose(frame.T @ frame, np.eye(4), atol=1e-13)
        np.testing.assert_allclose(frame, haar_frame_householder(g), atol=1e-7)

    @pytest.mark.parametrize("column", [0, 2])
    def test_rank_deficient_column_rejected(self, rng, column):
        g = rng.standard_normal((6, 4))
        g[:, column] = 2.0 * g[:, column - 1] if column else 0.0
        with pytest.raises(ValidationError, match=f"matrix: column {column} has no component"):
            haar_frame(g)

    def test_rank_deficient_member_named(self, rng):
        g = rng.standard_normal((3, 2, 5, 3))
        g[2, 1, :, 2] = g[2, 1, :, 0] - g[2, 1, :, 1]
        with pytest.raises(ValidationError, match=r"stack member \(2, 1\): column 2"):
            haar_frame(g)

    def test_non_finite_column_rejected(self, rng):
        g = rng.standard_normal((5, 3))
        g[1, 1] = np.nan
        with pytest.raises(ValidationError, match="column 1"):
            haar_frame(g)
