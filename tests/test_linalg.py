import itertools
import math
import tracemalloc

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


def _oracle_stack(n: int, lead: tuple, seed: int) -> np.ndarray:
    """Random antisymmetric stack seeded with the members elimination finds hard.

    Member 0 is all-zero, member 1 has a vanishing first column, member 2
    is member 3 under an odd row/column permutation (so its Pfaffian has
    the opposite sign, reached through different reflections).
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(lead + (n, n))
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
    )
    def test_members_match_oracle_and_scalar_call(self, n, lead, seed):
        a = _oracle_stack(n, lead, seed)
        with np.errstate(divide="raise", invalid="raise"):
            pf = pfaffian(a)
        assert pf.shape == lead
        assert pf.dtype == float
        for idx in np.ndindex(lead):
            ref = pfaffian_combinatorial(a[idx])
            assert pf[idx] == pytest.approx(ref, rel=1e-9, abs=1e-12)
            # same operations per member
            assert pf[idx] == pytest.approx(pfaffian(a[idx]), rel=1e-13, abs=1e-15)
        flat = pf.reshape(-1)
        if n and flat.size >= 4:
            assert flat[0] == 0.0 and flat[1] == 0.0
            assert flat[2] == pytest.approx(-flat[3], rel=1e-12, abs=1e-15)

    def test_scalar_call_returns_python_scalar(self, rng):
        assert type(pfaffian(random_antisymmetric(4, rng))) is float
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
        # partial-count view, as in sample_suboptimal's chunks; scratch starts
        # as NaN, so a read of a stale entry would show.  _scratch_size is
        # exact: each stack writes every entry up to its size and none past it
        size = 12
        for n in (2, 4, 6, 8, 16):
            work_buf = np.empty(n * n * size)
            scratch = np.full(linalg._scratch_size(n, size) + 8, np.nan)
            for count, seed in ((size, 1), (size, 2), (5, 3)):
                a, ref = _combinatorial_stack(n, count, seed)
                work = work_buf[: n * n * count].reshape(n, n, count)
                work[...] = a.transpose(1, 2, 0)
                used = linalg._scratch_size(n, count)
                scratch[used:] = np.nan
                with np.errstate(divide="raise", invalid="raise"):
                    pf = linalg._eliminate(work, scratch, (count,))
                assert not np.isnan(scratch[:used]).any() and np.isnan(scratch[used:]).all()
                assert pf.shape == (count,)
                for i in range(count):
                    assert pf[i] == pytest.approx(ref[i], rel=1e-9, abs=1e-12)
                    assert pf[i] == pytest.approx(pfaffian(a[i]), rel=1e-13, abs=1e-15)
                assert pf[0] == 0.0 and pf[1] == 0.0

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 16])
    def test_lone_matrix_rounds_like_stack_member(self, n):
        # Every member runs the same arithmetic whatever the stack's size.
        # Members are M J M^T with one pair of J scaled by 1e-6, so their
        # Pfaffians cancel: a lone call summing in another order would miss
        # its stack member by far more than the tolerance.
        scales = np.ones(n // 2)
        scales[-1] = 1e-6
        j = np.kron(np.diag(scales), [[0.0, 1.0], [-1.0, 0.0]])
        for count in (1, 2, 3, 40):
            rng = np.random.default_rng(100 * n + count)
            m = rng.standard_normal((count, n, n))
            a = m @ j @ np.swapaxes(m, -1, -2)
            pf = pfaffian(a)
            for i in range(count):
                assert pf[i] == pytest.approx(pfaffian(a[i]), rel=1e-13)

    def test_eliminate_allocates_little_beyond_its_buffers(self):
        # with work and scratch given, a step allocates a few vectors over
        # the stack, not gathers of the block
        n, count = 8, 1536
        a = _oracle_stack(n, (count,), 7).transpose(1, 2, 0)
        work, scratch = np.empty_like(a), np.empty(linalg._scratch_size(n, count))
        work[...] = a
        linalg._eliminate(work, scratch, (count,))
        work[...] = a
        tracemalloc.start()
        try:
            linalg._eliminate(work, scratch, (count,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 8 * count


class TestHouseholderEdges:
    """Columns that a reflection handles specially, and sizes beyond the oracle's."""

    def test_column_already_on_first_axis(self, rng):
        # x = x_0 e_1: the trailing block is left as it is, and
        # Pf(A) = A[0, 1] Pf(A[2:, 2:])
        a = random_antisymmetric(8, rng)
        a[2:, 0] = a[0, 2:] = 0.0
        with np.errstate(divide="raise", invalid="raise"):
            pf, rest = pfaffian(a), pfaffian(a[2:, 2:])
        assert pf == pytest.approx(a[0, 1] * rest, rel=1e-13)
        assert pf == pytest.approx(pfaffian_combinatorial(a), rel=1e-10)

    def test_zero_first_entry_with_nonzero_tail(self, rng):
        # x_0 = +-0: the sign s is x_0's sign bit and the reflection is still exact
        for n, x0 in itertools.product((4, 6, 8), (0.0, -0.0)):
            a = random_antisymmetric(n, rng)
            a[1, 0], a[0, 1] = x0, -x0
            with np.errstate(divide="raise", invalid="raise"):
                pf = pfaffian(a)
            assert pf == pytest.approx(pfaffian_combinatorial(a), rel=1e-10)

    @pytest.mark.parametrize("n", [32, 64])
    def test_orthogonal_congruence(self, rng, n):
        # Pf(Q A Q^T) = det(Q) Pf(A), far above the combinatorial oracle's reach
        a = random_antisymmetric(n, rng)
        q = random_orthogonal(n, rng)
        det = round(np.linalg.det(q))
        with np.errstate(divide="raise", invalid="raise"):
            lhs, rhs = pfaffian(q @ a @ q.T), pfaffian(a)
        assert abs(det) == 1
        assert lhs == pytest.approx(det * rhs, rel=1e-10)

    def test_entries_up_to_the_limit(self, rng):
        # |x| near 1e100: |x|^2 and den = |x| (|x| + |x_0|) stay finite
        upper = (-9e99, -5e99, -3e99, 0.7, 0.2, 0.9)
        a = np.zeros((4, 4))
        a[np.triu_indices(4, 1)] = upper
        a -= a.T
        a01, a02, a03, a12, a13, a23 = upper
        small = random_antisymmetric(4, rng)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            pf = pfaffian(np.stack([small, a]))
        assert pf[1] == pytest.approx(a01 * a23 - a02 * a13 + a03 * a12, rel=1e-13)
        assert pf[0] == pytest.approx(pfaffian_combinatorial(small), rel=1e-12)

    def test_tiny_first_column_keeps_its_pfaffian(self):
        # the trailing 4 x 4 Pfaffian is written out, so a column whose
        # entries lie below 1e-154 is never reflected and its norm never
        # underflows (a reflection gave 0.0 here)
        a = np.zeros((4, 4))
        a[0, 1:], a[1, 2:], a[2, 3] = (1e-270, 2e-270, 3e-270), (1e70, 2e70), 3e70
        a -= a.T
        with np.errstate(all="raise"):
            assert pfaffian(a) == pytest.approx(2e-200, rel=1e-12)

    @pytest.mark.parametrize("big", [1e100, 1e154, 1e200])
    def test_entries_past_the_limit_rejected(self, rng, big):
        # above it a column norm or den can overflow: NaN, or a finite wrong Pf
        a = np.stack([random_antisymmetric(4, rng) for _ in range(2)])
        a[1, 0, 1], a[1, 1, 0] = big, -big
        with pytest.raises(ValidationError, match="an entry of 1e100 or more"):
            pfaffian(a)

    def test_square_matches_slogdet(self, rng):
        a = random_antisymmetric(64, rng)
        with np.errstate(divide="raise", invalid="raise"):
            pf = pfaffian(a)
        sign, logdet = np.linalg.slogdet(a)
        assert sign == 1.0
        assert 2 * math.log(abs(pf)) == pytest.approx(logdet, abs=1e-10)


def _combinatorial_stack(n: int, count: int, seed: int) -> tuple[np.ndarray, list[float]]:
    """A real `_oracle_stack` whose last member has entries in {-1, 0, 1}, and its Pfaffians.

    The last member's columns repeat magnitudes and may start with a zero
    (x_0 = 0), which the reflection's phase must survive.  Up to n = 8 the
    Pfaffians are `pfaffian_combinatorial`'s; above, each member is
    P (B + C) P^T for a random permutation P and two such n/2 members B
    and C in direct sum, whose Pfaffian is det(P) Pf(B) Pf(C).
    """
    if n <= 8:
        a = _oracle_stack(n, (count,), seed)
        a[-1] = np.sign(a[-1])
        return a, [pfaffian_combinatorial(member) for member in a]
    h = n // 2
    b, pb = _combinatorial_stack(h, count, seed)
    c, pc = _combinatorial_stack(h, count, seed + 1)
    a = np.zeros((count, n, n))
    a[:, :h, :h], a[:, h:, h:] = b, c
    perm = np.random.default_rng(seed).permutation(n)
    sign = round(np.linalg.det(np.eye(n)[perm]))
    return a[:, perm][:, :, perm], [sign * x * y for x, y in zip(pb, pc)]


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

    def test_complex_input_rejected(self, rng):
        # a state is its real G: complex input is refused, even with a zero
        # imaginary part
        a = np.stack([random_antisymmetric(4, rng) for _ in range(3)])
        for imag in (0.0, 1e-3):
            z = a + 1j * imag * a
            for matrix in (z[0], z):
                with pytest.raises(ValidationError, match="real input"):
                    pfaffian(matrix)

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
        # svd takes real matrices, like every other entry point
        a = rng.standard_normal((6, 6))
        u, s, vh = svd(a)
        np.testing.assert_allclose(u @ np.diag(s) @ vh, a, atol=1e-10)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(vh @ vh.T, np.eye(6), atol=1e-10)
        assert np.all(np.diff(s) <= 0)
        with pytest.raises(ValidationError, match="matrix is not real"):
            svd(a + 1j * a)

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
