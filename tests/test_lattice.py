import concurrent.futures
import csv
import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fermidistill import lattice
from fermidistill.lattice import (
    ConvergenceError,
    LatticeGeometry,
    ToeplitzKernel,
    fit_power_law,
    lattice_point,
    min_length,
    restricted_covariance,
    sweep,
    sweep_to_csv,
    top_singular_triplets,
)
from fermidistill.lattice import (
    _asked,
    _block_triplets,
    _interleave,
    _is_mirror,
    _odd_spectrum,
    _parity_blocks,
    _smooth_length,
)
from fermidistill.states import ValidationError, blocks, validate

from helpers import (
    circulant_column,
    dense_covariance,
    dense_lattice_point,
    dense_sine_toeplitz,
    full_length_product,
    independent_lattice_point,
    kernel_matrix,
    lanczos_two_pass,
    random_orthogonal,
    sine_kernel_gather,
    sine_toeplitz_rows,
)


def _block(L: int, r: int, i: int) -> ToeplitzKernel:
    """The parity block of spec i of `_parity_blocks(L, r)`, (p, q, rows, cols, s): the view
    on input sublattice q of the L x L kernel with offset r."""
    return ToeplitzKernel(L, r).block(_parity_blocks(L, r)[i][1])


class TestKernel:
    def test_offset_zero_entries(self):
        d = kernel_matrix(ToeplitzKernel(8, 0))
        assert d[0, 0] == 0.0
        assert d[0, 1] == pytest.approx(-(-1) / np.pi)  # t(-1) = sin(-pi/2)/(-pi)
        assert d[1, 0] == pytest.approx(1 / np.pi)
        assert d[0, 2] == 0.0  # even offsets vanish

    def test_inverse_distance_decay(self):
        d = kernel_matrix(ToeplitzKernel(64, 0))
        for sep in (1, 3, 5, 11):
            assert abs(d[0, sep]) == pytest.approx(1 / (np.pi * sep))

    def test_entry_magnitude_bound(self):
        for r in (0, 3, 10):
            assert np.abs(kernel_matrix(ToeplitzKernel(32, r))).max() <= 1 / np.pi + 1e-15

    def test_matches_entrywise_construction(self):
        for r in (0, 1, 7, -50, -(10**6 + 1)):
            np.testing.assert_allclose(
                kernel_matrix(ToeplitzKernel(50, r)), dense_sine_toeplitz(50, r), atol=1e-15
            )

    @staticmethod
    def _assert_same_bits(got, ref):
        # equal values and equal signs of zero
        assert got.dtype == ref.dtype == np.float64 and got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @staticmethod
    def _assert_gather_matches_definition(q):
        # sin(q pi/2)/(q pi) and t(0) = 0 in floating point: the rounded
        # q pi/2 leaves sin at even q within about eps q of zero, so within
        # eps/2 after the division
        eps = np.finfo(float).eps
        safe = np.where(q == 0, 1, q)
        ref = np.where(q == 0, 0.0, np.sin(safe * np.pi / 2) / (safe * np.pi))
        np.testing.assert_allclose(sine_kernel_gather(q), ref, rtol=4 * eps, atol=eps)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize(
        "r", [0, 1, 2, 3, 4, 5, -1, -2, -3, -4, -(10**5 + 10), -(2 * 10**6 + 3)]
    )
    def test_sine_kernel_matches_gather(self, stride, r):
        # the gather, which every dense kernel matrix here comes from
        # (`kernel_matrix`, `dense_covariance`), against the definition on
        # the progressions a kernel and its parity blocks hold: every residue
        # mod 4, negative offsets, q = 0 whenever r is a multiple of the stride
        self._assert_gather_matches_definition(stride * np.arange(-41, 41) + r)

    @pytest.mark.parametrize("lo,hi,m", [(0, 0, 2), (0, 5, 8), (-3, 4, 9), (-39, 41, 80)])
    @pytest.mark.parametrize("q0", [1, 3, 5, 7, -1, -3, -5, -7, -(10**5 + 11), -(2**63 - 81)])
    def test_odd_spectrum_matches_gather_column(self, q0, lo, hi, m):
        # the sign alternates from either residue mod 4, down to the int64 floor
        i = np.arange(lo, hi)
        col = np.zeros(m)
        col[i % m] = sine_kernel_gather(q0 + 2 * i)
        ref = np.fft.rfft(col)
        self._assert_same_bits(_odd_spectrum(q0, lo, hi, m).view(np.float64), ref.view(np.float64))

    @pytest.mark.parametrize("L", [1, 2, 3, 8, 9, 40, 41, 1000, 4097])
    @pytest.mark.parametrize("N", [0, 1, 2, 11])
    def test_spectra_match_gather_columns(self, L, N):
        # a kernel's one spectrum is the rfft of its circulant column from
        # the gather at 2h, decimated to its nonzero parity pi = (r + 1) mod 2
        # and aligned by pi: d[i] = c[2i - pi].  Its parity blocks hold none
        # of their own: each view shares it
        for r in (0, -(N + L)):
            kern = ToeplitzKernel(L, r)
            h, pi = _smooth_length(L), (r + 1) % 2
            col = circulant_column((L, L), 1, r, 2 * h)
            assert not col[1 - pi :: 2].any()
            ref = np.fft.rfft(np.roll(col[pi::2], pi))
            self._assert_same_bits(kern._fft.view(np.float64), ref.view(np.float64))
            for spec in _parity_blocks(L, r):
                assert kern.block(spec[1])._fft is kern._fft

    @pytest.mark.parametrize("L,N", [(2, 0), (5, 3), (8, 1), (13, 10)])
    def test_sine_kernel_matches_gather_2d(self, L, N):
        # the site-difference matrix of the dense route, zero diagonal included
        sites = np.concatenate([np.arange(-L, 0), np.arange(N, N + L)])
        self._assert_gather_matches_definition(sites[:, None] - sites[None, :])


class TestMatvec:
    def test_unit_vectors_give_columns(self):
        k = ToeplitzKernel(12, -5)
        d = kernel_matrix(k)
        for j in range(12):
            e = np.zeros(12)
            e[j] = 1.0
            np.testing.assert_allclose(k.matvec(e), d[:, j], atol=1e-14)

    def test_random_vectors_match_dense(self, rng):
        # quantified over 100+ random vectors across sizes up to 512
        for L, r, reps in ((64, -70, 40), (257, -258, 40), (512, -513, 40)):
            k = ToeplitzKernel(L, r)
            d = kernel_matrix(k)
            for _ in range(reps):
                x = rng.standard_normal(L)
                got = k.matvec(x)
                np.testing.assert_allclose(got, d @ x, atol=1e-10 * np.linalg.norm(x))

    def test_transpose_matches_dense(self, rng):
        k = ToeplitzKernel(48, -55)
        d = kernel_matrix(k)
        for _ in range(10):
            x = rng.standard_normal(48)
            np.testing.assert_allclose(k.rmatvec(x), d.T @ x, atol=1e-12)

    def test_products_match_out_of_place_spectra(self, rng):
        # the spectrum multiplied in place gives the bits of the plain
        # per-parity formula on the aligned layout: F[p::2, q::2] x is the
        # window from pi - (pi + q) // 2 of one length-h convolution, for a
        # view and inside the whole kernel, and each transpose is R F R
        def window(kern, q, x):
            h, pi = kern._fft_len, (kern.r + 1) % 2
            conv = np.fft.irfft(kern._fft * np.fft.rfft(x, h), h)
            return conv[pi - (pi + q) // 2 :][: (kern.L - (pi + q) % 2 + 1) // 2]

        def decimated(kern, x):
            y, pi = np.zeros(kern.L), (kern.r + 1) % 2
            for q in (0, 1):
                if x[q::2].any():
                    y[(pi + q) % 2 :: 2] = window(kern, q, x[q::2])
            return y

        for L, r in ((97, -98), (97, -110), (97, -111), (96, 0), (96, -97)):
            kern = ToeplitzKernel(L, r)
            for x in (rng.standard_normal(L), np.where(np.arange(L) % 2, 0.0, 1.0)):
                np.testing.assert_array_equal(kern.matvec(x), decimated(kern, x))
                np.testing.assert_array_equal(kern.rmatvec(x), decimated(kern, x[::-1])[::-1])
            for p, q, rows, cols, _ in _parity_blocks(L, r):
                block, mirror = kern.block(q), (L - 1 - p) % 2  # R maps sublattice p there
                x, y = rng.standard_normal(cols), rng.standard_normal(rows)
                np.testing.assert_array_equal(block.matvec(x), window(kern, q, x))
                np.testing.assert_array_equal(block.rmatvec(y), window(kern, mirror, y[::-1])[::-1])

    @pytest.mark.parametrize("L", [4097, 2**17 + 1])
    @pytest.mark.parametrize("N", [1, 2])
    def test_whole_kernel_matches_full_length_product(self, L, N, rng):
        # on one sublattice or both, both ways, against the full circulant at
        # _smooth_length(2L - 1) points; the rounding of either FFT product
        # grows with ||x|| and log2 of its length
        kern = ToeplitzKernel(L, -(N + L))
        scale = np.finfo(float).eps * np.log2(_smooth_length(2 * L - 1))
        for keep in (0, 1, None):
            x = rng.standard_normal(L)
            if keep is not None:
                x[1 - keep :: 2] = 0.0
            for transpose, got in ((False, kern.matvec(x)), (True, kern.rmatvec(x))):
                ref = full_length_product(L, kern.r, x, transpose)
                assert np.max(np.abs(got - ref)) <= scale * np.linalg.norm(x)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ToeplitzKernel(8, 0).matvec(np.zeros(9))

    @pytest.mark.parametrize("L", [31, 32, 33, 100])
    def test_various_sizes(self, L, rng):
        k = ToeplitzKernel(L, -(L + 1))
        d = kernel_matrix(k)
        x = rng.standard_normal(L)
        np.testing.assert_allclose(k.matvec(x), d @ x, atol=1e-11)


class TestSmoothLength:
    def test_matches_brute_force(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in range(1, 4097):
            m = max(n, 2)
            while not smooth(m):
                m += 1
            assert _smooth_length(n) == m, n

    @pytest.mark.parametrize(
        "n,m", [(8191, 8192), (9999, 10000), (199999, 200000), (2 * 10**6 - 1, 2 * 10**6)]
    )
    def test_embedding_lengths(self, n, m):
        assert _smooth_length(n) == m


class TestEmbeddingLengths:
    """Products against dense matrices on embeddings of every small length,
    odd ones and factors of 3 and 5 included."""

    @staticmethod
    def _check(kern, rng, length):
        d = kernel_matrix(kern)
        rows, cols = kern.shape
        assert kern._fft_len == length and len(kern._fft) == length // 2 + 1
        # inputs on both sublattices, and on each one alone
        for keep in (None, 0, 1):
            x, y = rng.standard_normal(cols), rng.standard_normal(rows)
            if keep is not None:
                x[1 - keep :: 2], y[1 - keep :: 2] = 0.0, 0.0
            np.testing.assert_allclose(kern.matvec(x), d @ x, rtol=0, atol=1e-13)
            np.testing.assert_allclose(kern.rmatvec(y), d.T @ y, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("L", range(2, 41))
    def test_full_kernel_and_parity_blocks(self, L, rng):
        # a parity block is a view that runs on its kernel's length h
        for r in (0, -(L + 1), -(L + 10)):
            kern = ToeplitzKernel(L, r)
            np.testing.assert_allclose(kernel_matrix(kern), dense_sine_toeplitz(L, r), atol=1e-15)
            self._check(kern, rng, _smooth_length(L))  # half of an even 2h >= 2L - 1
            for spec in _parity_blocks(L, r):
                block = kern.block(spec[1])
                assert block.shape == spec[2:4]
                self._check(block, rng, _smooth_length(L))

    @pytest.mark.parametrize("L", [1, 101, 1000])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 10, 11, 100])
    def test_whole_kernel_at_larger_lengths(self, L, N, rng):
        for r in (0, -(N + L)):
            self._check(ToeplitzKernel(L, r), rng, _smooth_length(L))


class TestTriplets:
    @pytest.mark.parametrize("L,N", [(64, 0), (128, 1), (128, 10), (200, 3), (512, 0), (512, 1)])
    def test_matches_dense_svd(self, L, N, monkeypatch):
        monkeypatch.setattr(lattice, "KRYLOV_SEED", 3)
        k = ToeplitzKernel(L, -(N + L))
        triplets, _ = top_singular_triplets(k, 4)
        dense_sv = np.linalg.svd(kernel_matrix(k), compute_uv=False)
        got = [t.sigma for t in triplets]
        np.testing.assert_allclose(got, dense_sv[:4], atol=1e-8)

    def test_residuals_and_norms(self, monkeypatch):
        monkeypatch.setattr(lattice, "KRYLOV_SEED", 1)
        k = ToeplitzKernel(96, -97)
        triplets, _ = top_singular_triplets(k, 3)
        for t in triplets:
            assert np.linalg.norm(t.u) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(t.v) == pytest.approx(1.0, abs=1e-10)
            resid = np.linalg.norm(k.matvec(t.v) - t.sigma * t.u)
            assert resid <= 1e-9

    def test_values_bounded_by_half(self):
        # covariance boundedness forces singular values <= 1/2
        for L, N in ((64, 0), (128, 5), (256, 50)):
            triplets, _ = top_singular_triplets(ToeplitzKernel(L, -(N + L)), 2)
            assert all(t.sigma <= 0.5 + 1e-10 for t in triplets)

    def test_deterministic_per_seed(self, monkeypatch):
        # the same call twice, from the same start, gives bit-identical output
        monkeypatch.setattr(lattice, "KRYLOV_SEED", 42)
        k = ToeplitzKernel(64, -65)
        a, ia = top_singular_triplets(k, 2)
        b, ib = top_singular_triplets(k, 2)
        assert ia == ib
        np.testing.assert_array_equal([t.sigma for t in a], [t.sigma for t in b])
        np.testing.assert_array_equal(a[0].u, b[0].u)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(lattice, "KRYLOV_TOL", 1e-14)
        monkeypatch.setattr(lattice, "MAX_STEPS", 6)
        with pytest.raises(ConvergenceError):
            top_singular_triplets(ToeplitzKernel(256, -257), 4)

    def test_stops_at_first_passing_step(self, monkeypatch):
        # a parity block of the cross kernel at L = 2000, N = 10 converges
        # long before its Krylov space is exhausted, so MAX_STEPS is what
        # binds; ju - 1 steps must not suffice, and ju must reproduce it
        block = _block(2000, -2010, 0)

        def solve():
            return _block_triplets(block, 2, np.random.default_rng(3))

        triplets, ju = solve()
        assert ju < min(block.shape)
        monkeypatch.setattr(lattice, "MAX_STEPS", ju - 1)
        with pytest.raises(ConvergenceError):
            solve()
        monkeypatch.setattr(lattice, "MAX_STEPS", ju)
        again, steps = solve()
        assert steps == ju
        # the bases start at the same rows whatever MAX_STEPS is, so the
        # same triplets bit for bit
        for a, b in zip(triplets, again):
            assert a.sigma == b.sigma
            np.testing.assert_array_equal(a.u, b.u)
            np.testing.assert_array_equal(a.v, b.v)

    @pytest.mark.parametrize(
        "L,N", [(3, 1), (65, 1), (2000, 1), (2000, 10), (5001, 1), (5001, 100)]
    )
    def test_matches_two_pass_reference(self, L, N, monkeypatch):
        # one Gram-Schmidt pass per step under the DGKS test, one basis per
        # half, against two passes at every step on one full-length basis.
        # The reference runs the operator of each solve _block_triplets
        # hands to _lanczos: J B for a square block, and for the rectangular
        # blocks of odd L with odd N [[0, B], [B^T, 0]] from the start
        # zero-padded on the u half.  At L = 3 one half has a single row, and
        # at L = 65 both halves are exhausted early
        calls = []
        solve = lattice._lanczos

        def recorded(ops, sizes, start, k):
            calls.append((ops, sizes, start, k, solve(ops, sizes, start, k)))
            return calls[-1][-1]

        monkeypatch.setattr(lattice, "_lanczos", recorded)
        kern = ToeplitzKernel(L, -(N + L))
        for spec in _parity_blocks(L, kern.r):
            block = kern.block(spec[1])
            k = min(2, *block.shape)  # as top_singular_triplets asks
            triplets, _ = _block_triplets(block, k, np.random.default_rng(L + N))
            assert len(triplets) == k
            if L < 100:
                dense = kernel_matrix(block)
                sv = np.linalg.svd(dense, compute_uv=False)
                np.testing.assert_allclose([t.sigma for t in triplets], sv[:k], rtol=0, atol=1e-12)
                for t in triplets:
                    resid = max(
                        np.linalg.norm(dense @ t.v - t.sigma * t.u),
                        np.linalg.norm(dense.T @ t.u - t.sigma * t.v),
                    )
                    assert resid <= 10 * lattice.KRYLOV_TOL * sv[0]
        for ops, sizes, start, k, (theta, _, steps) in calls:
            if len(ops) == 1:
                product = ops[0]
            else:
                (to_u, to_v), (cols, rows) = ops, sizes

                def product(y, to_u=to_u, to_v=to_v, rows=rows, cols=cols):
                    # every basis vector lives on one half exactly, and the
                    # other product is zero
                    out = np.zeros(rows + cols)
                    if y[rows:].any():
                        out[:rows] = to_u(y[rows:])
                    else:
                        out[rows:] = to_v(y[:rows])
                    return out

                start = np.concatenate((np.zeros(rows), start))
            ref_theta, _, ref_steps = lanczos_two_pass(product, start, k)
            assert steps == ref_steps
            # sorted: the rectangular operator's pairs +-sigma tie in |theta|
            np.testing.assert_allclose(np.sort(theta), np.sort(ref_theta), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("L,N", [(2000, 1), (2000, 10), (5001, 1), (5001, 10)])
    def test_one_pass_per_step_on_parity_blocks(self, L, N, monkeypatch):
        # one point per (L mod 2, N mod 2) class.  The three-term update
        # leaves w orthogonal to the basis up to rounding, so the DGKS repeat
        # never fires here; an update that subtracted a wrong vector would
        # still converge to the same triplets, repaired by repeated passes
        passes = []
        one_pass = lattice._gram_schmidt

        def counted(basis, w):
            passes.append(len(basis))
            one_pass(basis, w)

        monkeypatch.setattr(lattice, "_gram_schmidt", counted)
        _, steps = top_singular_triplets(ToeplitzKernel(L, -(N + L)), 2)
        assert len(passes) == steps

    @staticmethod
    def _symmetric(lam, rng):
        basis = random_orthogonal(len(lam), rng)
        return (basis * lam) @ basis.T

    def test_no_ghosts_past_an_isolated_value(self):
        # the isolated top value converges within a few steps; a basis that
        # lost orthogonality would then grow spurious copies of it (ghosts)
        # over the many steps the tight cluster below takes
        n, k = 300, 6
        lam = np.concatenate(([1.0], np.linspace(0.5, 0.5 + 1e-3, n - 1)))
        rng = np.random.default_rng(11)
        op = self._symmetric(lam, rng)
        theta, (x,), steps = lattice._lanczos([lambda y: op @ y], [n], rng.standard_normal(n), k)
        assert steps > 100
        assert np.all(np.diff(np.sort(theta)) > 1e-6)  # no value twice
        np.testing.assert_allclose(np.sort(theta), np.sort(lam)[-k:], rtol=0, atol=1e-9)
        np.testing.assert_allclose(x @ x.T, np.eye(k), rtol=0, atol=1e-12)

    def test_dgks_repeat_fires_at_exhaustion(self, monkeypatch):
        # asked for all n pairs, the solve runs to its n-th step, where the
        # basis spans the whole space and w is rounding noise inside it: one
        # pass cancels nearly all of w, so the DGKS test orders a second
        passes = []
        one_pass = lattice._gram_schmidt

        def counted(basis, w):
            passes.append(len(basis))
            one_pass(basis, w)

        monkeypatch.setattr(lattice, "_gram_schmidt", counted)
        n = 40
        lam = np.linspace(1.0, 2.0, n)
        rng = np.random.default_rng(12)
        op = self._symmetric(lam, rng)
        theta, (x,), steps = lattice._lanczos([lambda y: op @ y], [n], rng.standard_normal(n), n)
        assert steps == n
        assert passes.count(n) == 2  # the last step's pass ran twice
        np.testing.assert_allclose(np.sort(theta), lam, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x @ x.T, np.eye(n), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("L", [500, 1024, 5000])
    def test_exact_duplicates_recovered(self, L):
        # with L even and an odd offset the kernel decouples into two
        # identical parity sublattices, so every singular value has
        # multiplicity two; the shared block's triplets are placed on
        # both sublattices, which must yield the partner copy
        k = ToeplitzKernel(L, -(L + 1))
        triplets, _ = top_singular_triplets(k, 2)
        assert triplets[0].sigma == pytest.approx(triplets[1].sigma, abs=1e-9)
        # and the two vectors are genuinely orthogonal, not rediscoveries
        assert abs(triplets[0].v @ triplets[1].v) < 1e-8

    def test_tiny_kernel_exhaustion_exact(self):
        # L=4 exhausts the Krylov space in two steps; the exhaustion
        # paths must keep the trailing coupling to stay exact
        k = ToeplitzKernel(4, -5)
        triplets, _ = top_singular_triplets(k, 2)
        sv = np.linalg.svd(kernel_matrix(k), compute_uv=False)
        np.testing.assert_allclose([t.sigma for t in triplets], sv[:2], atol=1e-12)

    def test_bases_grow_past_initial_capacity(self, rng):
        # a flat spectrum keeps the top triplets unresolved until the Krylov
        # space is exhausted, far beyond the initial max(16, 2k' + 8) rows of
        # each half; the rectangular operator runs as [[0, B], [B^T, 0]] with
        # k' = 2k, and its basis vectors alternate between the halves
        rows, cols, k = 60, 40, 3
        q1, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
        q2, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
        op = (q1 * np.linspace(1.0, 0.9, cols)) @ q2.T
        block = SimpleNamespace(
            shape=(rows, cols), matvec=lambda x: op @ x, rmatvec=lambda y: op.T @ y
        )
        triplets, steps = _block_triplets(block, k, rng)
        assert steps > 2 * max(16, 2 * (2 * k) + 8) + 1  # each half grew
        u, sv, vt = np.linalg.svd(op)
        np.testing.assert_allclose([t.sigma for t in triplets], sv[:k], atol=1e-12)
        for i, t in enumerate(triplets):
            assert abs(t.u @ u[:, i]) == pytest.approx(1.0, abs=1e-9)
            assert abs(t.v @ vt[i]) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(op @ t.v - t.sigma * t.u) <= 1e-12


class TestParitySplitOracle:
    """The per-sublattice solve against dense linear algebra on the full kernel."""

    # L odd with N odd gives rectangular half blocks, L even with N even
    # two identical ones, N = 0 the adjacent blocks
    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(2, 200), N=st.integers(0, 50), pick=st.floats(0.0, 1.0))
    @example(L=2, N=0, pick=1.0)
    @example(L=3, N=1, pick=1.0)
    @example(L=199, N=1, pick=1.0)
    @example(L=199, N=0, pick=1.0)
    @example(L=200, N=50, pick=1.0)
    def test_matches_dense(self, L, N, pick):
        tol = lattice.KRYLOV_TOL
        kern = ToeplitzKernel(L, -(N + L))
        d = kernel_matrix(kern)
        rng = np.random.default_rng(1000 * L + N)

        covered = 0.0
        for spec in _parity_blocks(kern.L, kern.r):
            block = kern.block(spec[1])
            blk = kernel_matrix(block)
            p, q = spec[:2]
            np.testing.assert_array_equal(blk, d[p::2, q::2])
            covered += np.sum(blk**2)
            x = rng.standard_normal(block.shape[0])
            np.testing.assert_allclose(block.rmatvec(x), blk.T @ x, atol=1e-12)
            x = rng.standard_normal(block.shape[1])
            np.testing.assert_allclose(block.matvec(x), blk @ x, atol=1e-12)
        assert covered == pytest.approx(np.sum(d**2), rel=1e-12)  # a direct sum
        x = rng.standard_normal(L)
        np.testing.assert_allclose(kern.rmatvec(x), d.T @ x, atol=1e-12)

        sv = np.linalg.svd(d, compute_uv=False)
        # values below tol * sigma_1 lie under what the solve resolves
        rank = int(np.sum(sv > tol * sv[0]))
        k = 1 + int(pick * (rank - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "KRYLOV_SEED", L + N)
            triplets, _ = top_singular_triplets(kern, k)
        np.testing.assert_allclose([t.sigma for t in triplets], sv[:k], atol=1e-8)
        for t in triplets:
            resid = max(
                np.linalg.norm(d @ t.v - t.sigma * t.u), np.linalg.norm(d.T @ t.u - t.sigma * t.v)
            )
            assert resid <= 10 * tol * sv[0]
        u = np.column_stack([t.u for t in triplets])
        v = np.column_stack([t.v for t in triplets])
        np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-8)
        np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-8)

    @pytest.mark.parametrize("L,r,k,seed", [(36, -86, 14, 12), (17, -64, 12, 0)])
    def test_trailing_values_near_exhaustion_floor(self, L, r, k, seed, monkeypatch):
        # k is the count of dense sigma above 1e-12 sigma_1; the trailing
        # values sit near 1e-14, where an absolute exhaustion floor
        # stopped the solve short of k triplets
        kern = ToeplitzKernel(L, r)
        sv = np.linalg.svd(kernel_matrix(kern), compute_uv=False)
        assert k == np.sum(sv > 1e-12 * sv[0])
        monkeypatch.setattr(lattice, "KRYLOV_SEED", seed)
        triplets, _ = top_singular_triplets(kern, k)
        np.testing.assert_allclose([t.sigma for t in triplets], sv[:k], atol=1e-8 * sv[0])

    @settings(max_examples=100, deadline=None)
    @given(L=st.integers(2, 120), N=st.integers(0, 60))
    @example(L=2, N=0)
    @example(L=3, N=1)
    def test_blocks_are_hankel_symmetric_or_mirror_pair(self, L, N):
        # the Lanczos route's premise: J B is symmetric for a square block
        # B (J the index reversal); only odd L with odd N gives rectangular
        # blocks.  The second block mirrors the first iff N is odd: for even
        # L the two are then one persymmetric square, its own mirror
        first, second = _parity_blocks(L, -(N + L))
        a, b = (kernel_matrix(_block(L, -(N + L), i)) for i in (0, 1))
        assert _is_mirror(first, second) == bool(N % 2)
        if N % 2:
            np.testing.assert_array_equal(b, a.T[::-1, ::-1])
        if L % 2 and N % 2:
            assert a.shape[0] != a.shape[1]
        else:
            for blk in (a, b):
                hankel = blk[::-1]
                assert hankel.shape[0] == hankel.shape[1]
                np.testing.assert_array_equal(hankel, hankel.T)

    @pytest.mark.parametrize("L,N,k", [(3, 1, 2), (17, 3, 4), (199, 1, 6), (5001, 1, 2)])
    def test_mirror_block_solved_once(self, L, N, k, monkeypatch):
        # odd L with odd N: the second parity block is the first one
        # transposed and index-reversed, so only the first is solved, for
        # the ceil(k/2) triplets the top k can hold from it
        kern = ToeplitzKernel(L, -(N + L))
        first, second = _parity_blocks(L, kern.r)
        assert _is_mirror(first, second)
        if L < 1000:
            np.testing.assert_array_equal(
                kernel_matrix(kern.block(second[1])), kernel_matrix(kern.block(first[1])).T[::-1, ::-1]
            )
        rng = np.random.default_rng(5)
        _, one_solve = _block_triplets(kern.block(first[1]), min(-(-k // 2), *first[2:4]), rng)
        monkeypatch.setattr(lattice, "KRYLOV_SEED", 5)
        triplets, steps = top_singular_triplets(kern, k)
        assert steps == one_solve
        sigmas = [t.sigma for t in triplets]
        assert sigmas[0::2] == sigmas[1::2]  # bit-equal pairs
        if L < 1000:
            sv = np.linalg.svd(kernel_matrix(kern), compute_uv=False)
            np.testing.assert_allclose(sigmas, sv[:k], atol=1e-8)

    @pytest.mark.parametrize("L,N", [(64, 1), (200, 3), (2000, 1), (65, 1), (199, 3), (2001, 1)])
    def test_reused_triplets_equal_solved_up_to_joint_sign(self, L, N, monkeypatch):
        # N odd: the second block's triplets are the first's mirrored, not
        # solved.  For even L the block is shared, and the Hankel route's
        # u = sign(theta) R v makes the mirrored copy exactly sign(theta)
        # times the solved triplet; for odd L the mirrored copy matches a
        # direct solve of the second block up to one sign on both vectors
        k = 4
        kern = ToeplitzKernel(L, -(N + L))
        first, second = _parity_blocks(L, kern.r)
        monkeypatch.setattr(lattice, "KRYLOV_SEED", 7)
        triplets, _ = top_singular_triplets(kern, 2 * k)
        solved = [t for t in triplets if t.sublattices == first[:2]]
        reused = [t for t in triplets if t.sublattices == second[:2]]
        assert len(solved) == len(reused) == k
        (p, q), (p2, q2) = first[:2], second[:2]
        if L % 2 == 0:
            for a, b in zip(solved, reused):
                assert a.sigma == b.sigma
                sign = 1.0 if b.u[p2::2] @ a.u[p::2] > 0 else -1.0
                np.testing.assert_array_equal(b.u[p2::2], sign * a.u[p::2])
                np.testing.assert_array_equal(b.v[q2::2], sign * a.v[q::2])
        else:
            direct, _ = _block_triplets(kern.block(second[1]), k, np.random.default_rng(8))
            for a, b in zip(direct, reused):
                assert b.sigma == pytest.approx(a.sigma, rel=1e-12)
                sign = 1.0 if b.u[p2::2] @ a.u > 0 else -1.0
                np.testing.assert_allclose(b.u[p2::2], sign * a.u, rtol=0, atol=1e-8)
                np.testing.assert_allclose(b.v[q2::2], sign * a.v, rtol=0, atol=1e-8)

    def test_k_clamped_to_the_smaller_side(self):
        # the 1 x 2 block of (L, N) = (3, 1), asked for two triplets, has
        # one.  Unclamped, the odd-size tridiagonal's zero Ritz value passed
        # as a second triplet whenever rounding left it positive (seed 4)
        block = _block(3, -4, 1)
        assert block.shape == (1, 2)
        dense = kernel_matrix(block)
        for seed in range(10):
            triplets, _ = _block_triplets(block, 2, np.random.default_rng(seed))
            assert len(triplets) == 1
            t = triplets[0]
            assert t.sigma == pytest.approx(np.linalg.norm(dense), rel=1e-14)
            np.testing.assert_allclose(dense @ t.v, t.sigma * t.u, rtol=0, atol=1e-15)

    def test_k_above_rank_raises(self):
        # both 2 x 1 and 1 x 2 half blocks have rank one
        with pytest.raises(ConvergenceError):
            top_singular_triplets(ToeplitzKernel(3, -4), 3)


class TestResidualCheckCatches:
    """The check against the whole kernel catches a triplet assembled wrong
    from its parity block: each mutation is a monkeypatch of one step."""

    @staticmethod
    def _check_fails(L, N):
        with pytest.raises(ConvergenceError, match="residual .* exceeds tolerance"):
            top_singular_triplets(ToeplitzKernel(L, -(N + L)), 2)

    @pytest.mark.parametrize("L,N", [(64, 1), (64, 2), (65, 1), (65, 2), (2000, 11)])
    def test_wrong_block_offset(self, L, N, monkeypatch):
        # every solved block is the view of the kernel with offset r + 2
        block = ToeplitzKernel.block
        monkeypatch.setattr(
            ToeplitzKernel, "block", lambda kern, q: block(ToeplitzKernel(kern.L, kern.r + 2), q)
        )
        self._check_fails(L, N)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("L,N", [(64, 1), (64, 2), (2000, 10)])
    def test_wrong_sublattice_lift(self, L, N, side, monkeypatch):
        # u (side 0) or v (side 1) lifted onto the other sublattice; at even
        # L both hold L/2 sites
        specs = lattice._parity_blocks

        def flipped(L, r):
            out = []
            for p, q, *rest in specs(L, r):
                out.append((1 - p, q, *rest) if side == 0 else (p, 1 - q, *rest))
            return out

        monkeypatch.setattr(lattice, "_parity_blocks", flipped)
        self._check_fails(L, N)

    @pytest.mark.parametrize("L,N", [(64, 0), (64, 2), (2000, 10)])
    def test_wrong_mirror(self, L, N, monkeypatch):
        # even N: the second block is taken for the first's mirror, which it is not
        monkeypatch.setattr(lattice, "_is_mirror", lambda a, b: True)
        self._check_fails(L, N)

    @pytest.mark.parametrize("L,N", [(64, 1), (64, 2), (65, 2), (2000, 11)])
    def test_swapped_u_and_v(self, L, N, monkeypatch):
        # square blocks, so the swapped vectors still fit their sublattices
        solve = lattice._block_triplets

        def swapped(block, k, rng, start=None):
            triplets, steps = solve(block, k, rng, start)
            return [lattice.SingularTriplet(t.sigma, t.v, t.u) for t in triplets], steps

        monkeypatch.setattr(lattice, "_block_triplets", swapped)
        self._check_fails(L, N)


class TestWarmStart:
    """N even: the second parity block, which does not mirror the first,
    starts its Lanczos from the sum of the first block's right vectors."""

    @staticmethod
    def _solves(L, N, k, seed, monkeypatch):
        # each _block_triplets call of top_singular_triplets, with its start
        calls = []
        solve = lattice._block_triplets

        def recorded(block, k, rng, start=None):
            calls.append((block, k, start, solve(block, k, rng, start)))
            return calls[-1][-1]

        monkeypatch.setattr(lattice, "_block_triplets", recorded)
        monkeypatch.setattr(lattice, "KRYLOV_SEED", seed)
        top_singular_triplets(ToeplitzKernel(L, -(N + L)), k)
        monkeypatch.undo()
        return calls

    @staticmethod
    def _cold(block, k, seed, first_cols):
        # a cold solve of the second block from the seeded generator's
        # second draw, the one after the first block's
        rng = np.random.default_rng(seed)
        rng.standard_normal(first_cols)
        return _block_triplets(block, k, rng)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "L,N",
        [(64, 0), (200, 2), (2000, 10), (10000, 100), (65, 0), (201, 2), (2001, 10), (5001, 100)],
    )
    def test_matches_cold_solve_in_no_more_steps(self, L, N, k, monkeypatch):
        seed = L + N + k
        (first, _, cold_start, (head, _)), (block, kk, warm, (triplets, steps)) = self._solves(
            L, N, k, seed, monkeypatch
        )
        assert cold_start is None
        assert kk == -(-k // 2)  # the top k holds at most ceil(k/2) of the second block's
        cols = block.shape[1]
        np.testing.assert_array_equal(warm, sum(t.v[:cols] for t in head))
        cold, cold_steps = self._cold(block, kk, seed, first.shape[1])
        assert steps <= cold_steps
        assert len(triplets) == len(cold) == min(kk, cols)
        for a, b in zip(triplets, cold):
            assert a.sigma == pytest.approx(b.sigma, rel=1e-12)
            sign = 1.0 if a.v @ b.v > 0 else -1.0
            np.testing.assert_allclose(a.v, sign * b.v, rtol=0, atol=1e-8)
            np.testing.assert_allclose(a.u, sign * b.u, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("start", [None, 0, "zeros"])
    def test_zero_start_falls_back_to_seeded_draw(self, start):
        # 0 is the sum over a first block that returned no triplet
        block = _block(200, -202, 1)
        start = np.zeros(block.shape[1]) if start == "zeros" else start
        got, steps = _block_triplets(block, 2, np.random.default_rng(4), start)
        ref, ref_steps = _block_triplets(block, 2, np.random.default_rng(4))
        assert steps == ref_steps and len(got) == len(ref) == 2
        for a, b in zip(got, ref):
            assert a.sigma == b.sigma
            np.testing.assert_array_equal(a.u, b.u)
            np.testing.assert_array_equal(a.v, b.v)

    @pytest.mark.parametrize("L", [200, 201])
    def test_empty_first_block_falls_back_to_seeded_draw(self, L, monkeypatch):
        # a first block that returned no triplet leaves the second block a
        # cold start from the seeded generator's second draw.  Of the top 2
        # it is asked for the one triplet it can hold, so the two blocks
        # leave the top 2 one short
        solve = lattice._block_triplets
        calls = []

        def first_empty(block, k, rng, start=None):
            triplets, steps = solve(block, k, rng, start)
            calls.append((block, start, triplets))
            return ([], steps) if len(calls) == 1 else (triplets, steps)

        monkeypatch.setattr(lattice, "_block_triplets", first_empty)
        monkeypatch.setattr(lattice, "KRYLOV_SEED", 9)
        with pytest.raises(ConvergenceError, match="rank appears smaller"):
            top_singular_triplets(ToeplitzKernel(L, -(L + 2)), 2)
        monkeypatch.undo()
        (first, _, _), (block, start, triplets) = calls
        assert not np.any(start)
        cold, _ = self._cold(block, 1, 9, first.shape[1])
        assert len(triplets) == len(cold) == 1
        for a, b in zip(triplets, cold):
            assert a.sigma == b.sigma
            np.testing.assert_array_equal(a.v, b.v)


class TestAskedCounts:
    """Each parity block is asked only for the triplets of the top k it can
    hold, by singular-value interlacing between the two blocks."""

    @pytest.mark.parametrize("L", [2, 3, 8, 9, 40, 41, 130, 131, 200, 201])
    @pytest.mark.parametrize("N", [0, 2, 10, 58])
    def test_interlacing_between_the_blocks(self, L, N):
        # even N.  Even L: both R x R blocks are one (R + 1) x R Toeplitz
        # B~ less its last or its first row, so sigma_i(B_1), sigma_i(B_2)
        # >= sigma_{i+1}(B~) >= sigma_{i+1}(B_1), sigma_{i+1}(B_2).  Odd L:
        # the second block is the first's leading principal submatrix, so
        # sigma_i(B_2) <= sigma_i(B_1).  Dense values, compared to 1e-15
        # sigma_1 where they lie above 1e-13 sigma_1 (below it rounding
        # orders them at random)
        first, second = _parity_blocks(L, -(N + L))
        b1, b2 = (kernel_matrix(_block(L, -(N + L), i)) for i in (0, 1))
        sv1, sv2 = (np.linalg.svd(b, compute_uv=False) for b in (b1, b2))
        floor = 1e-13 * sv1[0]
        slack = 1e-15 * sv1[0]

        def at_least(big, small):
            n = min(len(big), len(small))
            big, small = big[:n], small[:n]
            above = small > floor
            assert np.all(big[above] >= small[above] - slack)

        if L % 2 == 0:
            rows, cols, s = first[2:]
            offsets = np.subtract.outer(np.arange(rows + 1), np.arange(cols))
            tilde = sine_kernel_gather(2 * offsets + s)
            np.testing.assert_array_equal(b1, tilde[:-1])
            np.testing.assert_array_equal(b2, tilde[1:])
            svt = np.linalg.svd(tilde, compute_uv=False)
            for b in (sv1, sv2):
                at_least(b, svt[1:])
                at_least(svt[1:], b[1:])
        else:
            np.testing.assert_array_equal(b2, b1[:-1, :-1])
            at_least(sv1, sv2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("L,N", [(40, 1), (41, 1), (40, 2), (41, 2), (130, 58), (131, 58)])
    def test_asked_counts_hold_the_dense_top_k(self, L, N, k):
        # the top k of both blocks' dense values equals the top k of the
        # first `asked` values of each block (N odd: of the mirror's too)
        specs = _parity_blocks(L, -(N + L))
        kern = ToeplitzKernel(L, -(N + L))
        values = [np.linalg.svd(kernel_matrix(kern.block(s[1])), compute_uv=False) for s in specs]
        full = np.sort(np.concatenate(values))[::-1][:k]
        short = np.concatenate([v[:n] for v, (_, n) in zip(values, _asked(specs, k))])
        np.testing.assert_array_equal(np.sort(short)[::-1][:k], full)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "L,N",
        [(200, 1), (200, 2), (201, 1), (201, 2), (5000, 11), (5000, 10), (5001, 11), (5001, 10)],
    )
    def test_each_block_asked_for_what_the_top_k_can_hold(self, L, N, k, monkeypatch):
        # one solve when N is odd, for ceil(k/2); for even N two solves,
        # each for ceil(k/2) at even L, and for k then ceil(k/2) at odd L,
        # where the first block contains the second
        asked = []
        solve = lattice._block_triplets

        def recorded(block, k, rng, start=None):
            asked.append((block.shape, k))
            return solve(block, k, rng, start)

        monkeypatch.setattr(lattice, "_block_triplets", recorded)
        monkeypatch.setattr(lattice, "KRYLOV_SEED", k)
        triplets, _ = top_singular_triplets(ToeplitzKernel(L, -(N + L)), k)
        half = (k + 1) // 2
        if N % 2:
            assert [n for _, n in asked] == [half]
        elif L % 2:
            assert [n for _, n in asked] == [k, half]
            (rows, cols), (rows2, cols2) = (shape for shape, _ in asked)
            assert (rows2, cols2) == (rows - 1, cols - 1)
        else:
            assert [n for _, n in asked] == [half, half]
        assert len(triplets) == k

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize(
        "L,N", [(128, 10), (128, 11), (129, 10), (129, 11), (512, 2), (511, 3)]
    )
    def test_odd_k_matches_dense_svd(self, L, N, k, monkeypatch):
        # an odd k cuts between the blocks' values in every class
        monkeypatch.setattr(lattice, "KRYLOV_SEED", 3)
        kern = ToeplitzKernel(L, -(N + L))
        triplets, _ = top_singular_triplets(kern, k)
        dense = kernel_matrix(kern)
        sv = np.linalg.svd(dense, compute_uv=False)
        np.testing.assert_allclose([t.sigma for t in triplets], sv[:k], atol=1e-8)
        for t in triplets:
            resid = np.linalg.norm(dense @ t.v - t.sigma * t.u)
            assert resid <= 10 * lattice.KRYLOV_TOL * sv[0]

    @pytest.mark.parametrize("L", [200, 201, 5000, 5001])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_guard_reads_the_solves_ritz_pairs(self, L, m, monkeypatch):
        # the memory guard sizes the basis for the solves at this L, those
        # _lanczos is handed at N = 10 and 11: H halves (one for a square
        # block, two for a rectangular one) of c = _start_rows(k) rows for
        # k Ritz pairs, plus the 2c rows one full half grows into while its
        # old c are held, (H + 2) c rows of (L + 1)/2 doubles
        solves = []
        solve = lattice._lanczos

        def recorded(ops, sizes, start, k):
            solves.append((len(ops), k))
            return solve(ops, sizes, start, k)

        monkeypatch.setattr(lattice, "_lanczos", recorded)
        for N in (10, 11):
            top_singular_triplets(ToeplitzKernel(L, -(N + L)), m)
        assert {H for H, _ in solves} == ({1, 2} if L % 2 else {1})
        h = _smooth_length(L)
        rows = max((H + 2) * lattice._start_rows(k) for H, k in solves)
        need = 16 * (h // 2 + 1) + 16 * h + 32 * (h // 2 + 1) + 8 * ((L + 1) // 2) * rows
        monkeypatch.setattr(lattice, "PHYSICAL_MEMORY", need)
        lattice._check_memory(L, m)
        monkeypatch.setattr(lattice, "PHYSICAL_MEMORY", need - 1)
        with pytest.raises(ValidationError, match=f"L = {L} needs about"):
            lattice._check_memory(L, m)

    @pytest.mark.parametrize("L,N", [(133, 39), (167, 7), (197, 35)])
    def test_rectangular_halves_orthonormal_at_the_tolerance_floor(self, L, N, monkeypatch):
        # odd L with odd N, asked for every value above KRYLOV_TOL sigma_1:
        # the trailing Ritz pairs +-theta lie near 1e-10 ||T||, where an
        # eigensolver on T mixed +theta with -theta and left the u and v
        # halves non-orthogonal by 1.4e-8; the SVD of T's block between the
        # halves keeps them orthonormal to rounding
        kern = ToeplitzKernel(L, -(N + L))
        sv = np.linalg.svd(kernel_matrix(kern), compute_uv=False)
        k = int(np.sum(sv > lattice.KRYLOV_TOL * sv[0]))
        monkeypatch.setattr(lattice, "KRYLOV_SEED", L + N)
        triplets, _ = top_singular_triplets(kern, k)
        for side in ("u", "v"):
            x = np.array([getattr(t, side) for t in triplets])
            np.testing.assert_allclose(x @ x.T, np.eye(k), rtol=0, atol=1e-13)


class TestDirectSumsAtScale:
    """Sampled rows by direct sums against the FFT products and the kept
    triplets, at lengths no dense route reaches; one point per (L mod 2,
    N mod 2) class near 2^17, and the rectangular solve at L = 999999."""

    @staticmethod
    def _rows(n, rng):
        # 32 sampled rows, the first and last included
        return np.concatenate(([0, n - 1], rng.choice(np.arange(1, n - 1), 30, replace=False)))

    @pytest.mark.parametrize("L,N", [(2**17, 1), (2**17, 2), (2**17 + 1, 1), (2**17 + 1, 2)])
    def test_products_match_direct_sums(self, L, N):
        # the full kernel and each parity block, both ways; A^T has offset
        # -r.  An FFT product's rounding error grows with ||x|| and log2 of
        # the embedding length
        rng = np.random.default_rng(L + N)
        kern = ToeplitzKernel(L, -(N + L))
        ops = [(kern, 1, kern.r)] + [(kern.block(s[1]), 2, s[4]) for s in _parity_blocks(L, kern.r)]
        for op, stride, r in ops:
            rows, cols = op.shape
            scale = np.finfo(float).eps * np.log2(op._fft_len)
            x, y = rng.standard_normal(cols), rng.standard_normal(rows)
            at = self._rows(rows, rng)
            direct = sine_toeplitz_rows((rows, cols), stride, r, x, at)
            assert np.max(np.abs(op.matvec(x)[at] - direct)) <= scale * np.linalg.norm(x)
            at = self._rows(cols, rng)
            direct = sine_toeplitz_rows((cols, rows), stride, -r, y, at)
            assert np.max(np.abs(op.rmatvec(y)[at] - direct)) <= scale * np.linalg.norm(y)

    @pytest.mark.parametrize(
        "L,N", [(2**17, 1), (2**17, 2), (2**17 + 1, 1), (2**17 + 1, 2), (999999, 1)]
    )
    def test_triplets_match_direct_sums(self, L, N):
        # F v = sigma u and F^T u = sigma v on sampled rows, to the runtime
        # check's bound plus the FFT rounding it was measured with
        rng = np.random.default_rng(L + N)
        kern = ToeplitzKernel(L, -(N + L))
        triplets, _ = top_singular_triplets(kern, 2)
        bound = 10 * lattice.KRYLOV_TOL * triplets[0].sigma
        bound += np.finfo(float).eps * np.log2(kern._fft_len)
        for t in triplets:
            p, q = t.sublattices
            assert np.linalg.norm(t.u) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(t.v) == pytest.approx(1.0, abs=1e-12)
            assert not t.u[1 - p :: 2].any() and not t.v[1 - q :: 2].any()
            at = self._rows(L, rng)
            fv = sine_toeplitz_rows((L, L), 1, kern.r, t.v, at)
            assert np.max(np.abs(fv - t.sigma * t.u[at])) <= bound
            ftu = sine_toeplitz_rows((L, L), 1, -kern.r, t.u, at)
            assert np.max(np.abs(ftu - t.sigma * t.v[at])) <= bound


class TestIndependentOracle:
    """p and f of the lattice route against block subspace iteration on the
    whole kernel with plain power-of-two FFT products
    (`independent_lattice_point`), at lengths no dense route reaches: both L
    parities at N in {1, 10, 100} near 2 * 10^4 (2L - 1 just fits 2^15
    points), and one point at 10^5."""

    @pytest.mark.parametrize("L,N", [(200, 1), (201, 10)])
    def test_oracle_matches_dense_route(self, L, N):
        geometry = LatticeGeometry(L, N)
        ref, dense = independent_lattice_point(geometry), dense_lattice_point(geometry)
        for name in ("p", "f"):
            assert getattr(ref, name) == pytest.approx(getattr(dense, name), rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "L,N",
        [(16384, 1), (16383, 1), (16384, 10), (16383, 10), (16384, 100), (16383, 100), (10**5, 10)],
    )
    def test_p_and_f_match(self, L, N):
        # each route stops at its own solver's tolerance, so the bound is the
        # runtime check's 10 KRYLOV_TOL, far above the 1e-13 seen
        geometry = LatticeGeometry(L, N)
        fast, ref = lattice_point(geometry), independent_lattice_point(geometry)
        tol = 10 * lattice.KRYLOV_TOL
        for name in ("p", "f"):
            assert getattr(fast, name) == pytest.approx(getattr(ref, name), rel=0, abs=tol), name
        np.testing.assert_allclose(fast.lambdas, ref.lambdas, rtol=0, atol=tol)


class TestRestrictedCovariance:
    @pytest.mark.parametrize("L,N", [(16, 0), (16, 1), (32, 10), (48, 3)])
    def test_output_valid(self, L, N):
        s, _, _ = restricted_covariance(LatticeGeometry(L, N), m=2)
        assert validate(s).passed

    def test_y_block_is_doubled_sigmas(self):
        s, _, choice = restricted_covariance(LatticeGeometry(32, 1), m=2)
        triplets, _ = top_singular_triplets(ToeplitzKernel(32, -33), 2)
        sigmas = np.array([t.sigma for t in triplets])
        g = s.g
        y_block = g[:4, 4:]
        expected = np.diag(np.repeat(sigmas, 2))
        np.testing.assert_allclose(y_block, expected, atol=1e-10)
        np.testing.assert_allclose(choice.lambdas, 2 * np.repeat(sigmas, 2))

    def test_choice_is_canonical_identity(self):
        _, split, choice = restricted_covariance(LatticeGeometry(40, 3), m=3)
        assert split.a == tuple(range(6)) and split.b == tuple(range(6, 12))
        np.testing.assert_array_equal(choice.d.ua, np.eye(6))
        np.testing.assert_array_equal(choice.d.ub, np.eye(6))
        np.testing.assert_array_equal(choice.v, np.eye(6))
        assert choice.m == 3 and choice.krylov_steps > 0

    @staticmethod
    def _assert_reports_agree(fast, ref):
        assert fast.m == ref.m
        for name in ("p", "f", "pf"):
            assert getattr(fast, name) == pytest.approx(getattr(ref, name), abs=1e-8), name
        if ref.rate is None:
            assert fast.rate is None
        else:
            assert fast.rate == pytest.approx(ref.rate, abs=1e-8)
        assert fast.distillable == ref.distillable
        np.testing.assert_allclose(fast.lambdas, ref.lambdas, atol=1e-8)

    @pytest.mark.parametrize("L", [16, 32, 64, 128])
    @pytest.mark.parametrize("N", [0, 1, 10])
    def test_agrees_with_dense_route(self, L, N):
        geometry = LatticeGeometry(L, N)
        self._assert_reports_agree(lattice_point(geometry, m=2), dense_lattice_point(geometry, m=2))

    @pytest.mark.parametrize("L", [16, 32, 64, 128])
    @pytest.mark.parametrize("N", [0, 10])
    def test_agrees_with_dense_route_m3(self, L, N):
        # even N: no exact pair straddles the cut, so the kept subspace is unique
        geometry = LatticeGeometry(L, N)
        self._assert_reports_agree(lattice_point(geometry, m=3), dense_lattice_point(geometry, m=3))

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("N", [0, 1, 2, 5])
    @pytest.mark.parametrize("L", [4, 7, 16, 17])
    def test_degenerate_cut_warned_like_dense_route(self, L, N, m):
        # the kernel's sigma are exactly paired iff N is odd, so the cut
        # after sigma_m splits a pair iff N and m are both odd
        geometry = LatticeGeometry(L, N)

        def cut_warnings(report):
            return [w for w in report.warnings if w.startswith("degenerate singular value")]

        fast = cut_warnings(lattice_point(geometry, m=m))
        assert fast == cut_warnings(dense_lattice_point(geometry, m=m))
        assert bool(fast) == bool(N % 2 and m % 2)

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(2, 200),
        N=st.integers(0, 50),
        m=st.sampled_from([2, 3]),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
    )
    @example(L=16, N=1, m=3, seeds=[0, 1])  # degenerate cut
    @example(L=200, N=49, m=3, seeds=[5, 6])
    @example(L=2, N=0, m=2, seeds=[0, 1])
    @example(L=3, N=1, m=3, seeds=[0, 1])  # rank 2 < m
    def test_independent_of_krylov_seed(self, L, N, m, seeds):
        assume(m <= L)
        geometry = LatticeGeometry(L, N)
        outcomes = []
        for seed in seeds:
            try:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(lattice, "KRYLOV_SEED", seed)
                    outcomes.append(lattice_point(geometry, m=m))
            except ConvergenceError as exc:  # too few triplets, for every seed
                outcomes.append(type(exc))
        if outcomes[0] is ConvergenceError:
            assert outcomes[1] is ConvergenceError
            return
        a, b = outcomes
        assert abs(a.p - b.p) <= 1e-9
        assert abs(a.f - b.f) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 200), N=st.integers(0, 50), m=st.sampled_from([2, 3]))
    @example(L=2, N=0, m=2)
    @example(L=3, N=1, m=2)
    @example(L=199, N=1, m=3)
    @example(L=200, N=50, m=3)
    def test_intra_compression_matches_dense(self, L, N, m):
        # X' = w^T F0 w and Z' = z^T F0 z from half-length products on the
        # intra kernel's parity blocks, against the dense L x L intra kernel
        assume(m <= L)
        cross = ToeplitzKernel(L, -(N + L))
        shapes = []
        matvec = ToeplitzKernel.matvec

        def recorded(kern, x):
            shapes.append(kern.shape)
            return matvec(kern, x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ToeplitzKernel, "matvec", recorded)
            try:
                s, split, _ = restricted_covariance(LatticeGeometry(L, N), m=m)
            except ConvergenceError:  # rank below m
                with pytest.raises(ConvergenceError):
                    top_singular_triplets(cross, m)
                return
        # the only full-length products are the residual check's
        assert shapes.count((L, L)) == m
        triplets, _ = top_singular_triplets(cross, m)
        f0 = kernel_matrix(ToeplitzKernel(L, 0))
        w = np.column_stack([t.u for t in triplets])
        z = np.column_stack([t.v for t in triplets])
        blk = blocks(s, split)
        np.testing.assert_allclose(blk.x, 2 * _interleave(w.T @ f0 @ w), atol=1e-12)
        np.testing.assert_allclose(blk.z, 2 * _interleave(z.T @ f0 @ z), atol=1e-12)
        # both interleave a P filled by symmetry: bit-exactly symmetric,
        # with a zero diagonal
        for side in (blk.x, blk.z):
            p = side[0::2, 1::2]
            np.testing.assert_array_equal(side, _interleave(p))
            np.testing.assert_array_equal(p, p.T)
            assert not p.diagonal().any()

    @pytest.mark.parametrize("L,N,m", [(200, 0, 2), (2000, 1, 3), (5001, 1, 2), (1001, 10, 3)])
    def test_every_product_goes_through_the_kernel(self, L, N, m, monkeypatch):
        # one product per Lanczos step and two per triplet in the residual
        # check.  The intra compression takes one per column j >= 1 of its
        # strict upper triangle on each side, when an earlier kept vector
        # lies on the other sublattice; an FFT outside ToeplitzKernel would
        # break the count
        kept, _ = top_singular_triplets(ToeplitzKernel(L, -(N + L)), m)
        compression = 0
        for side in (0, 1):
            subl = [t.sublattices[side] for t in kept]
            compression += sum(1 - q in subl[:j] for j, q in enumerate(subl))
        calls = []
        for name in ("matvec", "rmatvec"):
            original = getattr(ToeplitzKernel, name)

            def counted(kern, x, original=original):
                calls.append(kern.shape)
                return original(kern, x)

            monkeypatch.setattr(ToeplitzKernel, name, counted)
        report = lattice_point(LatticeGeometry(L, N), m=m)
        assert len(calls) == report.krylov_steps + 2 * m + compression
        assert compression <= 2 * (m - 1)

    @pytest.mark.parametrize("L,N", [(64, 1), (64, 2), (65, 1), (65, 2), (2000, 11), (2001, 11)])
    def test_mirror_block_never_built(self, L, N, monkeypatch):
        # a point builds two spectra, the cross kernel's and the intra
        # kernel's, and every parity block is a view that shares its
        # kernel's.  The cross kernel gives one view per solve: the second
        # block is viewed only when it does not mirror the first
        spectra, viewed = [], []
        odd_spectrum, block = lattice._odd_spectrum, ToeplitzKernel.block

        def counted(*args):
            spectra.append(odd_spectrum(*args))
            return spectra[-1]

        def recorded(kern, q):
            view = block(kern, q)
            assert view._fft is kern._fft
            viewed.append((kern.r, q))
            return view

        monkeypatch.setattr(lattice, "_odd_spectrum", counted)
        monkeypatch.setattr(ToeplitzKernel, "block", recorded)
        restricted_covariance(LatticeGeometry(L, N), m=2)
        assert len(spectra) == 2
        first, second = _parity_blocks(L, -(N + L))
        solved = [first] if N % 2 else [first, second]
        assert [q for r, q in viewed if r] == [spec[1] for spec in solved]

    def test_m_beyond_modes_rejected(self):
        with pytest.raises(ValidationError):
            restricted_covariance(LatticeGeometry(2, 0), m=3)

    def test_numpy_integer_lengths(self):
        # the FFT sizing calls int.bit_length, which numpy integers lack
        geometry = LatticeGeometry(np.int64(64), np.int32(1))
        assert type(geometry.L) is int and type(geometry.N) is int
        s, _, _ = restricted_covariance(geometry, m=2)
        reference, _, _ = restricted_covariance(LatticeGeometry(64, 1), m=2)
        np.testing.assert_array_equal(s.matrix, reference.matrix)

    @pytest.mark.parametrize(
        "L, N", [(64.0, 1), ("64", 1), (64, 1.0)], ids=["float-L", "string-L", "float-N"]
    )
    def test_non_integer_lengths_rejected(self, L, N):
        with pytest.raises(ValidationError, match="must be an integer"):
            LatticeGeometry(L, N)

    def test_kernel_and_solve_take_integers_only(self):
        # ToeplitzKernel(100, nan) and (1e308, 0) raised numpy's ValueError,
        # top_singular_triplets(kern, nan) a TypeError from a slice
        with pytest.raises(ValidationError, match="kernel offset r must be an integer"):
            ToeplitzKernel(100, np.nan)
        with pytest.raises(ValidationError, match="kernel size L must be an integer"):
            ToeplitzKernel(1e308, 0)
        with pytest.raises(ValidationError, match="k must be an integer"):
            top_singular_triplets(ToeplitzKernel(100, -101), np.nan)
        kern = ToeplitzKernel(np.int64(100), np.int32(-101))
        assert (type(kern.L), type(kern.r)) == (int, int)


class TestRejectedSettings:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one(self, jobs):
        with pytest.raises(ValidationError, match="jobs"):
            sweep([16], [1], jobs=jobs)

    def test_m_below_two(self, monkeypatch):
        # every point would fail alike, so the sweep refuses before the first
        points = []
        monkeypatch.setattr(lattice, "lattice_point", lambda *a, **kw: points.append(a))
        with pytest.raises(ValidationError, match="m >= 2"):
            sweep([16, 32], [1], m=1)
        assert points == []

    def test_point_beyond_memory_rejected_before_allocation(self, monkeypatch):
        # the estimate at L = 4096 is about 9.5e5 bytes and at L = 64 about
        # 1.5e4; no kernel may be built for a point that cannot fit (a parity
        # block is a view of a kernel, so it needs one)
        monkeypatch.setattr(lattice, "PHYSICAL_MEMORY", 5 * 10**5)
        assert lattice_point(LatticeGeometry(64, 1)).f is not None

        def no_kernel(*args):
            raise AssertionError("kernel allocated")

        monkeypatch.setattr(ToeplitzKernel, "__init__", no_kernel)
        with pytest.raises(ValidationError, match="L = 4096 needs about"):
            lattice_point(LatticeGeometry(4096, 1))
        with pytest.raises(ValidationError, match="L = 4096 needs about"):
            sweep([64, 4096], [1])

    @pytest.mark.parametrize("L,need,rows", [(4096, 950320, 48), (4097, 1221936, 64)])
    def test_guard_sizes_the_whole_kernel_at_half_length(self, L, need, rows, monkeypatch):
        # m = 2, h = _smooth_length(L) (4096 and 4320): the cross kernel's one
        # spectrum of h/2 + 1 coefficients, one h-point product (16 h +
        # 32 (h/2 + 1) bytes), not the full circulant's _smooth_length(2L - 1)
        # = 8192 and 8640 points, and basis rows of (L + 1)/2 doubles: 3 x 16
        # on the one half of even L's square blocks, 4 x 16 on the two halves
        # of odd L's rectangular block at odd N
        h = _smooth_length(L)
        assert need == 16 * (h // 2 + 1) + 16 * h + 32 * (h // 2 + 1) + 8 * ((L + 1) // 2) * rows
        monkeypatch.setattr(lattice, "PHYSICAL_MEMORY", need)
        lattice._check_memory(L, 2)
        monkeypatch.setattr(lattice, "PHYSICAL_MEMORY", need - 1)
        with pytest.raises(ValidationError, match=f"L = {L} needs about"):
            lattice._check_memory(L, 2)

    @pytest.mark.parametrize(
        "L,N,start",
        [(65536, 1, None), (65536, 2, None), (65537, 2, None), (65537, 1, 6)],
        ids=["even-L-odd-N", "even-L-even-N", "odd-L-even-N", "odd-L-odd-N-grown"],
    )
    def test_guard_bounds_traced_peak(self, L, N, start, monkeypatch):
        # one point per (L mod 2, N mod 2) class; with 6 start rows per half
        # the rectangular solve's 13 steps outgrow them, and the guard, which
        # reads the same start-row rule, must still bound the peak
        if start is not None:
            monkeypatch.setattr(lattice, "_start_rows", lambda k: start)
        geometry = LatticeGeometry(L, N)
        tracemalloc.start()
        try:
            report = lattice_point(geometry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if start is not None:
            assert report.krylov_steps > 2 * start
        monkeypatch.setattr(lattice, "PHYSICAL_MEMORY", peak)
        with pytest.raises(ValidationError, match=f"L = {L} needs about"):
            lattice_point(geometry)


class TestInt64Offsets:
    """A geometry whose kernel offsets, down to -(N + 2L - 1), leave int64 is refused."""

    @pytest.mark.parametrize("L", [2, 3, 4, 17, 40])
    def test_both_sides_of_the_bound(self, L):
        N = 2**63 - 2 * L + 1  # the lowest offset is exactly -2^63
        kern = ToeplitzKernel(L, -(N + L))
        assert np.all(np.isfinite(kernel_matrix(kern)))
        assert np.all(np.isfinite(kern.matvec(np.ones(L))))
        for spec in _parity_blocks(L, kern.r):
            block = kern.block(spec[1])
            assert np.all(np.isfinite(kernel_matrix(block)))
            assert np.all(np.isfinite(block.matvec(np.ones(block.shape[1]))))
        LatticeGeometry(L, N)
        with pytest.raises(ValidationError, match=f"L = {L}, N = {N + 1}: kernel offsets"):
            LatticeGeometry(L, N + 1)

    def test_last_point_evaluates_and_next_is_an_error_row(self):
        report = lattice_point(LatticeGeometry(2, 2**63 - 3))
        assert 0 < report.p <= 1 and 0 < report.f <= 1
        (row,) = sweep([2], [2**63 - 2])
        assert row.report is None and "N = 9223372036854775806" in row.error


class TestSweepWorkers:
    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(64, 8, 3), (2, 8, 2), (64, 2, 2), (3, 1, None), (64, None, None)],
    )
    def test_capped_at_points_and_cpus(self, monkeypatch, jobs, cpus, workers):
        # the executor only records its size and runs the points in-process
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # sweep imports the pool from concurrent.futures only when jobs > 1
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(lattice.os, "cpu_count", lambda: cpus)
        rows = sweep([16, 24, 32], [1], jobs=jobs)
        assert [row.L for row in rows] == [16, 24, 32]
        assert started == ([] if workers is None else [workers])


class TestDenseRoute:
    def test_covariance_valid(self):
        s, split = dense_covariance(LatticeGeometry(12, 1))
        assert validate(s).passed
        assert len(split.a) == len(split.b) == 24

    def test_block_structure_antisymmetric_kernel(self):
        from fermidistill.states import blocks

        s, split = dense_covariance(LatticeGeometry(8, 2))
        blk = blocks(s, split)
        np.testing.assert_allclose(blk.x, -blk.x.T, atol=1e-14)
        np.testing.assert_allclose(blk.x, blk.z, atol=1e-14)  # translation invariance


class TestTrends:
    def test_f_increases_with_length(self):
        fs = [lattice_point(LatticeGeometry(L, 1)).f for L in (16, 32, 64, 128)]
        assert all(b > a for a, b in zip(fs, fs[1:]))

    def test_f_decreases_with_distance(self):
        fs = [lattice_point(LatticeGeometry(64, N)).f for N in (0, 1, 10)]
        assert all(b < a for a, b in zip(fs, fs[1:]))


class TestSweep:
    def test_singleton_matches_point(self):
        rows = sweep([32], [1], m=2)
        assert len(rows) == 1
        point = lattice_point(LatticeGeometry(32, 1), m=2)
        assert rows[0].report.p == pytest.approx(point.p, abs=1e-12)

    def test_rows_reproducible(self):
        # bitwise identical numeric content; the wall-clock column is
        # a measurement and excluded from the determinism contract
        def strip_timing(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        # the same call twice
        a = sweep([16, 32], [0, 1])
        b = sweep([16, 32], [0, 1])
        assert strip_timing(sweep_to_csv(a)) == strip_timing(sweep_to_csv(b))

    def test_csv_header(self):
        text = sweep_to_csv(sweep([16], [0]))
        header = text.splitlines()[0]
        assert header == (
            "L,N,p,f,pf,rate,sigma_1,sigma_2,sigma_3,sigma_4,iters,status,message,wall_ms"
        )

    def test_iters_cell_is_typed_step_count(self):
        # the rows' own m sets the number of sigma columns
        for m in (2, 3):
            rows = sweep([16, 17], [0, 1], m=m)
            for row, cells in zip(rows, csv.DictReader(io.StringIO(sweep_to_csv(rows)))):
                assert row.report.krylov_steps > 0
                assert cells["iters"] == str(row.report.krylov_steps)
                assert cells["status"] == "ok"
                assert cells[f"sigma_{2 * m}"] == repr(float(row.report.lambdas[-1]))

    def test_error_recorded_in_row(self):
        rows = sweep([2, 16], [0], m=3)  # m too large for L = 2
        assert rows[0].error is not None and rows[1].error is None
        rows.append(lattice.SweepRow(3, 1, 3, None, 0.5, error="failed, twice"))
        header, *records = csv.reader(io.StringIO(sweep_to_csv(rows)))
        assert [len(r) for r in records] == [len(header)] * 3
        cells = [dict(zip(header, r)) for r in records]
        assert [c["status"] for c in cells] == ["error", "ok", "error"]
        # an ok row's message is its report's warnings (16, 0, m = 3 carries one)
        warned = "; ".join(rows[1].report.warnings)
        assert "above the vanishing-block reference" in warned
        assert [c["message"] for c in cells] == [rows[0].error, warned, "failed, twice"]
        assert cells[0]["p"] == cells[0]["iters"] == ""
        assert float(cells[0]["wall_ms"]) >= 0 and cells[2]["wall_ms"] == "0.500"

    def test_warnings_in_message(self):
        # (20, 1) at m = 3 cuts a degenerate pair; csv.reader reads the joined cell back
        (row,) = sweep([20], [1], m=3)
        assert row.report.warnings[0].startswith("degenerate singular value at the cut")
        header, record = csv.reader(io.StringIO(sweep_to_csv([row])))
        assert dict(zip(header, record))["message"] == "; ".join(row.report.warnings)

    def test_undefined_f_is_an_empty_cell(self):
        report = SimpleNamespace(
            p=0.0, f=None, pf=0.0, rate=None, lambdas=[0.0] * 4, krylov_steps=3, warnings=[]
        )
        row = lattice.SweepRow(2, 1, 2, report, 1.0)
        header, record = csv.reader(io.StringIO(sweep_to_csv([row])))
        cells = dict(zip(header, record))
        assert cells["f"] == cells["rate"] == "" and cells["p"] == "0.0"

    def test_rows_of_different_m_rejected(self):
        rows = sweep([16], [1], m=2) + sweep([16], [1], m=3)
        with pytest.raises(ValidationError, match=r"one m, got m in \[2, 3\]"):
            sweep_to_csv(rows)
        with pytest.raises(ValidationError, match="one m"):
            sweep_to_csv([])

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a domain failure")

        monkeypatch.setattr(lattice, "lattice_point", broken)
        with pytest.raises(TypeError):
            sweep([16], [1], jobs=1)

    def test_empty_lists_rejected(self):
        with pytest.raises(ValidationError):
            sweep([], [1])

    def test_parallel_jobs_match_serial(self):
        serial = sweep([16, 32], [0, 1], jobs=1)
        parallel = sweep([16, 32], [0, 1], jobs=2)

        def strip_timing(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert strip_timing(sweep_to_csv(serial)) == strip_timing(sweep_to_csv(parallel))

    @settings(max_examples=4, deadline=None)
    @given(
        Ls=st.lists(st.integers(2, 64), min_size=1, max_size=3),
        Ns=st.lists(st.integers(0, 12), min_size=1, max_size=2),
        m=st.sampled_from([2, 3]),
    )
    def test_rows_independent_of_jobs(self, Ls, Ns, m):
        # error rows (2m > 2L) included: their message is part of the row
        def strip_timing(rows):
            return [line.rsplit(",", 1)[0] for line in sweep_to_csv(rows).splitlines()]

        serial = sweep(Ls, Ns, m=m, jobs=1)
        parallel = sweep(Ls, Ns, m=m, jobs=2)
        assert strip_timing(serial) == strip_timing(parallel)


class TestPointIsAFunctionOfGeometry:
    """One (L, N, m) gives the same bits wherever it is asked for."""

    POINT = (64, 1)

    @staticmethod
    def _bits(report):
        return (report.p, report.f, report.pf, list(report.lambdas), report.krylov_steps)

    def test_point_sweep_and_min_length_probe_agree(self, monkeypatch):
        L, N = self.POINT
        want = self._bits(lattice_point(LatticeGeometry(L, N)))
        # last of four and first of four, serially and in two workers
        for Ls, Ns, at in (([16, L], [0, N], 3), ([L, 32], [N, 3], 0)):
            for jobs in (1, 2):
                row = sweep(Ls, Ns, jobs=jobs)[at]
                assert (row.L, row.N) == (L, N) and self._bits(row.report) == want
        probes = []
        point = lattice.lattice_point

        def recorded(geometry, **kwargs):
            probes.append((geometry.L, point(geometry, **kwargs)))
            return probes[-1][1]

        monkeypatch.setattr(lattice, "lattice_point", recorded)
        min_length(N, 0.5, L_lo=16, L_hi=L)  # probes L_hi first
        assert probes[0][0] == L and self._bits(probes[0][1]) == want

    def test_seed_keyword_changes_nothing(self):
        def strip_timing(rows):
            return [line.rsplit(",", 1)[0] for line in sweep_to_csv(rows).splitlines()]

        assert strip_timing(sweep([16, 17], [0, 1], seed=0)) == strip_timing(
            sweep([16, 17], [0, 1], seed=12345)
        )
        geometry = LatticeGeometry(*self.POINT)
        assert self._bits(lattice_point(geometry, seed=3)) == self._bits(lattice_point(geometry))


class TestScanOnLattice:
    def test_pf_monotone_in_m(self):
        from fermidistill.protocol import scan_m

        s, split = dense_covariance(LatticeGeometry(100, 1))
        reports, reason = scan_m(s, split, 4)
        assert reason is None
        pfs = [r.pf for r in reports]
        assert pfs[0] > pfs[1] > pfs[2]


class TestFit:
    def test_exact_model_recovery(self):
        L = np.array([1000, 2000, 5000, 10000, 20000])
        values = 1 - 3.0 / L**1.5
        a, b, rms, points_used, warnings = fit_power_law(list(zip(L, values)), L_min=500)
        assert a == pytest.approx(1.5, abs=1e-9)
        assert b == pytest.approx(3.0, abs=1e-9)
        assert rms < 1e-9
        assert points_used == 5
        assert not warnings

    def test_noisy_recovery(self, rng):
        L = np.linspace(2000, 60000, 30)
        values = 1 - 2.0 / L**1.2 + rng.normal(0, 1e-4 / L**1.2, 30) * L**0
        # noise scaled to stay below the signal
        a, b, rms, _, _ = fit_power_law(list(zip(L, values)), L_min=1000)
        assert a == pytest.approx(1.2, abs=1e-2)

    def test_cutoff_changes_points(self):
        L = np.array([100, 200, 40000, 60000, 90000])
        values = 1 - 3.0 / L**1.5
        values[0] = 0.2  # small-L regime off the power law
        a_all, _, rms_all, used_all, _ = fit_power_law(list(zip(L, values)), L_min=0)
        a_cut, _, rms_cut, used_cut, _ = fit_power_law(list(zip(L, values)), L_min=20000)
        assert rms_cut < rms_all
        assert (used_all, used_cut) == (5, 3)

    def test_saturated_point_skipped(self):
        samples = [(1000, 0.9), (2000, 0.95), (4000, 1.0), (8000, 0.99)]
        a, b, rms, points_used, warnings = fit_power_law(samples, L_min=0)
        assert any("skipped" in w for w in warnings)
        assert points_used == 3

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_power_law([(1000, 0.5), (2000, 0.6)], L_min=0)

    def test_one_length_rejected(self):
        # three points at one L determine no power law in L
        with pytest.raises(ValidationError, match="share one L"):
            fit_power_law([(5000, 0.9), (5000, 0.91), (5000, 0.92), (100, 0.5)], L_min=1000)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_non_finite_value_skipped(self, bad):
        L = np.array([1000, 2000, 5000, 10000])
        values = list(1 - 3.0 / L**1.5)
        samples = list(zip(L, values)) + [(20000, bad)]
        a, b, rms, points_used, warnings = fit_power_law(samples, L_min=0)
        assert (a, b, rms, points_used) == fit_power_law(samples[:-1], L_min=0)[:4]
        assert warnings == [f"skipped L=20000: value {bad} is not finite"]


class TestMinLength:
    def test_boundary_hit(self):
        f16 = lattice_point(LatticeGeometry(16, 1)).f
        L = min_length(1, f16 + 1e-6, L_lo=16, L_hi=64)
        assert L in (17, 18)

    def test_already_satisfied(self):
        L = min_length(1, 0.1, L_lo=16, L_hi=64)
        assert L == 16

    def test_unreachable(self):
        with pytest.raises(ValidationError, match="unreachable"):
            min_length(1, 0.999999, L_lo=4, L_hi=16)

    def test_monotonicity_violation_bounded_and_typed(self, monkeypatch):
        # f dips below its bracket's lower end at L = 393216, the first
        # bisection point inside (262144, 524288)
        def f_of(L):
            if L >= 500_000:
                return 0.6
            return 0.4 if 100_000 <= L < 390_000 else 0.3

        calls = []

        def fake_point(geometry, **kwargs):
            calls.append(geometry.L)
            return SimpleNamespace(f=f_of(geometry.L))

        monkeypatch.setattr(lattice, "lattice_point", fake_point)
        with pytest.raises(ValidationError, match="not monotone.*393216"):
            min_length(1, 0.5, L_lo=2, L_hi=800_000)
        assert len(calls) <= 2 * math.log2(800_000) + 4

    def test_nondecreasing_in_distance(self):
        target = 0.55
        lengths = [min_length(N, target, L_lo=4, L_hi=512) for N in (0, 1, 5)]
        assert lengths == sorted(lengths)
