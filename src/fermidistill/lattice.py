"""Distillation pipeline for the hopping-chain ground state.

Alice and Bob each control a contiguous block of L sites at distance N
on an infinite half-filled chain.  All two-point correlations restricted
to the blocks are Toeplitz: the kernel value at offset q is

    t(q) = sin(q pi / 2) / (q pi),   t(0) -> handled per matrix,

so matrix-vector products cost O(L log L) via circulant embedding and the
FFT.  Because t vanishes at even q, every kernel splits into two Toeplitz
blocks on its parity sublattices, each block product one half-length
convolution with the kernel's one spectrum (`ToeplitzKernel.block`).  The
few dominant singular triplets of the cross kernel come out of Lanczos on
those blocks (`_block_triplets`), one solve per block up to mirror images,
one product per step, each block asked only for the triplets of the top k
it can hold (`_asked`).  The restricted 2m-mode covariance is then
assembled analytically in the singular basis (the lift from the L x L
kernel to the full off-diagonal block doubles every singular value's
multiplicity), with the compressions from block products of the intra
kernel, and evaluated by the same `protocol._evaluate` as the dense route;
`_check_memory` rejects a point too large for the installed memory.
"""

from __future__ import annotations

import copy
import csv
import io
import os
import time
from dataclasses import dataclass

import numpy as np

from .linalg import as_index, as_real
from .protocol import (
    DistillationReport,
    ProtocolChoice,
    _degenerate_cut_warning,
    _evaluate,
)
from .states import (
    BipartiteSplit,
    BlockDecomposition,
    ConvergenceError,
    CovarianceMatrix,
    RealProjectionPair,
    ValidationError,
    assemble_covariance,
    blocks,
    protocol_quantities,  # noqa: F401 -- perfbench/spans.targets looks it and validate up here
    validate,
)

__all__ = [
    "ToeplitzKernel",
    "LatticeGeometry",
    "SingularTriplet",
    "ConvergenceError",
    "top_singular_triplets",
    "restricted_covariance",
    "lattice_point",
    "sweep",
    "sweep_to_csv",
    "fit_power_law",
    "min_length",
]


@dataclass(frozen=True)
class LatticeGeometry:
    """Block length L (sites per party) and gap N between the blocks."""

    L: int
    N: int

    def __post_init__(self):
        # numpy integers become ints, for the FFT sizing; other non-integers are refused
        for name in ("L", "N"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        if self.L < 2:
            raise ValidationError("block length L must be >= 2")
        if self.N < 0:
            raise ValidationError("block distance N must be >= 0")
        if self.N + 2 * self.L - 1 > 2**63:  # kernel offsets reach -(N + 2L - 1)
            raise ValidationError(f"L = {self.L}, N = {self.N}: kernel offsets leave int64")


def _odd_spectrum(q0: int, lo: int, hi: int, m: int) -> np.ndarray:
    """rfft of the length-m column holding t(q0 + 2i) at index i mod m for lo <= i < hi.

    At odd q0 each t(q) = +-1/(q pi), + at q = 1 mod 4, the sign alternating along the
    column, with no gather from a table at q mod 4."""
    first = q0 + 2 * lo
    col = np.zeros(m)
    col[: hi - lo] = 1.0 / (np.arange(first, q0 + 2 * hi, 2) * np.pi)
    col[(first + 1) % 4 // 2 : hi - lo : 2] *= -1.0
    return np.fft.rfft(np.roll(col, lo))


def _smooth_length(n: int) -> int:
    """The smallest integer >= max(n, 2) with no prime factor above 5.

    FFTs of such lengths cost about as much per point as powers of two,
    and they lie much closer to n (5000 rather than 8192, 2 * 10^6 rather
    than 2^21).
    """
    n = max(n, 2)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^e >= n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# Installed memory in bytes, read at call time (tests monkeypatch it): a lattice
# point whose estimated peak exceeds it is rejected before its first kernel.
try:
    PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):  # the platform does not report it
    PHYSICAL_MEMORY = None


def _check_memory(L: int, m: int):
    """Raise ValidationError when a lattice point at block length L, m pairs, cannot fit.

    The estimate, with h = `_smooth_length(L)`: the cross kernel's spectrum
    of h/2 + 1 coefficients, the one alive during the solve (its blocks are
    views); one h-point product's buffers (the padded input, two spectra and
    the inverse transform); and the Lanczos basis, rows of at most (L + 1)/2
    doubles.  A solve runs on H halves, one for a square block and two for a
    rectangular one, keeping k = H times the count `_asked` gives it.  Each
    half starts with c = `_start_rows(k)` rows, and one full half grows into
    2c while its old c are held: (H + 2) c rows, the most over the solves at
    this L.  A solve of more than 2c steps grows again and can exceed it.
    """
    h = _smooth_length(L)
    buffers = 16 * (h // 2 + 1) + 16 * h + 32 * (h // 2 + 1)  # the spectrum, one product
    asked = [a for N in (0, 1) for a in _asked(_parity_blocks(L, -(N + L)), m)]
    halves = [(1 + (b[2] != b[3]), n) for b, n in asked]
    basis = 8 * ((L + 1) // 2) * max((H + 2) * _start_rows(H * n) for H, n in halves)
    need = buffers + basis
    if PHYSICAL_MEMORY is not None and need > PHYSICAL_MEMORY:
        raise ValidationError(
            f"block length L = {L} needs about {need / 2**30:.3g} GiB, "
            f"more than the {PHYSICAL_MEMORY / 2**30:.3g} GiB of memory installed"
        )


class ToeplitzKernel:
    """Matrix-free L x L Toeplitz operator F with entries t(j - k + r), or a parity block of F.

    F's circulant column c at even length 2h, h = `_smooth_length(L)`, is
    nonzero at the index parity pi = (r + 1) mod 2 only, and a kernel holds
    just the rfft of d[i] = c[2i - pi] = t(2i - pi + r) (`_fft_len` = h).
    The block F[p::2, q::2], p = (pi + q) mod 2, maps x to the window from
    pi - (pi + q) // 2 of one length-h convolution of d with x (decimation in
    time, Cooley & Tukey, Math. Comp. 19, 1965); `block(q)` views it as a
    rows x cols kernel with F's L, r and spectrum.
    """

    def __init__(self, L: int, r: int):
        L, r = as_index(L, "kernel size L"), as_index(r, "kernel offset r")
        if L < 1:
            raise ValidationError("kernel size must be >= 1")
        # _q is a block view's input sublattice, None on the whole kernel
        self.r, self.L, self.shape, self._q = r, L, (L, L), None
        self._fft_len = _smooth_length(self.L)
        # d at the odd offsets 2i - pi + r in (r - L, r + L)
        pi = self._parity = (self.r + 1) % 2
        lo, hi = (2 - self.L + pi) // 2, (self.L + 1 + pi) // 2
        self._fft = _odd_spectrum(self.r - pi, lo, hi, self._fft_len)

    def block(self, q: int) -> ToeplitzKernel:
        """F[p::2, q::2], p = (pi + q) mod 2: a view that shares F's spectrum."""
        view, rows = copy.copy(self), (self.L + 1 - (self._parity + q) % 2) // 2
        view._q, view.shape = q, (rows, (self.L + 1 - q) // 2)
        return view

    def _product(self, x: np.ndarray, q: int | None, rows: int) -> np.ndarray:
        """F[p::2, q::2] x (rows long), a view into one length-h convolution; with q None
        the whole F x, one block product for each input parity with a nonzero part."""
        if q is None:
            y = np.zeros(self.L)
            for q in (0, 1):
                out = y[(self._parity + q) % 2 :: 2]
                if x[q::2].any():
                    out[:] = self._product(x[q::2], q, len(out))
            return y
        big = np.fft.rfft(x, self._fft_len)
        np.multiply(self._fft, big, out=big)  # F X: numpy rounds X F differently
        start = self._parity - (self._parity + q) // 2
        return np.fft.irfft(big, self._fft_len)[start : start + rows]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.shape[1],):
            raise ValidationError(f"expected vector of length {self.shape[1]}, got {x.shape}")
        return self._product(x, self._q, self.shape[0])

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Product with the transpose, R F R x: F is square Toeplitz, so persymmetric, and R
        maps a view's output sublattice p onto (L - 1 - p) mod 2 in reverse order."""
        if x.shape != (self.shape[0],):
            raise ValidationError(f"expected vector of length {self.shape[0]}, got {x.shape}")
        q = None if self._q is None else (self.L - 1 - self._parity - self._q) % 2
        return self._product(x[::-1], q, self.shape[1])[::-1]


def _parity_blocks(L: int, r: int) -> list[tuple[int, int, int, int, int]]:
    """The L x L sine kernel with offset r as an exact direct sum of stride-2 Toeplitz blocks.

    t vanishes at even offsets, so rows j = 2a + p couple only to columns
    k = 2b + q with q = (p + r + 1) mod 2, through t(2(a - b) + s) where
    s = p - q + r (Peschel, J. Phys. A 36 (2003) L205).  Returns one spec
    (p, q, rows, cols, s) per non-empty pair, p = 0 first, and builds
    nothing (`ToeplitzKernel.block(q)` is the block as an operator).  For the
    cross block (r = -(N + L)) the second spec mirrors the first
    (`_is_mirror`), so the singular values come in exactly equal pairs, if
    and only if N is odd.
    """
    specs = []
    for p in (0, 1):
        q = (p + r + 1) % 2
        rows, cols = (L - p + 1) // 2, (L - q + 1) // 2
        if rows and cols:
            specs.append((p, q, rows, cols, p - q + r))
    return specs


def _is_mirror(a: tuple, b: tuple) -> bool:
    """Whether block spec b describes R A^T R, with A a's block and R the index reversal.

    The mirror of a rows x cols block with offset s is the cols x rows
    block with offset s + 2(rows - cols), since (R A^T R)[i, j] =
    A[rows - 1 - j, cols - 1 - i]; a square (persymmetric) block is its own.
    """
    _, _, rows, cols, s = a
    return b[2:] == (cols, rows, s + 2 * (rows - cols))


def _asked(specs: list[tuple], k: int) -> list[tuple[tuple, int]]:
    """Each block spec with the count of the kernel's top k triplets it can hold.

    That is h = ceil(k/2): a block's sigma_j, j > h, has k other values at
    least as large by interlacing (Thompson, Linear Algebra Appl. 5 (1972) 1).
    - N odd: the other block mirrors this one (`_is_mirror`): 2j - 1 values.
    - N even, L even: the R x R blocks are the (R + 1) x R Toeplitz B~ less its
      last or its first row, so sigma_i(B_1), sigma_i(B_2) >= sigma_{i+1}(B~)
      >= sigma_{i+1}(B_1), sigma_{i+1}(B_2): 2(j - 1) values.
    - N even, L odd: the second block is the first's leading principal
      submatrix, sigma_i(B_2) <= sigma_i(B_1): 2j - 1 values; the first keeps k.
    """
    h = (k + 1) // 2
    return [(a, k if a[2] > b[2] and a[3] > b[3] else h) for a, b in zip(specs, specs[::-1])]


@dataclass(frozen=True)
class SingularTriplet:
    """sigma with unit vectors u, v.  For a triplet of a whole sine kernel,
    `sublattices` = (p, q): u lives on the sites p::2 and v on q::2."""

    sigma: float
    u: np.ndarray
    v: np.ndarray
    sublattices: tuple[int, int] | None = None


# The stopping rule of every Krylov solve, read at call time: a kept Ritz pair
# has converged once its residual bound is at most KRYLOV_TOL * sigma_1, and a
# block that has not converged after MAX_STEPS Lanczos steps is an error.  Each
# `top_singular_triplets` call starts from a fresh np.random.default_rng(KRYLOV_SEED).
KRYLOV_TOL = 1e-10
MAX_STEPS = 300
KRYLOV_SEED = 0


def _gram_schmidt(basis: np.ndarray, w: np.ndarray):
    """One classical Gram-Schmidt pass against the rows of basis: w -= (Q w) Q, in place."""
    w -= (basis @ w) @ basis


def _start_rows(k: int) -> int:
    """Rows each half of a Lanczos basis starts with, for k kept Ritz pairs."""
    return max(16, 2 * k + 8)


def _lanczos(ops, sizes, start, k):
    """Lanczos for the k Ritz pairs of largest |theta| of a symmetric operator in halves.

    Basis vector j lives on half j mod H, H = len(ops), at length
    sizes[j mod H]; ops[h] maps half h onto half h + 1 mod H, one product
    per step, whose result the step updates in place.  H = 1 is symmetric
    Lanczos; H = 2 runs [[0, B], [B^T, 0]] with ops = [B, B^T] from a start
    on half 0, where alpha = 0 exactly (Golub & Kahan, SIAM J. Numer. Anal.
    B 2, 1965), and T's pairs +-theta come from the SVD of its block between
    the halves, so each half stays orthonormal.  Each half is stored
    row-major at its own length, vector j as row j // H, from
    `_start_rows(k)` rows; a full half grows into a fresh array of twice the
    rows.  After the three-term update one classical Gram-Schmidt pass
    (Q w) Q over the filled rows of w's half reorthogonalizes w, repeated
    when it cut ||w|| below 1/sqrt(2) of its value before the pass (Daniel,
    Gragg, Kaufman & Stewart, Math. Comp. 30 (1976) 772; as in ARPACK).  The
    basis stays orthogonal to working precision, so ghost values are excluded.

    The solve has one exit, which lifts the eigenpairs of the j x j
    tridiagonal T onto the basis.  Two conditions lead there:
    - convergence: beta_j |s_ji| <= KRYLOV_TOL * sigma_1 for each kept
      pair, with s_i its eigenvector of T and sigma_1 the largest |theta|,
      tested at every step j >= k;
    - exhaustion: the new beta falls to machine epsilon times the largest
      |alpha| or beta so far, or the basis spans all n = sum(sizes)
      dimensions, and T is exact.
    The exhaustion floor follows the operator's scale rather than an
    absolute value.  Past min(MAX_STEPS, n) steps ConvergenceError is
    raised.  Returns the kept Ritz values (fewer than k when the Krylov
    space is smaller), for each half the unit components of their Ritz
    vectors on it as rows, and the step count.
    """
    H, n = len(ops), sum(sizes)
    steps = min(MAX_STEPS, n)
    q = [np.zeros((_start_rows(k), size)) for size in sizes]
    q[0][0] = start / np.linalg.norm(start)
    alphas = np.zeros(steps)
    betas = np.zeros(steps)
    res = None
    eps = np.finfo(float).eps
    scale = 0.0
    for j in range(steps):
        # w becomes vector j + 1, row `row` of half `nxt`
        qj, nxt, row = q[j % H][j // H], (j + 1) % H, (j + 1) // H
        w = np.ascontiguousarray(ops[j % H](qj))  # BLAS takes unit strides only
        if H == 1:
            alphas[j] = qj @ w
            w -= alphas[j] * qj
        if j > 0:
            w -= betas[j - 1] * q[nxt][(j - 1) // H]  # vector j - 1 lies on w's half
        before = np.linalg.norm(w)
        _gram_schmidt(q[nxt][:row], w)
        betas[j] = np.linalg.norm(w)
        if betas[j] < before / np.sqrt(2):  # the DGKS test
            _gram_schmidt(q[nxt][:row], w)
            betas[j] = np.linalg.norm(w)
        scale = max(scale, abs(alphas[j]), betas[j])

        jj = j + 1
        exhausted = betas[j] <= eps * scale or jj == n
        if exhausted or jj >= k:
            t = np.diag(alphas[:jj]) + np.diag(betas[: jj - 1], -1)
            if H == 1:
                theta, s = np.linalg.eigh(t)
            else:  # pairs +-sigma from the SVD of t's bidiagonal block from half 0 onto half 1
                y, sig, xt = np.linalg.svd(t[1::2, 0::2] + t[0::2, 1::2].T, full_matrices=False)
                theta, s = np.concatenate((sig, -sig)), np.empty((jj, 2 * len(sig)))
                s[0::2], s[1::2] = np.hstack((xt.T, xt.T)) / 2**0.5, np.hstack((y, -y)) / 2**0.5
            keep = np.argsort(-np.abs(theta), kind="stable")[:k]
            res = betas[j] * np.abs(s[-1, keep])
            if exhausted or np.all(res <= KRYLOV_TOL * max(abs(theta[keep[0]]), 1e-300)):
                break
        if row == len(q[nxt]):
            q[nxt] = np.pad(q[nxt], ((0, row), (0, 0)))
        np.divide(w, betas[j], out=q[nxt][row])
    else:
        raise ConvergenceError(f"Lanczos did not converge in {steps} steps", residuals=res)

    parts = [s[h::H, keep].T @ q[h][: len(s[h::H])] for h in range(H)]
    return theta[keep], [x / np.linalg.norm(x, axis=1)[:, None] for x in parts], jj


def _block_triplets(
    block: ToeplitzKernel, k: int, rng, start=None
) -> tuple[list[SingularTriplet], int]:
    """Top-k triplets of one parity block by Lanczos, one Toeplitz product per step.

    k (from `_asked`) is clamped to the block's smaller side.  A square
    Toeplitz block is persymmetric, B^T = J B J with J the index reversal,
    so H = J B is symmetric (Hankel) and `_lanczos` runs it as one half.  A
    Ritz pair H x = theta x gives sigma = |theta|, v = x and u = sign(theta)
    J x, and both triplet residuals equal the Ritz residual.  A rectangular
    block (odd L with odd N) runs as the two halves v and u of [[0, B],
    [B^T, 0]], applying B and B^T in turn: each singular value appears as
    the pair +-sigma, and the + member's unit components are (v, u).  The
    solve starts from `start` on the v side, or from the next draw of rng
    when it is None or zero.  Returns the triplets and the steps.
    """
    rows, cols = block.shape
    k = min(k, rows, cols)
    if start is None or not np.any(start):
        start = rng.standard_normal(cols)
    if rows == cols:
        hankel = [lambda y: block.matvec(y)[::-1]]  # J B
        theta, (x,), steps = _lanczos(hankel, [rows], start, k)
        return [
            SingularTriplet(float(abs(th)), np.copysign(1.0, th) * xi[::-1], xi)
            for th, xi in zip(theta, x)
        ], steps
    theta, (v, u), steps = _lanczos([block.matvec, block.rmatvec], [cols, rows], start, 2 * k)
    return [SingularTriplet(float(th), ui, vi) for th, ui, vi in zip(theta, u, v) if th > 0], steps


def top_singular_triplets(kern: ToeplitzKernel, k: int) -> tuple[list[SingularTriplet], int]:
    """Top-k singular triplets of a sine kernel, one Krylov solve per parity block.

    The kernel splits into two stride-2 Toeplitz blocks on its parity
    sublattices (`_parity_blocks`), each solved as a view of the kernel
    (`ToeplitzKernel.block`) by Lanczos (`_block_triplets`) for the triplets
    of the top k it can hold (`_asked`); their singular values decay
    geometrically (Cauchy-like blocks, Beckermann & Townsend, SIAM J.
    Matrix Anal. Appl. 38, 2017), so one single-vector solve per block
    suffices.  The first block starts from the first draw of
    `np.random.default_rng(KRYLOV_SEED)`, so the result is a function of the
    kernel and k alone.  The second block is not solved when it mirrors the
    first (`_is_mirror`, N odd): it equals R B^T R, so its triplets are
    (sigma, R v, R u) of B's, for a square B sign(theta) (sigma, u, v).
    Otherwise (N even) it is the first shifted by one row or cut to a
    principal submatrix (`_asked`), and its solve starts from the sum of the
    first block's right vectors v, cut to its length, or from the
    generator's next draw when that sum is zero.  Only the k kept triplets
    are lifted onto their sublattices.  Each satisfies ||F v - sigma u|| <=
    10 KRYLOV_TOL sigma_1 against the full kernel.  Returns the triplets and
    the Lanczos steps of the solves that ran, one product each.
    """
    L, k = kern.L, as_index(k, "k")
    if k < 1:
        raise ValidationError("need k >= 1 triplets")
    if k > L:
        raise ValidationError("cannot extract more triplets than the dimension")
    rng = np.random.default_rng(KRYLOV_SEED)
    found, total_iters, solved = [], 0, None
    for spec, asked in _asked(_parity_blocks(L, kern.r), k):
        p, q, _, cols, _ = spec
        if solved is not None and _is_mirror(solved[0], spec):
            half = [SingularTriplet(t.sigma, t.v[::-1], t.u[::-1]) for t in solved[1]]
        else:
            warm = sum(t.v[:cols] for t in solved[1]) if solved else None
            half, iters = _block_triplets(kern.block(q), asked, rng, warm)
            total_iters += iters
            solved = (spec, half)
        found += [SingularTriplet(t.sigma, t.u, t.v, (p, q)) for t in half]
    if len(found) < k:
        raise ConvergenceError(f"operator rank appears smaller than the requested k = {k}")
    kept = []
    for t in sorted(found, key=lambda t: -t.sigma)[:k]:
        p, q = t.sublattices
        u, v = np.zeros(L), np.zeros(L)
        u[p::2], v[q::2] = t.u, t.v
        kept.append(SingularTriplet(t.sigma, u, v, (p, q)))

    sigma1 = max(kept[0].sigma, 1e-300)
    for i, t in enumerate(kept):
        resid = max(
            np.linalg.norm(kern.matvec(t.v) - t.sigma * t.u),
            np.linalg.norm(kern.rmatvec(t.u) - t.sigma * t.v),
        )
        if resid > 10 * KRYLOV_TOL * sigma1:
            raise ConvergenceError(
                f"triplet {i} residual {resid:.3e} exceeds tolerance", residuals=[resid]
            )
    return kept, total_iters


# ---------------------------------------------------------------------------
# covariance assembly
# ---------------------------------------------------------------------------


def _interleave(p: np.ndarray) -> np.ndarray:
    """Antisymmetric interleaving [[0, P], [-P^T, 0]] in alternating order."""
    mm = p.shape[0]
    out = np.zeros((2 * mm, 2 * mm))
    out[0::2, 1::2] = p
    out[1::2, 0::2] = -p.T
    return out


def restricted_covariance(
    geometry: LatticeGeometry, m: int = 2
) -> tuple[CovarianceMatrix, BipartiteSplit, ProtocolChoice]:
    """Covariance of the kept 2m modes, built from m cross-block triplets.

    The cross block between the parties is Toeplitz with offset -(N+L)
    (Alice's sites sit left of the gap).  Its top-m singular triplets
    (s_i, w_i, z_i) determine the kept subspace; the off-diagonal block
    of the assembled covariance is exactly diag(s_1, s_1, ..., s_m, s_m)
    in the chosen frame, so the canonical isometry is the identity, and
    the diagonal blocks are interleavings of the compressions
    w^T F_0 w and z^T F_0 z of the intra-block kernel.  F_0 is symmetric
    and couples only opposite sublattices, and each w_i, z_i lives on one,
    so a compression has a zero diagonal and is filled from its strict
    upper triangle by symmetry.  Column j of that triangle takes one
    product with F_0's parity block on x_j's sublattice q_j
    (`ToeplitzKernel.block`), and only when an earlier vector lies on the
    other sublattice (F_0 x_j lives on 1 - q_j).  F_0 is held as its one
    half-length spectrum, never as an L x L matrix.
    Returns the covariance, its split and the canonical choice, as
    `optimal_choice` would give them for the dense covariance.
    """
    m, L, N = as_index(m, "m"), geometry.L, geometry.N
    if m < 2:
        raise ValidationError("protocol needs m >= 2")
    if 2 * m > 2 * L:
        raise ValidationError("2m may not exceed the 2L modes available")
    _check_memory(L, m)
    cross = ToeplitzKernel(L, -(N + L))
    triplets, steps = top_singular_triplets(cross, m)
    intra = ToeplitzKernel(L, 0)

    def compress(side: int) -> np.ndarray:
        # x^T F_0 x for the triplets' u (side 0) or v (side 1) vectors x
        x = np.array([(t.u, t.v)[side] for t in triplets])
        subl = [t.sublattices[side] for t in triplets]
        out = np.zeros((m, m))
        for j, q in enumerate(subl):
            if 1 - q in subl[:j]:
                f0x = intra.block(q).matvec(x[j, q::2])
                out[:j, j] = x[:j, 1 - q :: 2] @ f0x
        return out + out.T

    lam = np.repeat(2.0 * np.array([t.sigma for t in triplets]), 2)
    cov, split = assemble_covariance(
        BlockDecomposition(
            2.0 * _interleave(compress(0)), np.diag(lam), 2.0 * _interleave(compress(1))
        )
    )
    validate(cov).require("assembled lattice covariance invalid")
    # the kernel's sigma come in exact pairs iff N is odd, so the cut after
    # sigma_m splits a pair iff m is odd as well
    warnings = (_degenerate_cut_warning(2 * m),) if N % 2 and m % 2 else ()
    identity = RealProjectionPair.identity(2 * m, 2 * m)
    return cov, split, ProtocolChoice(m, identity, lam, warnings, steps)


def lattice_point(geometry: LatticeGeometry, m: int = 2, seed=None) -> DistillationReport:
    """Protocol quantities for one (L, N) geometry via the iterative route, a
    function of (L, N, m), Krylov steps included; `seed` is accepted and ignored."""
    cov, split, choice = restricted_covariance(geometry, m=m)
    return _evaluate(blocks(cov, split), choice)


# ---------------------------------------------------------------------------
# sweeps, fits, minimal length
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    """One sweep point at target size m: its report, or the error that stopped it."""

    L: int
    N: int
    m: int
    report: DistillationReport | None
    wall_ms: float
    error: str | None = None

    def header(self) -> list[str]:
        return (
            ["L", "N", "p", "f", "pf", "rate"]
            + [f"sigma_{i + 1}" for i in range(2 * self.m)]
            + ["iters", "status", "message", "wall_ms"]
        )

    def cells(self) -> list[str]:
        if self.report is None:
            values = [""] * (5 + 2 * self.m) + ["error", self.error]
        else:
            r = self.report
            values = ["" if v is None else repr(float(v)) for v in (r.p, r.f, r.pf, r.rate)]
            values += [repr(float(v)) for v in r.lambdas]
            values += [str(r.krylov_steps), "ok", "; ".join(r.warnings)]
        return [str(self.L), str(self.N)] + values + [f"{self.wall_ms:.3f}"]


def _sweep_point(args) -> SweepRow:
    L, N, m = args
    start = time.perf_counter()
    try:
        report = lattice_point(LatticeGeometry(L, N), m=m)
        return SweepRow(L, N, m, report, (time.perf_counter() - start) * 1e3)
    except (ValidationError, ConvergenceError) as exc:  # per-point failures recorded in-row
        return SweepRow(L, N, m, None, (time.perf_counter() - start) * 1e3, error=str(exc))


def sweep(L_values, N_values, m: int = 2, seed=None, jobs: int = 1) -> list[SweepRow]:
    """Evaluate the (L, N) grid, one `lattice_point` per point.

    A row is a function of its (L, N, m) alone, so it does not depend on
    the point's grid position, the execution order or the number of
    workers; `seed` is accepted and ignored, like `lattice_point`'s.
    Settings that would fail every point (m < 2, jobs < 1, a non-integer
    m, jobs, L or N) are rejected before the first one, as is a grid whose
    largest L would not fit in memory.  Workers are capped at the points and CPUs.
    """
    if not len(L_values) or not len(N_values):
        raise ValidationError("sweep needs nonempty L and N lists")
    m, jobs = as_index(m, "m"), as_index(jobs, "jobs")
    if m < 2:
        raise ValidationError(f"protocol needs m >= 2, got {m}")
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    tasks = [(as_index(L, "L"), as_index(N, "N"), m) for L in L_values for N in N_values]
    _check_memory(max(L for L, _, _ in tasks), m)
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing only when used

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_point, tasks))
    return [_sweep_point(t) for t in tasks]


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """The rows as CSV under their header; the rows must share one m, which sets its width."""
    widths = sorted({r.m for r in rows})
    if len(widths) != 1:
        raise ValidationError(f"sweep CSV needs rows of one m, got m in {widths}")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0].header())
    writer.writerows(r.cells() for r in rows)
    return out.getvalue()


def fit_power_law(samples, L_min: float) -> tuple[float, float, float, int, list[str]]:
    """Fit value(L) = 1 - b / L^a on points with L >= L_min.

    Least squares on log(1 - value) against log(L).  Returns (a, b,
    rms_residual, points_used, warnings); points with a non-finite value
    or one >= 1 are skipped with a warning; an L that `as_real` refuses or
    that is not positive, under 3 usable points, or all at one L, raise.
    """
    xs, ys, warnings = [], [], []
    for L, value in samples:
        if not as_real(L, "L") > 0:
            raise ValidationError(f"L = {L} is not a positive length")
        if L < L_min:
            continue
        if not np.isfinite(value):
            warnings.append(f"skipped L={L}: value {value} is not finite")
            continue
        if value >= 1.0:
            warnings.append(f"skipped L={L}: value {value} >= 1")
            continue
        xs.append(np.log(float(L)))
        ys.append(np.log(1.0 - float(value)))
    if len(xs) < 3:
        raise ValidationError(f"need >= 3 usable points above L_min, have {len(xs)}")
    if len(set(xs)) < 2:
        raise ValidationError(f"the {len(xs)} usable points share one L; a fit needs two or more")
    x = np.asarray(xs)
    y = np.asarray(ys)
    coeffs = np.polyfit(x, y, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return -slope, float(np.exp(intercept)), rms, len(xs), warnings


def min_length(N: int, x: float, L_lo: int, L_hi: int, m: int = 2) -> int:
    """Smallest L in [L_lo, L_hi] with f(L, N) >= x.

    Exponential bracketing plus bisection under the empirically
    validated monotonicity of f in L, so about 2 log2(L_hi) lattice
    points are evaluated.  Raises ValidationError if the target is
    unreachable, or if a bisection point's f falls outside the values at
    its bracket ends, naming that (L, f) triple.
    """
    if not 0.0 < x < 1.0:
        raise ValidationError("target fidelity must be in (0, 1)")
    if L_lo < 2 or L_hi < L_lo:
        raise ValidationError("need 2 <= L_lo <= L_hi")

    cache: dict[int, float] = {}

    def fid(L: int) -> float:
        if L not in cache:
            rep = lattice_point(LatticeGeometry(L, N), m=m)
            cache[L] = rep.f if rep.f is not None else 0.0
        return cache[L]

    if fid(L_hi) < x:
        raise ValidationError(f"target f >= {x} unreachable: f({L_hi}, {N}) = {fid(L_hi):.6f}")
    if fid(L_lo) >= x:
        return L_lo

    # exponential bracketing upward from L_lo
    lo, hi = L_lo, L_lo
    step = max(1, L_lo)
    while fid(hi) < x:
        lo = hi
        hi = min(L_hi, hi + step)
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fm = fid(mid)
        if fm < fid(lo) - 1e-9 or fm > fid(hi) + 1e-9:
            raise ValidationError(
                f"f is not monotone in L at N = {N}: f({lo}) = {fid(lo):.9f}, "
                f"f({mid}) = {fm:.9f}, f({hi}) = {fid(hi):.9f}"
            )
        if fm >= x:
            hi = mid
        else:
            lo = mid
    return hi
