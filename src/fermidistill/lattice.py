"""Distillation pipeline for the hopping-chain ground state.

Alice and Bob each control a contiguous block of L sites at distance N
on an infinite half-filled chain.  All two-point correlations restricted
to the blocks are Toeplitz: the kernel value at offset q is

    t(q) = sin(q pi / 2) / (q pi),   t(0) -> handled per matrix,

so matrix-vector products cost O(L log L) via circulant embedding and
the FFT.  Because t vanishes at even q, every kernel splits into two
Toeplitz blocks on its parity sublattices.  The few dominant singular
triplets of the cross block come out of Lanczos on those blocks, one
solve per block up to mirror images and one Toeplitz product per step:
a square block B is persymmetric, so J B (J the index reversal) is a
symmetric Hankel matrix whose eigenpairs give B's singular triplets,
and the rectangular blocks of odd L with odd N run as [[0, B], [B^T, 0]]
applying B or B^T in turn.  A point whose estimated memory exceeds the
installed memory is rejected before its first kernel.  The kernel's
own singular values come in exactly equal pairs if and only if N is
odd.  The restricted 2m-mode covariance is then assembled analytically
in the singular basis (the lift from the L x L kernel to the full
off-diagonal block doubles every singular value's multiplicity), with
the intra-block compressions taken from half-length products with one
parity block of the intra kernel, and the point is evaluated by the
same `protocol._evaluate` as the dense route.
"""

from __future__ import annotations

import csv
import io
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

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
        # numpy integers become ints, so the FFT sizing sees plain Python
        # integers; floats, strings and other non-integers are refused
        for name in ("L", "N"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValidationError(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                ) from None
        if self.L < 2:
            raise ValidationError("block length L must be >= 2")
        if self.N < 0:
            raise ValidationError("block distance N must be >= 0")


def _sine_kernel(q: np.ndarray) -> np.ndarray:
    """t(q) = sin(q pi/2)/(q pi) on integer offsets q, with the q = 0 entry set to zero.

    sin(q pi/2) cycles through 0, 1, 0, -1 with q mod 4, which is (q & 1)(1 - (q & 2)):
    even offsets are exact zeros, and q | 1, equal to q at odd q, is never 0.
    The zero at q = 0 encodes the vanishing diagonal of the centered
    correlation matrix at half filling.
    """
    q = np.asarray(q)
    return (q & 1) * (1 - (q & 2)) / ((q | 1) * np.pi)


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

    The estimate, with M = `_smooth_length(2L - 1)`: the cross kernel's
    2L - 1 values and M/2 + 1 spectral coefficients, as much again for its
    parity blocks; one M-point product's buffers (the padded input, two
    spectra and the inverse transform); and the Lanczos basis at its start
    capacity, rows of at most L doubles.
    """
    M = _smooth_length(2 * int(L) - 1)
    kernel = 8 * (2 * L - 1) + 16 * (M // 2 + 1)
    product = 16 * M + 32 * (M // 2 + 1)
    basis = 8 * L * max(16, 4 * m + 8)
    need = 2 * kernel + product + basis
    if PHYSICAL_MEMORY is not None and need > PHYSICAL_MEMORY:
        raise ValidationError(
            f"block length L = {L} needs about {need / 2**30:.3g} GiB, "
            f"more than the {PHYSICAL_MEMORY / 2**30:.3g} GiB of memory installed"
        )


class ToeplitzKernel:
    """Matrix-free L x L Toeplitz operator with entries t(j - k + r).

    Stores the generating values for offsets j - k in [-(L-1), L-1] and
    the FFT of their circulant embedding (size = `_smooth_length(2L - 1)`),
    so products with the matrix and its transpose cost two FFTs each.
    `_parity_blocks` builds the kernel's sublattice blocks as instances
    too: rows x cols operators with entries t(2(a - b) + r), embedded in
    `_smooth_length(rows + cols - 1)` points.
    """

    def __init__(self, L: int, r: int):
        if L < 1:
            raise ValidationError("kernel size must be >= 1")
        self.r = int(r)
        self._embed(int(L), int(L), 1)

    @classmethod
    def _strided(cls, rows: int, cols: int, r: int) -> ToeplitzKernel:
        kern = cls.__new__(cls)
        kern.r = r
        kern._embed(rows, cols, 2)
        return kern

    def _embed(self, rows: int, cols: int, stride: int):
        self.L = rows
        self.shape = (rows, cols)
        # values[i] sits on the diagonal j - k = i - (cols - 1)
        self.values = _sine_kernel(stride * np.arange(-(cols - 1), rows) + self.r)
        self._fft_len = m = _smooth_length(rows + cols - 1)
        col = np.zeros(m)
        col[:rows] = self.values[cols - 1:]
        col[m - (cols - 1):] = self.values[: cols - 1]
        self._fft = np.fft.rfft(col)

    def dense(self) -> np.ndarray:
        rows, cols = self.shape
        return self.values[np.subtract.outer(np.arange(rows), np.arange(cols)) + cols - 1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.shape[1],):
            raise ValidationError(f"expected vector of length {self.shape[1]}, got {x.shape}")
        big = np.fft.rfft(x, self._fft_len)
        np.multiply(self._fft, big, out=big)  # F X: numpy rounds X F differently
        return np.fft.irfft(big, self._fft_len)[: self.shape[0]]

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Product with the transpose: a real circulant's transpose has the conjugate spectrum."""
        if x.shape != (self.shape[0],):
            raise ValidationError(f"expected vector of length {self.shape[0]}, got {x.shape}")
        big = np.fft.rfft(x, self._fft_len)
        np.conjugate(big, out=big)  # conj(F) X = conj(F conj(X)) bit for bit, F not copied
        np.multiply(self._fft, big, out=big)
        np.conjugate(big, out=big)
        return np.fft.irfft(big, self._fft_len)[: self.shape[1]]


def _parity_blocks(L: int, r: int) -> list[tuple[ToeplitzKernel, list[tuple[int, int]]]]:
    """The L x L sine kernel with offset r as an exact direct sum of two stride-2 Toeplitz blocks.

    t vanishes at even offsets, so rows j = 2a + p couple only to columns
    k = 2b + q with q = (p + r + 1) mod 2, through t(2(a - b) + s) where
    s = p - q + r (Peschel, J. Phys. A 36 (2003) L205).  Returns each
    distinct block with the (p, q) sublattice pairs it occupies, built
    without the L x L kernel.  For the cross block (r = -(N + L)) the
    singular values are exactly doubled if and only if N is odd: with L
    even both pairs then carry the same block, and with L odd the two
    blocks are mirror images (`_is_mirror`), so their spectra coincide.
    For the intra kernel (r = 0) each block occupies one pair (1 - q, q).
    """
    blocks: dict[tuple[int, int, int], tuple[ToeplitzKernel, list[tuple[int, int]]]] = {}
    for p in (0, 1):
        q = (p + r + 1) % 2
        rows, cols = (L - p + 1) // 2, (L - q + 1) // 2
        if rows and cols:
            key = (rows, cols, p - q + r)
            if key not in blocks:
                blocks[key] = (ToeplitzKernel._strided(*key), [])
            blocks[key][1].append((p, q))
    return list(blocks.values())


def _is_mirror(a: ToeplitzKernel, b: ToeplitzKernel) -> bool:
    """Whether b = R a^T R, with R the index reversal.

    The mirror of a rows x cols block with offset s is the cols x rows
    block with offset s + 2(rows - cols), since (R a^T R)[i, j] =
    a[rows - 1 - j, cols - 1 - i].
    """
    rows, cols = a.shape
    return b.shape == (cols, rows) and b.r == a.r + 2 * (rows - cols)


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
# block that has not converged after MAX_STEPS Lanczos steps is an error.
KRYLOV_TOL = 1e-10
MAX_STEPS = 300


def _gram_schmidt(basis: np.ndarray, w: np.ndarray):
    """One classical Gram-Schmidt pass against the rows of basis: w -= (Q w) Q, in place."""
    w -= (basis @ w) @ basis


def _lanczos(matvec, start, k):
    """Symmetric Lanczos for the k Ritz pairs of largest |theta| of an n x n operator.

    One product per step, whose result the step updates in place.  The
    basis is stored row-major, so basis vector j is the contiguous row
    `q[j]`; it starts at max(16, 2k + 8) rows and doubles when full.
    After the three-term update one classical Gram-Schmidt pass (Q w) Q
    over the rows filled so far reorthogonalizes w, repeated when it cut
    ||w|| below 1/sqrt(2) of its value before the pass (Daniel, Gragg,
    Kaufman & Stewart, Math. Comp. 30 (1976) 772; as in ARPACK).  The
    basis stays orthogonal to working precision, so ghost values are
    excluded.

    The solve has one exit, which lifts the eigenpairs of the j x j
    tridiagonal T onto the basis.  Two conditions lead there:
    - convergence: beta_j |s_ji| <= KRYLOV_TOL * sigma_1 for each kept
      pair, with s_i its eigenvector of T and sigma_1 the largest |theta|,
      tested at every step j >= k;
    - exhaustion: the new beta falls to machine epsilon times the largest
      |alpha| or beta so far, or the basis spans all n dimensions, and T
      is exact.
    The exhaustion floor follows the operator's scale rather than an
    absolute value.  Past min(MAX_STEPS, n) steps ConvergenceError is
    raised.  Returns the kept Ritz values (fewer than k when the Krylov
    space is smaller), their unit vectors as rows and the step count.
    """
    n = len(start)
    steps = min(MAX_STEPS, n)
    q = np.zeros((min(max(16, 2 * k + 8), steps + 1), n))
    q[0] = start / np.linalg.norm(start)
    alphas = np.zeros(steps)
    betas = np.zeros(steps)
    res = None
    eps = np.finfo(float).eps
    scale = 0.0
    for j in range(steps):
        if j + 1 == len(q):
            q = np.concatenate((q, np.zeros((min(len(q), steps + 1 - len(q)), n))))
        w = np.ascontiguousarray(matvec(q[j]))  # BLAS takes unit strides only
        alphas[j] = q[j] @ w
        w -= alphas[j] * q[j]
        if j > 0:
            w -= betas[j - 1] * q[j - 1]
        before = np.linalg.norm(w)
        _gram_schmidt(q[: j + 1], w)
        betas[j] = np.linalg.norm(w)
        if betas[j] < before / np.sqrt(2):  # the DGKS test
            _gram_schmidt(q[: j + 1], w)
            betas[j] = np.linalg.norm(w)
        scale = max(scale, abs(alphas[j]), betas[j])

        jj = j + 1
        exhausted = betas[j] <= eps * scale or jj == n
        if exhausted or jj >= k:
            theta, s = np.linalg.eigh(np.diag(alphas[:jj]) + np.diag(betas[: jj - 1], -1))
            keep = np.argsort(-np.abs(theta), kind="stable")[:k]
            res = betas[j] * np.abs(s[-1, keep])
            if exhausted or np.all(res <= KRYLOV_TOL * max(abs(theta[keep[0]]), 1e-300)):
                break
        np.divide(w, betas[j], out=q[jj])
    else:
        raise ConvergenceError(f"Lanczos did not converge in {steps} steps", residuals=res)

    x = s[:, keep].T @ q[:jj]
    return theta[keep], x / np.linalg.norm(x, axis=1)[:, None], jj


def _block_triplets(block: ToeplitzKernel, k: int, rng) -> tuple[list[SingularTriplet], int]:
    """Top-k triplets of one parity block by Lanczos, one Toeplitz product per step.

    A square Toeplitz block is persymmetric, B^T = J B J with J the index
    reversal, so H = J B is symmetric (Hankel).  A Ritz pair H x = theta x
    gives sigma = |theta|, v = x and u = sign(theta) J x, and both triplet
    residuals equal the Ritz residual.  A rectangular block (odd L with
    odd N) is solved through [[0, B], [B^T, 0]] from a start that is zero
    on the u half: the basis then alternates between the halves, each step
    applies only B or B^T, the Krylov space is Golub-Kahan's, and each
    singular value appears as the pair +-sigma, of which the + member
    carries (u, v) as its halves.  Returns the triplets and the steps.
    """
    rows, cols = block.shape
    if rows == cols:
        theta, x, steps = _lanczos(lambda y: block.matvec(y)[::-1], rng.standard_normal(rows), k)
        return [
            SingularTriplet(float(abs(th)), np.copysign(1.0, th) * xi[::-1], xi)
            for th, xi in zip(theta, x)
        ], steps

    def product(y):
        # every basis vector lives on one half exactly (alpha = x^T H x is 0
        # for such x, so no step mixes them), and the other product is zero
        out = np.zeros(rows + cols)
        if y[rows:].any():
            out[:rows] = block.matvec(y[rows:])
        else:
            out[rows:] = block.rmatvec(y[:rows])
        return out

    start = np.concatenate((np.zeros(rows), rng.standard_normal(cols)))
    theta, x, steps = _lanczos(product, start, 2 * k)
    halves = [(th, xi[:rows], xi[rows:]) for th, xi in zip(theta, x) if th > 0]
    return [
        SingularTriplet(float(th), u / np.linalg.norm(u), v / np.linalg.norm(v))
        for th, u, v in halves[:k]
    ], steps


def top_singular_triplets(
    kern: ToeplitzKernel, k: int, seed: int = 0
) -> tuple[list[SingularTriplet], int]:
    """Top-k singular triplets of a sine kernel, one Krylov solve per parity block.

    The kernel splits into two stride-2 Toeplitz blocks on its parity
    sublattices (`_parity_blocks`).  Each distinct block is solved once by
    Lanczos (`_block_triplets`); its singular values decay geometrically
    (the block is Cauchy-like, Beckermann & Townsend, SIAM J. Matrix Anal.
    Appl. 38, 2017), so one single-vector solve per block suffices.  A
    block that mirrors the one before it (`_is_mirror`, odd L with odd N)
    is not solved: it equals R B^T R, so its triplets are (sigma, R v, R u)
    of B's.  The block triplets are lifted onto their sublattices and
    merged by sigma, and a block shared by both sublattice pairs yields
    each of its values twice, with orthogonal vectors of disjoint support.
    Every returned triplet satisfies ||F v - sigma u|| <= 10 KRYLOV_TOL
    sigma_1 against the full kernel.  Returns the triplets and the Lanczos
    steps of the solves that ran, one Toeplitz product each.
    """
    L = kern.L
    if k < 1:
        raise ValidationError("need k >= 1 triplets")
    if k > L:
        raise ValidationError("cannot extract more triplets than the dimension")
    rng = np.random.default_rng(seed)
    found, total_iters, prev = [], 0, None
    for block, placements in _parity_blocks(L, kern.r):
        if prev is not None and _is_mirror(prev[0], block):
            half = [SingularTriplet(t.sigma, t.v[::-1], t.u[::-1]) for t in prev[1]]
        else:
            half, iters = _block_triplets(block, min(k, *block.shape), rng)
            total_iters += iters
        prev = (block, half)
        for t in half:
            for p, q in placements:
                u, v = np.zeros(L), np.zeros(L)
                u[p::2], v[q::2] = t.u, t.v
                found.append(SingularTriplet(t.sigma, u, v, (p, q)))
    if len(found) < k:
        raise ConvergenceError(f"operator rank appears smaller than the requested k = {k}")
    found = sorted(found, key=lambda t: -t.sigma)[:k]

    sigma1 = max(found[0].sigma, 1e-300)
    for i, t in enumerate(found):
        resid = max(
            np.linalg.norm(kern.matvec(t.v) - t.sigma * t.u),
            np.linalg.norm(kern.rmatvec(t.u) - t.sigma * t.v),
        )
        if resid > 10 * KRYLOV_TOL * sigma1:
            raise ConvergenceError(
                f"triplet {i} residual {resid:.3e} exceeds tolerance", residuals=[resid]
            )
    return found, total_iters


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
    geometry: LatticeGeometry, m: int = 2, seed: int = 0
) -> tuple[CovarianceMatrix, BipartiteSplit, ProtocolChoice]:
    """Covariance of the kept 2m modes, built from m cross-block triplets.

    The cross block between the parties is Toeplitz with offset -(N+L)
    (Alice's sites sit left of the gap).  Its top-m singular triplets
    (s_i, w_i, z_i) determine the kept subspace; the off-diagonal block
    of the assembled covariance is exactly diag(s_1, s_1, ..., s_m, s_m)
    in the chosen frame, so the canonical isometry is the identity, and
    the diagonal blocks are interleavings of the compressions
    w^T F_0 w and z^T F_0 z of the intra-block kernel.  F_0 couples only
    opposite sublattices and each w_i, z_i lives on one, so every column
    takes one half-length product: with the block of F_0 from sublattice
    1 onto 0, or with its transpose, the block from 0 onto 1, as F_0 is
    symmetric.  The L x L intra kernel is never built.  Returns the
    covariance, its split and the canonical choice, as `optimal_choice`
    would give them for the dense covariance.
    """
    if m < 2:
        raise ValidationError("protocol needs m >= 2")
    L, N = geometry.L, geometry.N
    if 2 * m > 2 * L:
        raise ValidationError("2m may not exceed the 2L modes available")
    _check_memory(L, m)
    cross = ToeplitzKernel(L, -(N + L))
    triplets, steps = top_singular_triplets(cross, m, seed=seed)
    # the block of F_0 from sublattice 1 onto 0: rows 0::2, columns 1::2
    half = ToeplitzKernel._strided((L + 1) // 2, L // 2, -1)

    def compress(side: int) -> np.ndarray:
        # x^T F_0 x for the triplets' u (side 0) or v (side 1) vectors x:
        # F_0 x_j lives on sublattice 1 - q, so the x_i on q contribute exact zeros
        x = np.array([(t.u, t.v)[side] for t in triplets])
        out = np.empty((m, m))
        for j, t in enumerate(triplets):
            q = t.sublattices[side]
            f0x = half.matvec(x[j, 1::2]) if q else half.rmatvec(x[j, 0::2])
            out[:, j] = x[:, 1 - q :: 2] @ f0x
        return out

    lam = np.repeat(2.0 * np.array([t.sigma for t in triplets]), 2)
    cov, split = assemble_covariance(
        BlockDecomposition(
            2.0 * _interleave(compress(0)), np.diag(lam), 2.0 * _interleave(compress(1))
        )
    )
    report = validate(cov)
    if not report.passed:
        raise ValidationError("assembled lattice covariance invalid:\n" + report.summary())
    # the kernel's sigma come in exact pairs iff N is odd, so the cut after
    # sigma_m splits a pair iff m is odd as well
    warnings = (_degenerate_cut_warning(2 * m),) if N % 2 and m % 2 else ()
    identity = RealProjectionPair.identity(2 * m, 2 * m)
    return cov, split, ProtocolChoice(m, identity, lam, warnings, steps)


def lattice_point(geometry: LatticeGeometry, m: int = 2, seed: int = 0) -> DistillationReport:
    """Protocol quantities for one (L, N) geometry via the iterative route."""
    cov, split, choice = restricted_covariance(geometry, m=m, seed=seed)
    return _evaluate(blocks(cov, split), choice)


# ---------------------------------------------------------------------------
# sweeps, fits, minimal length
# ---------------------------------------------------------------------------


def _sweep_header(m: int) -> list[str]:
    return (
        ["L", "N", "p", "f", "pf", "rate"]
        + [f"sigma_{i + 1}" for i in range(2 * m)]
        + ["iters", "status", "message", "wall_ms"]
    )


@dataclass
class SweepRow:
    L: int
    N: int
    report: DistillationReport | None
    wall_ms: float
    error: str | None = None

    def cells(self, m: int) -> list[str]:
        if self.report is None:
            values = [""] * (5 + 2 * m) + ["error", self.error]
        else:
            r = self.report
            values = (
                [repr(float(v)) for v in (r.p, r.f if r.f is not None else float("nan"), r.pf)]
                + [repr(float(r.rate)) if r.rate is not None else ""]
                + [repr(float(v)) for v in r.lambdas]
                + [str(r.krylov_steps), "ok", ""]
            )
        return [str(self.L), str(self.N)] + values + [f"{self.wall_ms:.3f}"]


def _sweep_point(args) -> SweepRow:
    L, N, m, seed = args
    start = time.perf_counter()
    try:
        report = lattice_point(LatticeGeometry(L, N), m=m, seed=seed)
        return SweepRow(L, N, report, (time.perf_counter() - start) * 1e3)
    except (ValidationError, ConvergenceError) as exc:  # per-point failures recorded in-row
        return SweepRow(L, N, None, (time.perf_counter() - start) * 1e3, error=str(exc))


def sweep(L_values, N_values, m: int = 2, seed: int = 0, jobs: int = 1) -> list[SweepRow]:
    """Evaluate the (L, N) grid; points are independent and seedable.

    Per-point seeds are derived deterministically from the master seed
    and the point's position, so rows are reproducible regardless of
    execution order or the number of workers.  Settings that would fail
    every point (m < 2, jobs < 1) are rejected before the first one, and
    so is a grid whose largest L would not fit in memory.
    Workers are capped at the number of points and of CPUs.
    """
    if not len(L_values) or not len(N_values):
        raise ValidationError("sweep needs nonempty L and N lists")
    if m < 2:
        raise ValidationError(f"protocol needs m >= 2, got {m}")
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    _check_memory(max(L_values), m)
    tasks = []
    for i, L in enumerate(L_values):
        for j, N in enumerate(N_values):
            point_seed = int(np.random.SeedSequence([seed, i, j]).generate_state(1)[0])
            tasks.append((int(L), int(N), m, point_seed))
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_point, tasks))
    return [_sweep_point(t) for t in tasks]


def sweep_to_csv(rows: list[SweepRow], m: int = 2) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_sweep_header(m))
    writer.writerows(r.cells(m) for r in rows)
    return out.getvalue()


def fit_power_law(samples, L_min: float) -> tuple[float, float, float, list[str]]:
    """Fit value(L) = 1 - b / L^a on points with L >= L_min.

    Least squares on log(1 - value) against log(L).  Returns (a, b,
    rms_residual, warnings); points with value >= 1 are skipped with a
    warning, fewer than 3 usable points is an error.
    """
    xs, ys, warnings = [], [], []
    for L, value in samples:
        if L < L_min:
            continue
        if value >= 1.0:
            warnings.append(f"skipped L={L}: value {value} >= 1")
            continue
        xs.append(np.log(float(L)))
        ys.append(np.log(1.0 - float(value)))
    if len(xs) < 3:
        raise ValidationError(f"need >= 3 usable points above L_min, have {len(xs)}")
    x = np.asarray(xs)
    y = np.asarray(ys)
    coeffs = np.polyfit(x, y, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return -slope, float(np.exp(intercept)), rms, warnings


def min_length(N: int, x: float, L_lo: int, L_hi: int, m: int = 2, seed: int = 0) -> int:
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
            rep = lattice_point(LatticeGeometry(L, N), m=m, seed=seed)
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
