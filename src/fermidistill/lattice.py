"""Distillation pipeline for the hopping-chain ground state.

Alice and Bob each control a contiguous block of L sites at distance N
on an infinite half-filled chain.  All two-point correlations restricted
to the blocks are Toeplitz: the kernel value at offset q is

    t(q) = sin(q pi / 2) / (q pi),   t(0) -> handled per matrix,

so matrix-vector products cost O(L log L) via circulant embedding and
the FFT, and the few dominant singular triplets of the cross block come
out of Golub-Kahan bidiagonalization of its two parity-sublattice
blocks (t vanishes at even q).  The kernel's own singular values come
in exactly equal pairs if and only if N is odd.  The restricted 2m-mode
covariance is then assembled analytically in the singular basis (the
lift from the L x L kernel to the full off-diagonal block doubles every
singular value's multiplicity), and the point is evaluated by the same
`protocol._evaluate` as the dense route.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .protocol import (
    DistillationReport,
    ProtocolChoice,
    _degenerate_cut_warning,
    _evaluate,
    run_protocol,
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
    "dense_covariance",
]


@dataclass(frozen=True)
class LatticeGeometry:
    """Block length L (sites per party) and gap N between the blocks."""

    L: int
    N: int

    def __post_init__(self):
        if self.L < 2:
            raise ValidationError("block length L must be >= 2")
        if self.N < 0:
            raise ValidationError("block distance N must be >= 0")


def _sine_kernel(q: np.ndarray) -> np.ndarray:
    """t(q) = sin(q pi/2)/(q pi) with the q = 0 entry set to zero.

    Evaluated through the parity of q so that even offsets are exact
    zeros (sin(q pi/2) alternates through 0, +-1 on integers); the zero
    at q = 0 encodes the vanishing diagonal of the centered correlation
    matrix at half filling.
    """
    qi = np.asarray(np.rint(q), dtype=np.int64)
    sign = np.where(qi % 4 == 1, 1.0, np.where(qi % 4 == 3, -1.0, 0.0))
    denom = np.where(qi == 0, 1, qi)
    return sign / (denom * np.pi)


class ToeplitzKernel:
    """Matrix-free L x L Toeplitz operator with entries t(j - k + r).

    Stores the generating values for offsets j - k in [-(L-1), L-1] and
    the FFT of their circulant embedding (size = next power of two
    >= 2L - 1), so products with the matrix and its transpose cost two
    FFTs each.  `_parity_blocks` builds the kernel's sublattice blocks
    as instances too: rows x cols operators with entries t(2(a - b) + r).
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
        m = 1
        while m < max(rows + cols - 1, 2):
            m <<= 1
        self._fft_len = m
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
        return np.fft.irfft(self._fft * big, self._fft_len)[: self.shape[0]]

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Product with the transpose: a real circulant's transpose has the conjugate spectrum."""
        if x.shape != (self.shape[0],):
            raise ValidationError(f"expected vector of length {self.shape[0]}, got {x.shape}")
        big = np.fft.rfft(x, self._fft_len)
        return np.fft.irfft(np.conj(self._fft) * big, self._fft_len)[: self.shape[1]]


def _parity_blocks(kern: ToeplitzKernel) -> list[tuple[ToeplitzKernel, list[tuple[int, int]]]]:
    """The sine kernel as an exact direct sum of two stride-2 Toeplitz blocks.

    t vanishes at even offsets, so rows j = 2a + p couple only to columns
    k = 2b + q with q = (p + r + 1) mod 2, through t(2(a - b) + s) where
    s = p - q + r (Peschel, J. Phys. A 36 (2003) L205).  Returns each
    distinct block with the (p, q) sublattice pairs it occupies.  For the
    cross block (r = -(N + L)) the singular values are exactly doubled if
    and only if N is odd: with L even both pairs then carry the same block,
    and with L odd the two blocks are mirror images (one is the other
    transposed and index-reversed), so their spectra coincide.
    """
    blocks: dict[tuple[int, int, int], tuple[ToeplitzKernel, list[tuple[int, int]]]] = {}
    for p in (0, 1):
        q = (p + kern.r + 1) % 2
        rows, cols = (kern.L - p + 1) // 2, (kern.L - q + 1) // 2
        if rows and cols:
            key = (rows, cols, p - q + kern.r)
            if key not in blocks:
                blocks[key] = (ToeplitzKernel._strided(*key), [])
            blocks[key][1].append((p, q))
    return list(blocks.values())


@dataclass(frozen=True)
class SingularTriplet:
    sigma: float
    u: np.ndarray
    v: np.ndarray


def _gk_bidiagonalize(matvec, rmatvec, rows, cols, k, tol, max_iter, rng):
    """Golub-Kahan bidiagonalization for the top-k triplets of a rows x cols operator.

    Full reorthogonalization at every step (the Krylov basis stays small
    here, so the cost is negligible and ghost values are excluded).
    Convergence requires the residual bound beta_j |P_ji| <= tol * sigma_1
    for each kept triplet.  A Krylov space counts as exhausted when the
    new alpha or beta falls to machine epsilon times the largest alpha or
    beta seen so far, so the floor follows the operator's scale rather
    than an absolute value.  The step cap min(rows, cols) + 1 lets a wide
    operator reach the u-side exhaustion exit.
    """
    v = rng.standard_normal(cols)
    v /= np.linalg.norm(v)
    max_iter = min(max_iter, min(rows, cols) + 1)
    # Grow the stored bases geometrically; convergence typically needs a
    # few dozen vectors, far less than max_iter.
    cap = min(max(32, 2 * k + 8), max_iter + 1)
    vmat = np.zeros((cols, cap))
    umat = np.zeros((rows, cap))
    vmat[:, 0] = v
    alphas = np.zeros(max_iter)
    betas = np.zeros(max_iter)
    best_res = None
    eps = np.finfo(float).eps
    scale = 0.0

    def ensure_capacity(n: int):
        nonlocal vmat, umat, cap
        if n >= cap:
            cap = min(max(2 * cap, n + 1), max_iter + 1)
            vnew = np.zeros((cols, cap))
            vnew[:, : vmat.shape[1]] = vmat
            unew = np.zeros((rows, cap))
            unew[:, : umat.shape[1]] = umat
            vmat, umat = vnew, unew

    def ritz(j: int):
        b = np.zeros((j, j))
        b[np.arange(j), np.arange(j)] = alphas[:j]
        if j > 1:
            b[np.arange(j - 1), np.arange(1, j)] = betas[: j - 1]
        p, sv, qt = np.linalg.svd(b)
        return p, sv, qt

    def extract(p, sv, qt, ju, jv, iters):
        # exhaustion may deliver fewer than k triplets (rank below k);
        # the caller counts what the blocks delivered
        out = []
        for i in range(min(k, len(sv))):
            u = umat[:, :ju] @ p[:, i]
            w = vmat[:, :jv] @ qt[i]
            u /= np.linalg.norm(u)
            w /= np.linalg.norm(w)
            out.append(SingularTriplet(float(sv[i]), u, w))
        return out, iters

    for j in range(max_iter):
        ensure_capacity(j + 1)
        u = matvec(vmat[:, j])
        if j > 0:
            u -= betas[j - 1] * umat[:, j - 1]
            u -= umat[:, :j] @ (umat[:, :j].T @ u)
            u -= umat[:, :j] @ (umat[:, :j].T @ u)
        alphas[j] = np.linalg.norm(u)
        scale = max(scale, alphas[j])
        if alphas[j] <= eps * scale:
            # u-side Krylov space exhausted: the last v column stays coupled
            # through the trailing beta, so the exact restriction of the
            # operator is the rectangular j x (j+1) bidiagonal matrix.
            bhat = np.zeros((j, j + 1))
            bhat[np.arange(j), np.arange(j)] = alphas[:j]
            bhat[np.arange(j), np.arange(1, j + 1)] = betas[:j]
            p, sv, qt = np.linalg.svd(bhat)
            return extract(p, sv, qt, j, j + 1, j)
        umat[:, j] = u / alphas[j]

        w = rmatvec(umat[:, j]) - alphas[j] * vmat[:, j]
        w -= vmat[:, : j + 1] @ (vmat[:, : j + 1].T @ w)
        w -= vmat[:, : j + 1] @ (vmat[:, : j + 1].T @ w)
        betas[j] = np.linalg.norm(w)
        scale = max(scale, betas[j])

        jj = j + 1
        if betas[j] <= eps * scale:
            # v-side exhaustion: the square bidiagonal block is exact
            p, sv, qt = ritz(jj)
            return extract(p, sv, qt, jj, jj, jj)
        # Convergence is tested every 4th step on purpose: each test costs a
        # dense SVD of the bidiagonal, and stopping up to three steps late
        # only tightens the residuals.
        if jj >= k and (jj % 4 == 0 or jj == max_iter):
            p, sv, qt = ritz(jj)
            res = betas[j] * np.abs(p[-1, :k])
            best_res = res
            if np.all(res <= tol * max(sv[0], 1e-300)):
                return extract(p, sv, qt, jj, jj, jj)
        vmat[:, j + 1] = w / betas[j]

    raise ConvergenceError(
        f"bidiagonalization did not converge in {max_iter} iterations", residuals=best_res
    )


def top_singular_triplets(
    kern: ToeplitzKernel,
    k: int,
    tol: float = 1e-10,
    max_iter: int = 300,
    seed: int = 0,
) -> tuple[list[SingularTriplet], int]:
    """Top-k singular triplets of a sine kernel, one Krylov solve per parity block.

    The kernel splits into two stride-2 Toeplitz blocks on its parity
    sublattices (`_parity_blocks`).  Each distinct block is solved once by
    Golub-Kahan bidiagonalization; its singular values decay geometrically
    (the block is Cauchy-like, Beckermann & Townsend, SIAM J. Matrix Anal.
    Appl. 38, 2017), so one single-vector solve per block suffices.  The
    block triplets are lifted onto their sublattices and merged by sigma,
    and a block shared by both sublattice pairs yields each of its values
    twice, with orthogonal vectors of disjoint support.  Every returned
    triplet satisfies ||F v - sigma u|| <= 10 tol sigma_1 against the
    full kernel.  Returns the triplets and the Krylov steps of all solves.
    """
    L = kern.L
    if k < 1:
        raise ValidationError("need k >= 1 triplets")
    if k > L:
        raise ValidationError("cannot extract more triplets than the dimension")
    rng = np.random.default_rng(seed)
    found, total_iters = [], 0
    for block, placements in _parity_blocks(kern):
        rows, cols = block.shape
        half, iters = _gk_bidiagonalize(
            block.matvec, block.rmatvec, rows, cols, min(k, rows, cols), tol, max_iter, rng
        )
        total_iters += iters
        for t in half:
            for p, q in placements:
                u, v = np.zeros(L), np.zeros(L)
                u[p::2], v[q::2] = t.u, t.v
                found.append(SingularTriplet(t.sigma, u, v))
    if len(found) < k:
        raise ConvergenceError(f"operator rank appears smaller than the requested k = {k}")
    found = sorted(found, key=lambda t: -t.sigma)[:k]

    sigma1 = max(found[0].sigma, 1e-300)
    for i, t in enumerate(found):
        resid = max(
            np.linalg.norm(kern.matvec(t.v) - t.sigma * t.u),
            np.linalg.norm(kern.rmatvec(t.u) - t.sigma * t.v),
        )
        if resid > 10 * tol * sigma1:
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
    geometry: LatticeGeometry, m: int = 2, tol: float = 1e-10, seed: int = 0
) -> tuple[CovarianceMatrix, BipartiteSplit, ProtocolChoice]:
    """Covariance of the kept 2m modes, built from m cross-block triplets.

    The cross block between the parties is Toeplitz with offset -(N+L)
    (Alice's sites sit left of the gap).  Its top-m singular triplets
    (s_i, w_i, z_i) determine the kept subspace; the off-diagonal block
    of the assembled covariance is exactly diag(s_1, s_1, ..., s_m, s_m)
    in the chosen frame, so the canonical isometry is the identity, and
    the diagonal blocks are interleavings of the compressions
    w^T F_0 w and z^T F_0 z of the intra-block kernel.  Returns the
    covariance, its split and the canonical choice, as `optimal_choice`
    would give them for the dense covariance.
    """
    if m < 2:
        raise ValidationError("protocol needs m >= 2")
    L, N = geometry.L, geometry.N
    if 2 * m > 2 * L:
        raise ValidationError("2m may not exceed the 2L modes available")
    cross = ToeplitzKernel(L, -(N + L))
    triplets, steps = top_singular_triplets(cross, m, tol=tol, seed=seed)
    intra = ToeplitzKernel(L, 0)
    w = np.column_stack([t.u for t in triplets])
    z = np.column_stack([t.v for t in triplets])
    lam = np.repeat(2.0 * np.array([t.sigma for t in triplets]), 2)

    f0w = np.column_stack([intra.matvec(w[:, i]) for i in range(m)])
    f0z = np.column_stack([intra.matvec(z[:, i]) for i in range(m)])
    cov, split = assemble_covariance(
        BlockDecomposition(2.0 * _interleave(w.T @ f0w), np.diag(lam), 2.0 * _interleave(z.T @ f0z))
    )
    report = validate(cov)
    if not report.passed:
        raise ValidationError("assembled lattice covariance invalid:\n" + report.summary())
    # the kernel's sigma come in exact pairs iff N is odd, so the cut after
    # sigma_m splits a pair iff m is odd as well
    warnings = (_degenerate_cut_warning(2 * m),) if N % 2 and m % 2 else ()
    identity = RealProjectionPair.identity(2 * m, 2 * m)
    return cov, split, ProtocolChoice(m, identity, lam, warnings, steps)


def lattice_point(
    geometry: LatticeGeometry, m: int = 2, tol: float = 1e-10, seed: int = 0
) -> DistillationReport:
    """Protocol quantities for one (L, N) geometry via the iterative route."""
    cov, split, choice = restricted_covariance(geometry, m=m, tol=tol, seed=seed)
    return _evaluate(blocks(cov, split), choice)


def dense_covariance(geometry: LatticeGeometry) -> tuple[CovarianceMatrix, BipartiteSplit]:
    """Reference route: the full 4L x 4L restricted covariance, built densely.

    Index layout: position-like coordinates of all 2L sites first (Alice
    block then Bob block), momentum-like second.  Only feasible for
    small L; used to validate the iterative pipeline.
    """
    L, N = geometry.L, geometry.N
    sites = np.concatenate([np.arange(-L, 0), np.arange(N, N + L)])
    diff = sites[:, None] - sites[None, :]
    centered = _sine_kernel(diff)   # zero diagonal = centered at half filling
    g = np.block(
        [[np.zeros((2 * L, 2 * L)), centered], [-centered, np.zeros((2 * L, 2 * L))]]
    )
    s = CovarianceMatrix(0.5 * np.eye(4 * L) + 1j * g)
    alice = list(range(L)) + list(range(2 * L, 3 * L))
    return s, BipartiteSplit.from_alice(alice, 4 * L)


def dense_lattice_point(geometry: LatticeGeometry, m: int = 2) -> DistillationReport:
    """Dense reference evaluation of one geometry (small L only)."""
    s, split = dense_covariance(geometry)
    return run_protocol(s, split, m)


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
    L, N, m, tol, seed = args
    start = time.perf_counter()
    try:
        report = lattice_point(LatticeGeometry(L, N), m=m, tol=tol, seed=seed)
        return SweepRow(L, N, report, (time.perf_counter() - start) * 1e3)
    except (ValidationError, ConvergenceError) as exc:  # per-point failures recorded in-row
        return SweepRow(L, N, None, (time.perf_counter() - start) * 1e3, error=str(exc))


def sweep(
    L_values,
    N_values,
    m: int = 2,
    tol: float = 1e-10,
    seed: int = 0,
    jobs: int = 1,
) -> list[SweepRow]:
    """Evaluate the (L, N) grid; points are independent and seedable.

    Per-point seeds are derived deterministically from the master seed
    and the point's position, so rows are reproducible regardless of
    execution order or the number of workers.
    """
    if not len(L_values) or not len(N_values):
        raise ValidationError("sweep needs nonempty L and N lists")
    tasks = []
    for i, L in enumerate(L_values):
        for j, N in enumerate(N_values):
            point_seed = int(np.random.SeedSequence([seed, i, j]).generate_state(1)[0])
            tasks.append((int(L), int(N), m, tol, point_seed))
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


def min_length(
    N: int,
    x: float,
    L_lo: int,
    L_hi: int,
    m: int = 2,
    tol: float = 1e-10,
    seed: int = 0,
) -> int:
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
            rep = lattice_point(LatticeGeometry(L, N), m=m, tol=tol, seed=seed)
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
