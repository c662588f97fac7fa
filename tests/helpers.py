"""Test-only oracles, kept independent of the library code paths they check.

Also the reference constructions that only tests use: the dense Majorana
operators (from the package's Pauli strings and from Kronecker
products), the dense-matrix routes of the Fock oracle (smeared
operators, Fock vectors, parity monomials, joint parity), the dense
lattice route and the independent one at 10^4-10^5 sites (subspace
iteration with power-of-two FFT products), the sine kernel by a gather
over q mod 4, the dense matrix of a kernel or of a parity-block view
from it, circulant embeddings built from it and the whole kernel's
product through its full-length embedding, sampled rows of sine-kernel
products by direct sums, Lanczos with two Gram-Schmidt passes at every
step on one full-length basis, Haar-random orthogonal matrices, the
Gram-Schmidt frames of Gaussian draws and their Householder QR oracle,
the polar decomposition (the V oracle), the twirl coefficients and
output fidelity of the twirled-state route, random pure states, the
global parity operator, and the closed-form covariances written out
entry by entry (the oracle for their block assembly).
"""

import math

import numpy as np

from fermidistill.fock import (
    JointParityResult,
    _check_modes,
    _dense,
    _majorana_strings,
    _parity_string,
)
from fermidistill.lattice import (
    KRYLOV_TOL,
    MAX_STEPS,
    ConvergenceError,
    LatticeGeometry,
    _smooth_length,
)
from fermidistill.linalg import RANK_RTOL, _orthonormalise, svd
from fermidistill.protocol import DistillationReport, run_protocol
from fermidistill.states import (
    STRUCT_ATOL,
    BipartiteSplit,
    CovarianceMatrix,
    ValidationError,
    validate,
)


def pfaffian_combinatorial(a: np.ndarray):
    """Sum over perfect matchings; O(n!!), usable up to dim ~10."""
    a = np.asarray(a)
    n = a.shape[0]
    if n % 2:
        raise ValueError("odd dimension")
    if n == 0:
        return 1.0

    def rec(idx):
        if not idx:
            return 1.0
        first = idx[0]
        total = 0.0
        for pos in range(1, len(idx)):
            rest = idx[1:pos] + idx[pos + 1:]
            total += (-1) ** (pos - 1) * a[first, idx[pos]] * rec(rest)
        return total

    return rec(tuple(range(n)))


def random_antisymmetric(dim: int, rng) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return (a - a.T) / 2


def dense_sine_toeplitz(L: int, r: int) -> np.ndarray:
    """Entrywise construction of the block-correlation kernel, no FFT."""
    out = np.zeros((L, L))
    for j in range(L):
        for k in range(L):
            q = j - k + r
            if q != 0:
                out[j, k] = np.sin(q * np.pi / 2.0) / (q * np.pi)
    return out


def sine_kernel_gather(q: np.ndarray) -> np.ndarray:
    """The sine kernel t(q) = sin(q pi/2)/(q pi), t(0) = 0, from a gather over q mod 4.

    sin(q pi/2) cycles through 0, 1, 0, -1 with q mod 4, so even offsets
    are exact zeros; the zero at q = 0 encodes the vanishing diagonal of
    the centered correlation matrix at half filling.
    """
    q = np.asarray(q)
    return np.array([0.0, 1.0, 0.0, -1.0])[q & 3] / (np.where(q == 0, 1, q) * np.pi)


def circulant_column(shape, stride: int, r: int, m: int) -> np.ndarray:
    """First column of the length-m circulant that embeds A, A[j, k] = t(stride (j - k) + r).

    The diagonal j - k = i sits at i mod m, with t from `sine_kernel_gather`;
    m >= shape[0] + shape[1] - 1 keeps the two ends apart.
    """
    rows, cols = shape
    col = np.zeros(m)
    col[:rows] = sine_kernel_gather(np.arange(r, r + stride * rows, stride))
    col[m - cols + 1 :] = sine_kernel_gather(np.arange(r - stride * (cols - 1), r, stride))
    return col


def full_length_product(L: int, r: int, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """F x (or F^T x) for the L x L sine kernel with offset r, by one FFT product
    at `_smooth_length(2L - 1)` points: the full circulant, both parities of
    its column, with no decimation.  A real circulant's transpose has the
    conjugate spectrum."""
    m = _smooth_length(2 * L - 1)
    spectrum = np.fft.rfft(circulant_column((L, L), 1, r, m))
    if transpose:
        spectrum = np.conj(spectrum)
    return np.fft.irfft(spectrum * np.fft.rfft(x, m), m)[:L]


def sine_toeplitz_rows(shape, stride: int, r: int, x: np.ndarray, rows) -> np.ndarray:
    """Rows `rows` of A x by direct sums, A the shape[0] x shape[1] matrix t(stride (j - k) + r).

    (A x)_j = sum_k t(stride (j - k) + r) x_k, with t from `sine_kernel_gather`
    and no FFT: O(shape[1]) per row, so a few sampled rows check products at
    lengths no dense matrix reaches.  A^T is the same form with offset -r, as
    t is even.
    """
    n_rows, cols = shape
    t = sine_kernel_gather(stride * np.arange(1 - cols, n_rows) + r)  # t[j - k + cols - 1]
    return np.array([t[j : j + cols] @ x[::-1] for j in rows])


def lanczos_two_pass(matvec, start, k):
    """Symmetric Lanczos for the k Ritz pairs of largest |theta| of an n x n operator.

    One product per step.  Full reorthogonalization at every step (the
    Krylov basis stays small here, so the cost is negligible and ghost
    values are excluded).  The basis is stored row-major, so basis vector
    j is the contiguous row `q[j]` and reorthogonalization is (Q w) Q over
    the rows filled so far; it starts at max(16, 2k + 8) rows and doubles
    when full.

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
        w = matvec(q[j])
        alphas[j] = q[j] @ w
        w = w - alphas[j] * q[j]
        if j > 0:
            w -= betas[j - 1] * q[j - 1]
        w -= (q[: j + 1] @ w) @ q[: j + 1]
        w -= (q[: j + 1] @ w) @ q[: j + 1]
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
        q[jj] = w / betas[j]
    else:
        raise ConvergenceError(f"Lanczos did not converge in {steps} steps", residuals=res)

    x = s[:, keep].T @ q[:jj]
    return theta[keep], x / np.linalg.norm(x, axis=1)[:, None], jj


def dense_covariance(geometry: LatticeGeometry) -> tuple[CovarianceMatrix, BipartiteSplit]:
    """Reference route: the full 4L x 4L restricted covariance, built densely.

    Index layout: position-like coordinates of all 2L sites first (Alice
    block then Bob block), momentum-like second.  Only feasible for
    small L; used to validate the iterative pipeline.
    """
    L, N = geometry.L, geometry.N
    sites = np.concatenate([np.arange(-L, 0), np.arange(N, N + L)])
    diff = sites[:, None] - sites[None, :]
    centered = sine_kernel_gather(diff)   # zero diagonal = centered at half filling
    g = np.block(
        [[np.zeros((2 * L, 2 * L)), centered], [-centered, np.zeros((2 * L, 2 * L))]]
    )
    s = CovarianceMatrix(g)
    alice = list(range(L)) + list(range(2 * L, 3 * L))
    return s, BipartiteSplit.from_alice(alice, 4 * L)


def dense_lattice_point(geometry: LatticeGeometry, m: int = 2) -> DistillationReport:
    """Dense reference evaluation of one geometry (small L only)."""
    s, split = dense_covariance(geometry)
    return run_protocol(s, split, m)


def independent_lattice_point(geometry: LatticeGeometry, m: int = 2) -> DistillationReport:
    """Reference evaluation of one geometry at 10^4-10^5 sites, by another route than the
    lattice pipeline's: no `ToeplitzKernel`, no parity block and no Lanczos.

    Every product is one plain power-of-two FFT convolution of the circulant
    column from `sine_kernel_gather` (`circulant_column`).  Block subspace
    iteration on the whole cross kernel F (Rutishauser, Numer. Math. 16
    (1970) 205; Halko, Martinsson & Tropp, SIAM Rev. 53 (2011) 217): b = 2m + 4
    orthonormal columns V from a fixed seed, V <- qr(F^T F V), until the top
    2m singular values of F V move by at most 1e-13 sigma_1.  The SVD of F V
    gives the m triplets (sigma_i, u_i, V y_i); the covariance is
    `dense_covariance`'s formula compressed to the frames u_i on x_A and p_A
    and v_i on x_B and p_B, with the intra compressions from the same
    convolution at offset 0, and `run_protocol` evaluates it.
    """
    L, N = geometry.L, geometry.N
    n = 1 << (2 * L - 2).bit_length()  # the smallest power of two >= 2L - 1

    def kernel(r):  # products with the rows of x
        spectrum = np.fft.rfft(circulant_column((L, L), 1, r, n))
        return lambda x: np.fft.irfft(spectrum * np.fft.rfft(x, n), n)[:, :L]

    cross, cross_t, intra = kernel(-(N + L)), kernel(N + L), kernel(0)  # F^T has offset -r
    v = np.linalg.qr(np.random.default_rng(0).standard_normal((L, 2 * m + 4)))[0].T
    values = np.full(2 * m, np.inf)
    for _ in range(50):
        fv = cross(v)
        left, sig, right = np.linalg.svd(fv.T, full_matrices=False)
        if np.max(np.abs(sig[: 2 * m] - values)) <= 1e-13 * sig[0]:
            break
        values = sig[: 2 * m]
        v = np.linalg.qr(cross_t(fv).T)[0].T
    else:
        raise ConvergenceError("subspace iteration did not converge in 50 steps")
    u, z = left[:, :m].T, right[:m] @ v  # the triplets' vectors as rows
    uz = u @ cross(z).T
    c = np.block([[u @ intra(u).T, uz], [uz.T, z @ intra(z).T]])
    c = (c + c.T) / 2  # the compression of a symmetric kernel, rounding removed
    zero = np.zeros((2 * m, 2 * m))
    s = CovarianceMatrix(np.block([[zero, c], [-c, zero]]))
    alice = list(range(m)) + list(range(2 * m, 3 * m))
    return run_protocol(s, BipartiteSplit.from_alice(alice, 4 * m), m)


def kernel_matrix(kern) -> np.ndarray:
    """The dense matrix of a `ToeplitzKernel` or of one of its parity-block views.

    F[j, k] = t(j - k + r) from `sine_kernel_gather`; the view of input
    sublattice q is F[p::2, q::2], p = (r + 1 + q) mod 2.
    """
    rows = cols = np.arange(kern.L)
    if kern._q is not None:
        rows, cols = rows[(kern.r + 1 + kern._q) % 2 :: 2], cols[kern._q :: 2]
    return sine_kernel_gather(np.subtract.outer(rows, cols) + kern.r)


def orthogonal_2x2_grid(steps: int = 2001):
    """All of O(2) on an angle grid: rotations and reflections."""
    for phi in np.linspace(0.0, 2.0 * np.pi, steps):
        c, s = np.cos(phi), np.sin(phi)
        yield np.array([[c, -s], [s, c]])
        yield np.array([[-c, s], [s, c]])


def wick_table_recursive(s: np.ndarray) -> dict[int, complex]:
    """Pfaffian of every even-subset minor, keyed by index bitmask.

    The expansion along the lowest set bit, memoized across subsets.
    """
    dim = s.shape[0]
    table: dict[int, complex] = {0: 1.0 + 0.0j}

    def value(mask: int) -> complex:
        cached = table.get(mask)
        if cached is not None:
            return cached
        idx = [i for i in range(dim) if mask >> i & 1]
        first = idx[0]
        acc = 0.0 + 0.0j
        sign = 1.0
        for pos in range(1, len(idx)):
            j = idx[pos]
            sub = mask & ~(1 << first) & ~(1 << j)
            acc += sign * s[first, j] * value(sub)
            sign = -sign
        table[mask] = acc
        return acc

    for mask in range(1 << dim):
        if bin(mask).count("1") % 2 == 0:
            value(mask)
    return table


def majorana_ops(n: int) -> list[np.ndarray]:
    """The 2n Majorana operators on the 2^n-dimensional Fock space.

    Selfadjoint, with anticommutators {B_a, B_b} = delta_ab * 1 (note the
    normalization B_a^2 = 1/2).  The dense view of the Jordan-Wigner
    Pauli strings, one scatter per operator.
    """
    xs, values = _majorana_strings(n)
    return [_dense(x, v) for x, v in zip(xs, values)]


def majorana_ops_kron(n: int) -> list[np.ndarray]:
    """The 2n Majorana operators as Kronecker products of 2 x 2 factors.

    Jordan-Wigner ladder operators Z x ... x Z x lower x 1 x ... x 1,
    the first factor acting on the most significant bit.
    """
    _check_modes(n)
    eye2 = np.eye(2)
    zphase = np.diag([1.0, -1.0])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    ladders = []
    for j in range(n):
        factors = [zphase] * j + [lower] + [eye2] * (n - j - 1)
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ladders.append(op)
    ops = [(a.conj().T + a) / np.sqrt(2) for a in ladders]
    ops += [1j * (a.conj().T - a) / np.sqrt(2) for a in ladders]
    return ops


def density_dense_products(s: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    """rho = sum over even index sets M of 2^(|M| - n) conj(Pf S_M) B_M.

    Every ordered monomial is one dense product, depth first over index
    subsets, extending each monomial by one factor with a larger index.
    No trace, hermiticity or positivity check.
    """
    dim = s.shape[0]
    n = dim // 2
    wick = wick_table_recursive(s)
    hdim = ops[0].shape[0]
    rho = np.zeros((hdim, hdim), dtype=complex)
    stack = [(0, 0, np.eye(hdim, dtype=complex))]
    while stack:
        mask, start, mono = stack.pop()
        k = bin(mask).count("1")
        if k % 2 == 0:
            rho += (2.0 ** (k - n)) * np.conj(wick[mask]) * mono
        for b in range(start, dim):
            stack.append((mask | (1 << b), b + 1, mono @ ops[b]))
    return rho


def smear(ops: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """B(x) = sum_a x_a B_a, complex linear in the reference vector x."""
    out = np.zeros_like(ops[0])
    for coeff, op in zip(np.asarray(x), ops):
        if coeff != 0:
            out = out + coeff * op
    return out


def fock_vector_smeared(e: np.ndarray) -> np.ndarray:
    """State vector of the pure quasifree state with basis projection E.

    The null vector of sum_k B(g_k)^* B(g_k) over the kernel vectors g_k
    of E, each B(g_k) smeared from the dense operators and multiplied
    densely.  Unique up to phase.
    """
    m = np.asarray(e, dtype=complex)
    ops = majorana_ops(m.shape[0] // 2)
    w, vecs = np.linalg.eigh(m)
    if np.abs(w - np.rint(w)).max() > 1e-8:
        raise ValidationError("E is not a projection (eigenvalues not 0/1)")
    kernel = vecs[:, w < 0.5]
    acc = np.zeros_like(ops[0])
    for k in range(kernel.shape[1]):
        op = smear(ops, kernel[:, k])
        acc += op.conj().T @ op
    wa, va = np.linalg.eigh(acc)
    if wa[0] > 1e-9 or (len(wa) > 1 and wa[1] < 1e-8):
        raise ValidationError(
            f"annihilator null space is not one-dimensional: lowest eigenvalues {wa[:3]}"
        )
    return va[:, 0]


def parity_from_indices(n: int, indices) -> np.ndarray:
    """Parity monomial 2^(k/2) i^(k/2) prod B_a over the given 2k indices.

    The product of the n-mode operators is taken in ascending index
    order; using a subset that spans one party's reference space yields
    that party's local parity.
    """
    return _dense(*_parity_string(n, indices))


def parity_dense_products(n: int, indices) -> np.ndarray:
    """Parity monomial 2^(k/2) i^(k/2) prod B_a as dense products, ascending."""
    idx = sorted(int(i) for i in indices)
    half = len(idx) // 2
    ops = majorana_ops(n)
    out = np.eye(1 << n, dtype=complex)
    for a in idx:
        out = out @ ops[a]
    return (2.0 ** half) * (1j ** half) * out


def joint_parity_dense_products(rho: np.ndarray, split) -> JointParityResult:
    """Joint local-parity measurement from dense projector products.

    theta_A over Alice's indices, theta_B = theta @ theta_A, and each
    projector (1 + la theta_A)(1 + lb theta_B)/4 as a matrix product.
    No shape or normalisation check.
    """
    n = rho.shape[0].bit_length() - 1
    theta = parity_dense_products(n, range(2 * n))
    theta_a = parity_dense_products(n, split.a)
    theta_b = theta @ theta_a
    eye = np.eye(1 << n)
    probs: dict[str, float] = {}
    post: dict[str, np.ndarray] = {}
    for ja, la in (("+", 1), ("-", -1)):
        for jb, lb in (("+", 1), ("-", -1)):
            proj = 0.25 * (eye + la * theta_a) @ (eye + lb * theta_b)
            key = ja + jb
            probs[key] = float(np.trace(proj @ rho).real)
            post[key] = proj @ rho @ proj
    return JointParityResult(probs, post)


def random_orthogonal(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-random real orthogonal matrix, deterministic per seed: `haar_frame` of a Gaussian draw."""
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    return haar_frame(np.random.default_rng(seed).standard_normal((dim, dim)))


def haar_frame(g: np.ndarray) -> np.ndarray:
    """Orthonormal frame of the columns of g (..., n, k), k <= n, by Gram-Schmidt.

    Each column is orthogonalised twice against the earlier ones
    (classical Gram-Schmidt applied twice is orthogonal to working
    precision: Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005)
    and normalised, by `_orthonormalise` on one batch-last copy of the
    stack.  This is Q of the reduced QR of g with diag(R) > 0, the QR
    with the signs of diag(R) absorbed, so for Gaussian g the k columns
    are a Haar-random orthonormal frame.  The first j columns of the
    frame depend only on the first j columns of g, so the frame of a
    square n x n draw starts with the frame of its first k columns.  A
    column with no component outside the span of the earlier ones
    (residual at most RANK_RTOL times its norm) raises ValidationError
    naming it.
    """
    g = np.asarray(g, dtype=float)
    lead, (n, k) = g.shape[:-2], g.shape[-2:]
    count = math.prod(lead)
    q = np.array(g.reshape(count, n * k).T, order="C").reshape(n, k, count)
    _orthonormalise(q, lead)
    return q.reshape(n * k, count).T.reshape(g.shape)


def haar_frame_householder(g: np.ndarray) -> np.ndarray:
    """Q of the Householder QR of g (..., n, k) with the signs of diag(R) absorbed."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def polar_decompose(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition y = v @ p with p = (y^dag y)^(1/2) positive.

    v is the partial isometry vanishing on the kernel of |y|: singular
    values below RANK_RTOL * sigma_max are treated as zero, so v^dag v
    is the projection onto the row space and v v^dag the projection
    onto the range of y.
    """
    u, s, vh = svd(y)
    cutoff = RANK_RTOL * s[0] if s.size and s[0] > 0 else 0.0
    r = int(np.sum(s > cutoff))
    v = u[:, :r] @ vh[:r]
    p = (vh.conj().T * s) @ vh
    return v, p


def twirl_coefficients(
    p: float, fid_e: float, fid_partner: float, m: int
) -> tuple[float, float, float, float]:
    """Coefficients (lambda+, lambda-, mu+, mu-) of the twirled state.

    Unique solution of
        p/2       = (lambda+ + lambda-)/2 + mu+ d^2
        (1 - p)/2 = mu- d^2
        fid_e     = lambda+ + mu+
        fid_partner = lambda- + mu+
    with d = 2^(m-1).  The lambdas may legitimately be negative (the
    target projectors overlap the sector projections; the twirled
    state's eigenvalues are fid_e, fid_partner, mu+ and mu-).  Inputs
    whose implied eigenvalues are negative beyond tolerance cannot come
    from a state and are rejected.
    """
    if m < 2:
        raise ValidationError("twirling needs m >= 2 (d >= 2)")
    d2 = float(4 ** (m - 1))
    mu_plus = (p - fid_e - fid_partner) / (2.0 * (d2 - 1.0))
    mu_minus = (1.0 - p) / (2.0 * d2)
    lam_plus = fid_e - mu_plus
    lam_minus = fid_partner - mu_plus
    eigen = (
        ("fidelity on the target", fid_e),
        ("fidelity on the partner", fid_partner),
        ("mu+", mu_plus),
        ("mu-", mu_minus),
    )
    for name, c in eigen:
        if c < -STRUCT_ATOL:
            raise ValidationError(
                f"twirled-state eigenvalue {name} = {c:.3e} negative: inconsistent inputs"
            )
    return (float(lam_plus), float(lam_minus), float(mu_plus), float(mu_minus))


def output_fidelity(fid_e: float, fid_partner: float, p: float, m: int) -> tuple[float, bool]:
    """Fidelity (fid_e + fid_partner)/p of the kept isotropic state.

    Also returns the distillability flag f > 1/d with d = 2^(m-1).
    """
    if p <= 0:
        raise ValidationError("output fidelity undefined at p = 0")
    f = (fid_e + fid_partner) / p
    return float(f), bool(f > 1.0 / (2 ** (m - 1)))


def random_basis_projection(n_modes: int, seed: int | np.random.Generator) -> CovarianceMatrix:
    """Random pure-state covariance: E = 1/2 + iG with 2G orthogonal."""
    r = random_orthogonal(2 * n_modes, seed)
    jc = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        jc[2 * k, 2 * k + 1] = 1.0
        jc[2 * k + 1, 2 * k] = -1.0
    g = r @ jc @ r.T / 2
    return CovarianceMatrix(g)


def parity_operator(n: int, orientation: int = 1) -> np.ndarray:
    """Parity operator 2^n i^n B_1 ... B_2n (times the orientation sign).

    Selfadjoint unitary anticommuting with every B_a; its sign flips
    under orientation-reversing relabelings of the basis.
    """
    _check_modes(n)
    return parity_from_indices(n, range(2 * n)) * (1 if orientation >= 0 else -1)


def two_mode_covariance_explicit(params) -> CovarianceMatrix:
    """`closed_forms.two_mode_covariance` written out entry by entry."""
    params.check()
    a, b, c, d = params.a, params.b, params.c, params.d
    s = 0.5 * np.array(
        [
            [1, 1j * a, 1j * c, 0],
            [-1j * a, 1, 0, 1j * d],
            [-1j * c, 0, 1, 1j * b],
            [0, -1j * d, -1j * b, 1],
        ],
        dtype=complex,
    )
    out = CovarianceMatrix.from_s(s)
    report = validate(out)
    if not report.passed:
        raise ValidationError("two-mode parameters give an invalid state:\n" + report.summary())
    return out


def four_mode_covariance_explicit(params) -> CovarianceMatrix:
    """`closed_forms.four_mode_covariance` written out entry by entry."""
    nus, sigma = params.nus, params.sigma
    s = np.zeros((8, 8), dtype=complex)
    for offset, nu in zip((0, 2, 4, 6), nus):
        s[offset, offset + 1] = 1j * nu
        s[offset + 1, offset] = -1j * nu
    # mode 1 couples to mode 3, mode 2 to mode 4, each via i*sigma*I_2
    for ra, rb in ((0, 4), (2, 6)):
        for k in range(2):
            s[ra + k, rb + k] = 1j * sigma
            s[rb + k, ra + k] = -1j * sigma
    s = (s + np.eye(8)) / 2.0
    out = CovarianceMatrix.from_s(s)
    report = validate(out)
    if not report.passed:
        raise ValidationError("four-mode parameters give an invalid state:\n" + report.summary())
    return out
