"""Exact dense simulation of small fermionic systems.

Everything here works on the full 2^n-dimensional Hilbert space and is
used to verify the Pfaffian formulas by brute force.  n is capped at
MAX_MODES = 6 (a 64 x 64 space) as a memory/time guard.

The Jordan-Wigner operators, and every product of them, have one
nonzero per row: op[i, i ^ x] = values[i].  Every operator of the
oracle is built in this Pauli-string form (x, values) straight from the
Jordan-Wigner formula: the Majorana operators, the parity monomials and
joint-parity projectors, the annihilator sum whose null vector is a
Fock vector, and the monomials of the density matrix, one gather per
flip pattern.  Dense matrices appear only in rho, its posteriors and
the eigh calls.

Convention note: the ladder operators are defined so that c_k^* (not
c_k) annihilates the reference vacuum, i.e. our c_k is the creation
operator in the more common convention.  Concretely the Majorana set is

    B_a     = (c_a + c_a^*) / sqrt(2)          a = 1..n
    B_{a+n} = i (c_a - c_a^*) / sqrt(2)        a = 1..n

indexed canonically: position-like operators first, momentum-like
second.  A covariance S expressed in another real-basis ordering, whose
index k labels canonical operator perm[k], is permuted to the canonical
ordering first: S[np.ix_(inv, inv)] with inv = np.argsort(perm).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import as_real, pfaffian  # noqa: F401 -- perfbench/spans.targets looks pfaffian up
from .states import (
    BipartiteSplit,
    CovarianceMatrix,
    ValidationError,
    fock_fidelity,
    parity_expectation,
    parity_probability,
    partner_projection,
    target_orientation,
)

MAX_MODES = 6
# Flip patterns per gather in density_from_covariance.  Two keep each
# temporary at 2 * 4^n complex numbers (128 KiB at n = 6); four or more
# raised the peak RSS of a process running the oracle by about 0.5 MB.
_GATHER_BLOCK = 2

__all__ = [
    "density_from_covariance",
    "fock_vector",
    "joint_parity",
    "verify_all",
    "OracleReport",
]


def _check_modes(n: int):
    if not 1 <= n <= MAX_MODES:
        raise ValidationError(f"dense oracle supports 1 <= n <= {MAX_MODES}, got {n}")


def _oracle_matrix(s: CovarianceMatrix | np.ndarray) -> tuple[np.ndarray, int]:
    """The S of a covariance-like oracle input and its mode count n.

    A raw array is read as given, not through `CovarianceMatrix.from_s`,
    so the oracle stays independent of the package's conversion; only its
    real and imaginary parts pass `as_real`.  The one shape check of every
    entry point that takes a covariance: square, 2n x 2n, 1 <= n <= MAX_MODES.
    """
    m = np.asarray(getattr(s, "matrix", s), dtype=complex)
    as_real((m.real, m.imag), "S as (Re S, Im S)")
    n = m.shape[0] // 2 if m.ndim == 2 else 0
    if m.shape != (2 * n, 2 * n) or not 1 <= n <= MAX_MODES:
        raise ValidationError(
            f"dense oracle supports 1 <= n <= {MAX_MODES}, i.e. a square 2n x 2n input;"
            f" got shape {m.shape}"
        )
    return m, n


def _dense(x: int, values: np.ndarray) -> np.ndarray:
    """The matrix of the Pauli string (x, values): op[i, i ^ x] = values[i]."""
    rows = np.arange(len(values))
    op = np.zeros((len(rows), len(rows)), dtype=complex)
    op[rows, rows ^ x] = values
    return op


@functools.cache
def _majorana_strings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli strings (xs, values) of the 2n Majorana operators.

    B_a[i, i ^ xs[a]] = values[a, i].  Mode j flips bit n - 1 - j (the
    first Kronecker factor is the most significant bit) and carries the
    Jordan-Wigner sign z(i), the parity of i's bits for modes 0..j-1;
    B_j has values z / sqrt(2) and B_{j+n} has i (2 occupied_j(i) - 1)
    z / sqrt(2).  Built once per n (n <= MAX_MODES) and returned
    read-only, since every caller shares the cached arrays.
    """
    _check_modes(n)
    pop, _ = _bit_tables(n)
    rows = np.arange(1 << n)
    shift = n - np.arange(n)[:, None]  # modes 0..j-1 are the top j bits
    z = 1.0 - 2.0 * (pop[rows >> shift] % 2)
    occupied = (rows >> (shift - 1)) & 1
    flips = np.int64(1) << (shift[:, 0] - 1)
    values = np.concatenate([z, 1j * (2 * occupied - 1) * z]) / np.sqrt(2)
    xs = np.concatenate([flips, flips])
    xs.flags.writeable = values.flags.writeable = False
    return xs, values


@functools.cache
def _bit_tables(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Popcount and lowest set bit of every mask below 2^bits.

    Built by doubling in int64: masks in [2^b, 2^(b+1)) are those below
    2^b with bit b added.  The lowest bit of mask 0 is left at 0.  Built
    once per size (bits <= 2 * MAX_MODES) and returned read-only.
    """
    pop = np.zeros(1 << bits, dtype=np.int64)
    low = np.zeros(1 << bits, dtype=np.int64)
    for b in range(bits):
        size = 1 << b
        pop[size : 2 * size] = pop[:size] + 1
        low[size : 2 * size] = low[:size]
        low[size] = b
    pop.flags.writeable = low.flags.writeable = False
    return pop, low


def _wick_table(s: np.ndarray) -> np.ndarray:
    """Pfaffian of every even-subset minor of the two-point matrix.

    Indexed by bitmask over the 2n Majorana indices; odd masks hold 0.
    Each Pfaffian is the Laplace expansion along the lowest set bit,
    Pf(S_M) = sum_j (-1)^(pos_j - 1) S[low, j] Pf(S_{M - low - j}),
    evaluated one popcount level at a time: every (mask, j) pair of a
    level comes from one `np.nonzero`, and its terms, which read only
    the finished level below, are summed per mask with one
    `np.bincount` pair.
    """
    dim = s.shape[0]
    pop, low = _bit_tables(dim)
    table = np.zeros(1 << dim, dtype=complex)
    table[0] = 1.0
    bits = np.arange(dim)
    for k in range(2, dim + 1, 2):
        level = np.flatnonzero(pop == k)
        first = low[level]
        rest = level & ~(np.int64(1) << first)
        row, j = np.nonzero((rest[:, None] >> bits) & 1)
        sub, bit = rest[row], np.int64(1) << j
        # pos_j - 1 = set bits of the mask strictly between low and j
        sign = 1.0 - 2.0 * (pop[sub & (bit - 1)] % 2)
        terms = sign * s[first[row], j] * table[sub ^ bit]
        table[level] = np.bincount(row, terms.real, len(level)) + 1j * np.bincount(
            row, terms.imag, len(level)
        )
    return table


def _monomials(xs: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pauli strings of the 2^len(xs) ordered monomials, by doubling.

    Monomial `mask` is the product of the operators whose bits are set, in
    ascending order; appending the operator of bit b to every monomial
    below 2^b gives those in [2^b, 2^(b+1)).
    """
    rows = np.arange(values.shape[1])
    out_x = np.zeros(1 << len(xs), dtype=np.int64)
    out_v = np.ones((1 << len(xs), len(rows)), dtype=complex)
    for b, (x_b, v_b) in enumerate(zip(xs, values)):
        size = 1 << b
        out_x[size : 2 * size] = out_x[:size] ^ x_b
        out_v[size : 2 * size] = out_v[:size] * v_b[rows ^ out_x[:size, None]]
    return out_x, out_v


def density_from_covariance(s: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """Density matrix of the quasifree state with covariance S.

    rho = sum over even index sets M of 2^(|M| - n) conj(Pf S_M) B_M,
    where B_M is the ordered Majorana monomial: matching traces against
    the Wick (Pfaffian) moments fixes each coefficient.  The monomials of
    the first n and of the last n Pauli strings are tabulated
    separately, and B_M for M = a + b is the product of half monomials
    a and b.  B_j and B_{j+n} flip the same bit, so both tables share
    the flips xa and B_M flips xa[a ^ b]: each flip pattern d (even, as
    odd sets have Pf 0) fills rho[i, i ^ xa[d]] with one gather and sum,
    sum_a coef[a, a ^ d] va[a, i] vb[a ^ d, i ^ xa[a]], taken a block of
    patterns at a time to bound the memory.  Validates unit trace,
    hermiticity and positivity before returning.
    """
    m, n = _oracle_matrix(s)
    xs, values = _majorana_strings(n)
    hdim = 1 << n
    xa, va = _monomials(xs[:n], values[:n])
    _, vb = _monomials(xs[n:], values[n:])
    pop, _ = _bit_tables(n)
    # coefficient of monomial a | b << n at [a, b]
    weight = 2.0 ** (pop[:, None] + pop[None, :] - n)
    coef = weight * np.conj(_wick_table(m)).reshape(hdim, hdim).T

    rows = np.arange(hdim)
    cols = rows ^ xa[:, None]  # [a, i] = i ^ xa[a]
    even = np.flatnonzero(pop % 2 == 0)
    rho = np.zeros((hdim, hdim), dtype=complex)
    for start in range(0, len(even), _GATHER_BLOCK):
        d = even[start : start + _GATHER_BLOCK, None]
        b = rows ^ d  # [d, a] = a ^ d
        shifted = vb.ravel()[(b[:, :, None] << n) | cols]  # vb[a ^ d, i ^ xa[a]]
        rho[rows, rows ^ xa[d]] = ((coef[rows, b][:, :, None] * va) * shifted).sum(axis=1)

    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-9:
        raise ValidationError(f"density matrix trace {tr:.6f} != 1")
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        raise ValidationError("density matrix is not hermitian")
    evmin = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if evmin < -1e-9:
        raise ValidationError(
            f"density matrix has negative eigenvalue {evmin:.3e}: invalid covariance?"
        )
    return rho


def fock_vector(e: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """State vector of the pure quasifree state with basis projection E.

    The vector is the common null vector of the smeared operators
    B(g) = sum_a g_a B_a over the kernel of E, found as the null vector
    of sum_k B(g_k)^* B(g_k) = sum_ab C_ab B_a B_b with C = conj(K) K^T
    over the kernel columns K.  Each B_a B_b is the Pauli string
    (x_a ^ x_b, v_a[i] v_b[i ^ x_a]), so the sum is one scatter.  The
    vector is unique up to phase, and the phase returned here is
    whatever the eigensolver produces.
    """
    m, n = _oracle_matrix(e)
    w, vecs = np.linalg.eigh(m)
    if np.abs(w - np.rint(w)).max() > 1e-8:
        raise ValidationError("E is not a projection (eigenvalues not 0/1)")
    kernel = vecs[:, w < 0.5]
    xs, values = _majorana_strings(n)
    hdim = 1 << n
    rows = np.arange(hdim)
    cols = rows ^ xs[:, None]  # [a, i] = i ^ x_a
    c = kernel.conj() @ kernel.T
    # [a, b, i]: C_ab v_a[i] v_b[i ^ x_a], at column i ^ x_a ^ x_b of row i
    terms = c[:, :, None] * values[:, None] * values[:, cols].swapaxes(0, 1)
    flat = (rows * hdim + (cols[:, None] ^ xs[:, None])).ravel()
    acc = np.bincount(flat, terms.real.ravel(), hdim * hdim) + 1j * np.bincount(
        flat, terms.imag.ravel(), hdim * hdim
    )
    wa, va = np.linalg.eigh(acc.reshape(hdim, hdim))
    if wa[0] > 1e-9 or (len(wa) > 1 and wa[1] < 1e-8):
        raise ValidationError(
            f"annihilator null space is not one-dimensional: lowest eigenvalues {wa[:3]}"
        )
    return va[:, 0]


def _parity_string(n: int, indices) -> tuple[int, np.ndarray]:
    """Parity monomial 2^(k/2) i^(k/2) prod B_a over 2k indices, as a Pauli string (x, values).

    The product of the n-mode operators is taken in ascending index
    order; using a subset that spans one party's reference space yields
    that party's local parity.
    """
    idx = sorted(int(i) for i in indices)
    if len(idx) % 2 != 0:
        raise ValidationError("parity monomial needs an even number of indices")
    if idx and not 0 <= idx[0] <= idx[-1] < 2 * n:
        raise ValidationError(f"parity indices must lie in [0, {2 * n}), got {idx[0]}..{idx[-1]}")
    if len(set(idx)) < len(idx):
        raise ValidationError("parity indices must be distinct")
    half = len(idx) // 2
    xs, values = _majorana_strings(n)
    rows = np.arange(1 << n)
    x, v = 0, np.ones(1 << n, dtype=complex)
    for a in idx:
        v = v * values[a][rows ^ x]
        x ^= xs[a]
    return x, (2.0 ** half) * (1j ** half) * v


@dataclass(frozen=True)
class JointParityResult:
    probabilities: dict[str, float]
    posterior: dict[str, np.ndarray]


def joint_parity(rho: np.ndarray, split: BipartiteSplit) -> JointParityResult:
    """Joint local-parity measurement of an n-mode rho over the given split.

    n is read off the 2^n x 2^n shape of rho.  Builds theta_A as the
    parity monomial over Alice's indices and theta_B = theta * theta_A,
    so the product of local parities is the global parity by
    construction.  The global parity theta flips no bit, so theta_B and
    theta_A theta_B are Pauli strings too, and each projector
    (1 + la theta_A)(1 + lb theta_B)/4 is the scatter of four strings.
    Returns outcome probabilities and unnormalized posterior operators
    P rho P for the four outcomes.
    """
    as_real((np.real(rho), np.imag(rho)), "density matrix as (Re, Im)")
    shape = np.shape(rho)
    n = shape[0].bit_length() - 1 if shape else 0
    if n < 0 or shape != (1 << n, 1 << n):
        raise ValidationError(f"density matrix of shape {shape} is not 2^n x 2^n")
    _, theta = _parity_string(n, range(2 * n))
    xa, theta_a = _parity_string(n, split.a)
    rows = np.arange(1 << n)
    theta_b = theta * theta_a  # flips xa
    both = theta_a * theta_b[rows ^ xa]  # theta_A theta_B flips no bit
    probs: dict[str, float] = {}
    post: dict[str, np.ndarray] = {}
    for ja, la in (("+", 1), ("-", -1)):
        for jb, lb in (("+", 1), ("-", -1)):
            proj = _dense(xa, 0.25 * (la * theta_a + lb * theta_b))
            proj[rows, rows] += 0.25 * (1 + la * lb * both)
            key = ja + jb
            left = proj @ rho
            probs[key] = float(np.trace(left).real)
            post[key] = left @ proj
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-10:
        raise ValidationError(f"joint parity probabilities sum to {total:.12f}")
    return JointParityResult(probs, post)


@dataclass
class OracleReport:
    """Named deviations between Pfaffian formulas and the dense oracle."""

    deviations: dict[str, float]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())

    def summary(self) -> str:
        lines = [f"{k}: {v:.3e}" for k, v in sorted(self.deviations.items())]
        lines.append(f"max: {self.max_deviation:.3e}")
        return "\n".join(lines)


def verify_all(
    s: CovarianceMatrix | np.ndarray,
    e: CovarianceMatrix | np.ndarray,
    split: BipartiteSplit,
) -> OracleReport:
    """Brute-force check of every closed formula on one (S, E, split) triple.

    Covers the parity-expectation trace identity, the parity-probability
    formula, the fidelity Pfaffian, and the output-fidelity identity
    relating posterior overlaps to the two fidelities.  All comparisons
    are phase-insensitive.
    """
    rho = density_from_covariance(s)
    n = len(rho).bit_length() - 1
    dev: dict[str, float] = {}

    # parity expectation vs trace against the parity operator, which
    # flips no bit: tr(rho theta) = sum_i rho[i, i] theta[i]
    _, theta = _parity_string(n, range(2 * n))
    lhs = float((np.diagonal(rho) @ theta).real)
    dev["parity_expectation"] = abs(lhs - parity_expectation(s))

    # parity probability vs the oracle sector weight of the target E
    orient = target_orientation(e)
    result = joint_parity(rho, split)
    sector = orient * ((-1) ** (n // 2))
    if sector > 0:
        p_oracle = result.probabilities["++"] + result.probabilities["--"]
    else:
        p_oracle = result.probabilities["+-"] + result.probabilities["-+"]
    p_formula = parity_probability(s, orientation=orient)
    dev["parity_probability"] = abs(p_oracle - p_formula)

    # fidelity with E and with its partner
    psi_e = fock_vector(e)
    fid_e_oracle = float((psi_e.conj() @ rho @ psi_e).real)
    dev["fidelity"] = abs(fid_e_oracle - fock_fidelity(s, e))
    e_part = partner_projection(e, split)
    psi_t = fock_vector(e_part)
    fid_t_oracle = float((psi_t.conj() @ rho @ psi_t).real)
    dev["fidelity_partner"] = abs(fid_t_oracle - fock_fidelity(s, e_part))

    # output fidelity: (fid_E + fid_partner)/p equals the posterior overlap
    if p_oracle > 1e-9:
        keep = ("++", "--") if sector > 0 else ("+-", "-+")
        overlap = sum(
            float((psi_e.conj() @ result.posterior[k] @ psi_e).real) for k in keep
        )
        lhs_f = 2.0 * overlap / p_oracle
        rhs_f = (fid_e_oracle + fid_t_oracle) / p_oracle
        dev["output_fidelity"] = abs(lhs_f - rhs_f)
    return OracleReport(dev)
