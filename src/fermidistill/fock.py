"""Exact dense simulation of small fermionic systems.

Everything here works on the full 2^n-dimensional Hilbert space and is
used to verify the Pfaffian formulas by brute force.  n is capped at
MAX_MODES = 6 (a 64 x 64 space) as a memory/time guard.

The Jordan-Wigner operators, and every product of them, have one
nonzero per row: op[i, i ^ x] = values[i].  Every operator of the
oracle is built in this Pauli-string form (x, values) straight from the
Jordan-Wigner formula: the Majorana operators, the parity monomials,
the joint-parity projectors (row and column operations on rho), the
annihilators whose product is a Fock vector, and the monomials of the
density matrix, summed by one Walsh-Hadamard product.  Dense matrices
appear only in rho, its posteriors, that product and the eigh calls.

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


@functools.cache
def _wick_levels(dim: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Index arrays of `_wick_table`, one (level, pick, sub) per popcount k = 2, 4, ..., dim.

    level lists the masks of k bits; their k - 1 terms follow mask by
    mask.  pick indexes S[low, j], times (-1)^(pos_j - 1), in S and -S
    raveled in turn, and sub is the mask without low and j.  Built once
    per size (dim <= 2 * MAX_MODES) in int16 and returned read-only.
    """
    pop, low = _bit_tables(dim)
    bits = np.arange(dim)
    levels = []
    for k in range(2, dim + 1, 2):
        level = np.flatnonzero(pop == k)
        first = low[level]
        rest = level & ~(np.int64(1) << first)
        row, j = np.nonzero((rest[:, None] >> bits) & 1)
        sub, bit = rest[row], np.int64(1) << j
        # pos_j - 1 = set bits of the mask strictly between low and j
        pick = (pop[sub & (bit - 1)] % 2 * dim + first[row]) * dim + j
        arrays = tuple(a.astype(np.int16) for a in (level, pick, sub ^ bit))
        for a in arrays:
            a.flags.writeable = False
        levels.append(arrays)
    return tuple(levels)


def _wick_table(s: np.ndarray) -> np.ndarray:
    """Pfaffian of every even-subset minor of the two-point matrix.

    Indexed by bitmask over the 2n Majorana indices; odd masks hold 0.
    Each Pfaffian is the Laplace expansion along the lowest set bit,
    Pf(S_M) = sum_j (-1)^(pos_j - 1) S[low, j] Pf(S_{M - low - j}),
    evaluated one popcount level at a time from the cached index arrays
    of `_wick_levels`: each level's terms read only the finished level
    below, and each mask sums its k - 1 adjacent terms.
    """
    dim = s.shape[0]
    signed = np.concatenate([s.ravel(), -s.ravel()])
    table = np.zeros(1 << dim, dtype=complex)
    table[0] = 1.0
    for level, pick, sub in _wick_levels(dim):
        terms = signed.take(pick) * table.take(sub)
        table[level] = terms.reshape(len(level), -1).sum(axis=1)
    return table


@functools.cache
def _density_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-n tables of `density_from_covariance`: (order, factor, signs, gather).

    Every Majorana string is c X^x Z^z, i.e. op[i, i ^ x] = c (-1)^|(i ^ x) & z|
    with |.| the popcount: x is its flip, z the bits of i on which
    values[i] / values[0] is -1, and c = values[0] (-1)^|x & z|.  As
    Z^z X^x = (-1)^|z & x| X^x Z^z, the ordered monomial B_M of every
    mask M follows by doubling as (x_M, z_M, c_M): the 4^n strings X^x Z^z,
    each once.  order lists the masks by x_M 2^n + z_M, factor is
    2^(|M| - n) c_M in that order, signs[z, j] = (-1)^|z & j|, and
    gather[i, j] = (i ^ j) 2^n + j.  Built once per n, indices in int16,
    and returned read-only.
    """
    xs, values = _majorana_strings(n)
    pop, _ = _bit_tables(2 * n)
    hdim = 1 << n
    rows = np.arange(hdim)
    unit = np.int64(1) << np.arange(n)
    zs = ((values[:, unit] / values[:, :1]).real < 0) @ unit
    cs = values[:, 0] * (1 - 2 * (pop[xs & zs] % 2))
    key = np.zeros(hdim * hdim, dtype=np.int64)  # x_M 2^n + z_M
    c = np.ones(hdim * hdim, dtype=complex)
    for b in range(2 * n):
        size = 1 << b
        key[size : 2 * size] = key[:size] ^ (xs[b] * hdim + zs[b])
        c[size : 2 * size] = c[:size] * cs[b] * (1 - 2 * (pop[key[:size] & xs[b]] % 2))
    order = np.argsort(key)
    factor = 2.0 ** (pop[order] - n) * c[order]
    signs = 1.0 - 2.0 * (pop[rows[:, None] & rows] % 2)
    gather = (rows[:, None] ^ rows) * hdim + rows
    tables = order.astype(np.int16), factor, signs, gather.astype(np.int16)
    for a in tables:
        a.flags.writeable = False
    return tables


def density_from_covariance(s: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """Density matrix of the quasifree state with covariance S.

    rho = sum over even index sets M of 2^(|M| - n) conj(Pf S_M) B_M,
    where B_M is the ordered Majorana monomial: matching traces against
    the Wick (Pfaffian) moments fixes each coefficient.  Each B_M is a
    string c_M X^x Z^z (`_density_tables`), so the coefficients, put in
    the order of (x, z), form R[x, z], and rho[i ^ x, i] = sum_z R[x, z]
    (-1)^|i & z| is one real Walsh-Hadamard product R @ signs and one
    gather.  Validates unit trace, hermiticity and positivity before
    returning.
    """
    m, n = _oracle_matrix(s)
    order, factor, signs, gather = _density_tables(n)
    coef = np.conj(_wick_table(m)).take(order) * factor
    rho = (coef.reshape(signs.shape) @ signs).take(gather)

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

    The kernel columns K_k of E give the annihilators c_k = B(K_k) =
    sum_a K_ak B_a, which anticommute and square to zero when K^T K = 0
    ({B(f), B(g)} = f^T g).  Their ordered product c_1 ... c_n then has
    rank one, and its range is their common null vector: the vector is
    the product's largest column, normalised.  B_j and B_{j+n} flip the
    same bit, so each c_k is one scatter with n flips per row.  Refuses
    E unless its kernel has n columns, K^T K = 0 and every c_k
    annihilates the vector.  The vector is unique up to phase, and the
    phase returned here is that of the column.
    """
    m, n = _oracle_matrix(e)
    w, vecs = np.linalg.eigh(m)
    if np.abs(w - np.rint(w)).max() > 1e-8:
        raise ValidationError("E is not a projection (eigenvalues not 0/1)")
    kernel = vecs[:, w < 0.5]
    if kernel.shape[1] != n:
        raise ValidationError(f"the kernel of E has {kernel.shape[1]} columns, not n = {n}")
    if np.abs(kernel.T @ kernel).max() > 1e-8:
        raise ValidationError("the kernel of E is not n anticommuting annihilators: K^T K != 0")
    xs, values = _majorana_strings(n)
    rows = np.arange(1 << n)
    ops = np.zeros((n, len(rows), len(rows)), dtype=complex)
    # c_k[i, i ^ x_j] = K[j, k] v_j[i] + K[j + n, k] v_{j+n}[i], at [k, j, i]
    left, right = kernel[:n].T[:, :, None], kernel[n:].T[:, :, None]
    ops[:, rows, rows ^ xs[:n, None]] = left * values[:n] + right * values[n:]
    prod = functools.reduce(np.matmul, ops)
    col = prod[:, np.abs(prod).argmax() % len(rows)]
    psi = col / np.linalg.norm(col)
    if np.abs(ops @ psi).max() > 1e-8:
        raise ValidationError("the annihilators of E have no common null vector")
    return psi


@functools.cache
def _parity_string(n: int, indices) -> tuple[int, np.ndarray]:
    """Parity monomial 2^(k/2) i^(k/2) prod B_a over 2k indices, as a Pauli string (x, values).

    The product of the n-mode operators is taken in ascending index
    order; using a subset that spans one party's reference space yields
    that party's local parity.  Cached read-only per (n, indices).
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
    v *= (2.0 ** half) * (1j ** half)
    v.flags.writeable = False
    return x, v


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
    (1 + la theta_A)(1 + lb theta_B)/4 is a diagonal plus one string
    flipping Alice's bits: P rho and (P rho) P are row and column
    operations, O(4^n) each.  Returns outcome probabilities and
    unnormalized posterior operators P rho P for the four outcomes.
    """
    as_real((np.real(rho), np.imag(rho)), "density matrix as (Re, Im)")
    shape = np.shape(rho)
    n = shape[0].bit_length() - 1 if shape else 0
    if n < 0 or shape != (1 << n, 1 << n):
        raise ValidationError(f"density matrix of shape {shape} is not 2^n x 2^n")
    _, theta = _parity_string(n, range(2 * n))
    xa, theta_a = _parity_string(n, split.a)
    flip = np.arange(1 << n) ^ xa
    theta_b = theta * theta_a  # flips xa
    both = theta_a * theta_b[flip]  # theta_A theta_B flips no bit
    rho_flip = np.asarray(rho)[flip]
    probs: dict[str, float] = {}
    post: dict[str, np.ndarray] = {}
    for ja, la in (("+", 1), ("-", -1)):
        for jb, lb in (("+", 1), ("-", -1)):
            # proj = diag(keep) plus the string (xa, off): proj[i, i ^ xa] = off[i]
            keep = 0.25 * (1 + la * lb * both)
            off = 0.25 * (la * theta_a + lb * theta_b)
            key = ja + jb
            left = keep[:, None] * rho + off[:, None] * rho_flip
            probs[key] = float(np.trace(left).real)
            post[key] = left * keep + left[:, flip] * off[flip]
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
    relating posterior overlaps to the two fidelities.  One Fock vector
    is built: the partner's is theta_A psi_E, since Alice's parity flips
    the sign of G_AB, so a wrong `partner_projection` shows as a
    deviation.  All comparisons are phase-insensitive.
    """
    rho, psi_e = density_from_covariance(s), fock_vector(e)
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
    fid_e_oracle = float((psi_e.conj() @ rho @ psi_e).real)
    dev["fidelity"] = abs(fid_e_oracle - fock_fidelity(s, e))
    xa, theta_a = _parity_string(n, split.a)
    psi_t = theta_a * psi_e[np.arange(1 << n) ^ xa]
    fid_t_oracle = float((psi_t.conj() @ rho @ psi_t).real)
    dev["fidelity_partner"] = abs(fid_t_oracle - fock_fidelity(s, partner_projection(e, split)))

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
