"""Exact dense simulation of small fermionic systems.

Everything here works on the full 2^n-dimensional Hilbert space and is
used to verify the Pfaffian formulas by brute force.  n is capped at
MAX_MODES = 6 (a 64 x 64 space) as a memory/time guard.

The Jordan-Wigner operators, and every product of them, have one
nonzero per row: op[i, i ^ x] = values[i].  The operators are built in
this Pauli-string form (x, values) straight from the Jordan-Wigner
formula, and the density matrix from the monomials of the first n and
of the last n strings, tabulated separately, rather than from dense
products.

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

from dataclasses import dataclass

import numpy as np

from .linalg import pfaffian  # noqa: F401 -- perfbench/spans.targets looks it up here
from .states import (
    BipartiteSplit,
    CovarianceMatrix,
    ValidationError,
    _matrix,
    fock_fidelity,
    parity_expectation,
    parity_probability,
    partner_projection,
    target_orientation,
)

MAX_MODES = 6

__all__ = [
    "majorana_ops",
    "smear",
    "density_from_covariance",
    "fock_vector",
    "parity_from_indices",
    "joint_parity",
    "verify_all",
    "OracleReport",
]


def _check_modes(n: int):
    if not 1 <= n <= MAX_MODES:
        raise ValidationError(f"dense oracle supports 1 <= n <= {MAX_MODES}, got {n}")


def _majorana_strings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli strings (xs, values) of the 2n Majorana operators.

    B_a[i, i ^ xs[a]] = values[a, i].  Mode j flips bit n - 1 - j (the
    first Kronecker factor is the most significant bit) and carries the
    Jordan-Wigner sign z(i), the parity of i's bits for modes 0..j-1;
    B_j has values z / sqrt(2) and B_{j+n} has i (2 occupied_j(i) - 1)
    z / sqrt(2).
    """
    _check_modes(n)
    pop, _ = _bit_tables(n)
    rows = np.arange(1 << n)
    shift = n - np.arange(n)[:, None]  # modes 0..j-1 are the top j bits
    z = 1.0 - 2.0 * (pop[rows >> shift] % 2)
    occupied = (rows >> (shift - 1)) & 1
    flips = np.int64(1) << (shift[:, 0] - 1)
    values = np.concatenate([z, 1j * (2 * occupied - 1) * z]) / np.sqrt(2)
    return np.concatenate([flips, flips]), values


def majorana_ops(n: int) -> list[np.ndarray]:
    """The 2n Majorana operators on the 2^n-dimensional Fock space.

    Selfadjoint, with anticommutators {B_a, B_b} = delta_ab * 1 (note the
    normalization B_a^2 = 1/2).  The dense view of the Jordan-Wigner
    Pauli strings, one scatter per operator.
    """
    xs, values = _majorana_strings(n)
    rows = np.arange(1 << n)
    ops = []
    for x, v in zip(xs, values):
        op = np.zeros((1 << n, 1 << n), dtype=complex)
        op[rows, rows ^ x] = v
        ops.append(op)
    return ops


def smear(ops: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """B(x) = sum_a x_a B_a, complex linear in the reference vector x."""
    out = np.zeros_like(ops[0])
    for coeff, op in zip(np.asarray(x), ops):
        if coeff != 0:
            out = out + coeff * op
    return out


def _bit_tables(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Popcount and lowest set bit of every mask below 2^bits.

    Built by doubling in int64: masks in [2^b, 2^(b+1)) are those below
    2^b with bit b added.  The lowest bit of mask 0 is left at 0.
    """
    pop = np.zeros(1 << bits, dtype=np.int64)
    low = np.zeros(1 << bits, dtype=np.int64)
    for b in range(bits):
        size = 1 << b
        pop[size : 2 * size] = pop[:size] + 1
        low[size : 2 * size] = low[:size]
        low[size] = b
    return pop, low


def _wick_table(s: np.ndarray) -> np.ndarray:
    """Pfaffian of every even-subset minor of the two-point matrix.

    Indexed by bitmask over the 2n Majorana indices; odd masks hold 0.
    Each Pfaffian is the Laplace expansion along the lowest set bit,
    Pf(S_M) = sum_j (-1)^(pos_j - 1) S[low, j] Pf(S_{M - low - j}),
    evaluated level by level over popcount with array operations, so a
    level reads only the finished level below it.
    """
    dim = s.shape[0]
    pop, low = _bit_tables(dim)
    table = np.zeros(1 << dim, dtype=complex)
    table[0] = 1.0
    for k in range(2, dim + 1, 2):
        level = np.flatnonzero(pop == k)
        first = low[level]
        rest = level & ~(np.int64(1) << first)
        acc = np.zeros(len(level), dtype=complex)
        for j in range(1, dim):
            bit = np.int64(1) << j
            has = (rest & bit) != 0
            sub = rest[has]
            # pos_j - 1 = set bits of the mask strictly between low and j
            sign = 1.0 - 2.0 * (pop[sub & (bit - 1)] % 2)
            acc[has] += sign * s[first[has], j] * table[sub ^ bit]
        table[level] = acc
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
    a and b, scattered into rho one A-half monomial at a time.  Validates
    unit trace, hermiticity and positivity before returning.
    """
    m = _matrix(s)
    n = m.shape[0] // 2
    xs, values = _majorana_strings(n)
    hdim = 1 << n
    xa, va = _monomials(xs[:n], values[:n])
    xb, vb = _monomials(xs[n:], values[n:])
    pop, _ = _bit_tables(n)
    # coefficient of monomial a | b << n at [a, b]; odd sets have Pf 0
    weight = 2.0 ** (pop[:, None] + pop[None, :] - n)
    coef = weight * np.conj(_wick_table(m)).reshape(hdim, hdim).T
    same_parity = [np.flatnonzero(pop % 2 == 0), np.flatnonzero(pop % 2 == 1)]

    rows = np.arange(hdim)
    rho = np.zeros((hdim, hdim), dtype=complex)
    for a in range(hdim):
        b = same_parity[pop[a] % 2]
        cols = rows ^ xa[a]
        rho[rows, cols ^ xb[b, None]] += (coef[a, b, None] * va[a]) * vb[b[:, None], cols]

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

    The vector is the common null vector of the smeared operators B(g)
    over the kernel of E; it is unique up to phase, and the phase
    returned here is whatever the eigensolver produces.
    """
    m = _matrix(e)
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
    idx = sorted(int(i) for i in indices)
    if len(idx) % 2 != 0:
        raise ValidationError("parity monomial needs an even number of indices")
    if idx and not 0 <= idx[0] <= idx[-1] < 2 * n:
        raise ValidationError(f"parity indices must lie in [0, {2 * n}), got {idx[0]}..{idx[-1]}")
    if len(set(idx)) < len(idx):
        raise ValidationError("parity indices must be distinct")
    half = len(idx) // 2
    ops = majorana_ops(n)
    out = np.eye(1 << n, dtype=complex)
    for a in idx:
        out = out @ ops[a]
    return (2.0 ** half) * (1j ** half) * out


@dataclass(frozen=True)
class JointParityResult:
    probabilities: dict[str, float]
    posterior: dict[str, np.ndarray]


def joint_parity(rho: np.ndarray, split: BipartiteSplit) -> JointParityResult:
    """Joint local-parity measurement of an n-mode rho over the given split.

    n is read off the 2^n x 2^n shape of rho.  Builds theta_A as the
    parity monomial over Alice's indices and theta_B = theta * theta_A,
    so the product of local parities is the global parity by
    construction.  Returns outcome probabilities and unnormalized
    posterior operators P rho P for the four outcomes.
    """
    shape = np.shape(rho)
    n = shape[0].bit_length() - 1 if shape else 0
    if n < 0 or shape != (1 << n, 1 << n):
        raise ValidationError(f"density matrix of shape {shape} is not 2^n x 2^n")
    theta = parity_from_indices(n, range(2 * n))
    theta_a = parity_from_indices(n, split.a)
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
    m = _matrix(s)
    n = m.shape[0] // 2
    rho = density_from_covariance(s)
    dev: dict[str, float] = {}

    # parity expectation vs trace against the dense parity operator
    theta = parity_from_indices(n, range(2 * n))
    lhs = float(np.trace(rho @ theta).real)
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
