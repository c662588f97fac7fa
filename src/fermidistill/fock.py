"""Exact dense simulation of small fermionic systems.

Everything here works on the full 2^n-dimensional Hilbert space and is
used to verify the Pfaffian formulas by brute force.  n is capped at
MAX_MODES = 6 (a 64 x 64 space) as a memory/time guard.

The Jordan-Wigner operators, and every product of them, have one
nonzero per row: op[i, i ^ x] = values[i].  The density matrix is built
on this Pauli-string form (x, values), from the monomials of the first
n and of the last n operators, tabulated separately, rather than from
dense products.

Convention note: the ladder operators are defined so that c_k^* (not
c_k) annihilates the reference vacuum, i.e. our c_k is the creation
operator in the more common convention.  Concretely the Majorana set is

    B_a     = (c_a + c_a^*) / sqrt(2)          a = 1..n
    B_{a+n} = i (c_a - c_a^*) / sqrt(2)        a = 1..n

indexed canonically: position-like operators first, momentum-like
second.  For a covariance expressed in a different real-basis ordering,
permute the operator list accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import pfaffian
from .states import (
    BipartiteSplit,
    CovarianceMatrix,
    ValidationError,
    _matrix,
    fock_fidelity,
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
    "parity_operator",
    "parity_from_indices",
    "joint_parity",
    "verify_all",
    "OracleReport",
]


def _check_modes(n: int):
    if not 1 <= n <= MAX_MODES:
        raise ValidationError(f"dense oracle supports 1 <= n <= {MAX_MODES}, got {n}")


def majorana_ops(n: int) -> list[np.ndarray]:
    """The 2n Majorana operators on the 2^n-dimensional Fock space.

    Selfadjoint, with anticommutators {B_a, B_b} = delta_ab * 1 (note the
    normalization B_a^2 = 1/2).  Built from Jordan-Wigner ladder
    operators.
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


def _pauli_string(op: np.ndarray, hdim: int) -> tuple[int, np.ndarray]:
    """(x, values) with op[i, i ^ x] = values[i] and zeros elsewhere."""
    op = np.asarray(op)
    if op.shape != (hdim, hdim):
        raise ValidationError(f"operator of shape {op.shape} on a {hdim}-dimensional space")
    row, col = divmod(int(np.argmax(np.abs(op))), hdim)
    x = row ^ col
    rows = np.arange(hdim)
    values = op[rows, rows ^ x].astype(complex)
    if np.count_nonzero(op) != np.count_nonzero(values):
        raise ValidationError("operator is not a Pauli string (one nonzero per row, at i ^ x)")
    return x, values


def _monomials(strings: list[tuple[int, np.ndarray]], hdim: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli strings of the 2^len(strings) ordered monomials, by doubling.

    Monomial `mask` is the product of the operators whose bits are set, in
    ascending order; appending the operator of bit b to every monomial
    below 2^b gives those in [2^b, 2^(b+1)).
    """
    rows = np.arange(hdim)
    xs = np.zeros(1 << len(strings), dtype=np.int64)
    values = np.ones((1 << len(strings), hdim), dtype=complex)
    for b, (x_b, v_b) in enumerate(strings):
        size = 1 << b
        xs[size : 2 * size] = xs[:size] ^ x_b
        values[size : 2 * size] = values[:size] * v_b[rows ^ xs[:size, None]]
    return xs, values


def density_from_covariance(
    s: CovarianceMatrix | np.ndarray, ops: list[np.ndarray] | None = None
) -> np.ndarray:
    """Density matrix of the quasifree state with covariance S.

    rho = sum over even index sets M of 2^(|M| - n) conj(Pf S_M) B_M,
    where B_M is the ordered Majorana monomial: matching traces against
    the Wick (Pfaffian) moments fixes each coefficient.  Every operator
    must be a Pauli string, one nonzero per row at column i ^ x, as the
    Jordan-Wigner operators are; anything else raises ValidationError.
    The monomials of ops[:n] and of ops[n:] are tabulated separately,
    and B_M for M = a + b is the product of half monomials a and b,
    scattered into rho one A-half monomial at a time.  Validates unit
    trace, hermiticity and positivity before returning.
    """
    m = _matrix(s)
    dim = m.shape[0]
    n = dim // 2
    _check_modes(n)
    if ops is None:
        ops = majorana_ops(n)
    if len(ops) != dim:
        raise ValidationError("operator list does not match covariance dimension")

    hdim = 1 << n
    strings = [_pauli_string(op, hdim) for op in ops]
    xa, va = _monomials(strings[:n], hdim)
    xb, vb = _monomials(strings[n:], hdim)
    pop, _ = _bit_tables(n)
    # coefficient of monomial a | b << n at [a, b]; odd sets have Pf 0
    weight = 2.0 ** (pop[:, None] + pop[None, :] - n)
    coef = weight * np.conj(_wick_table(m)).reshape(hdim, hdim).T
    same_parity = [np.flatnonzero(pop % 2 == 0), np.flatnonzero(pop % 2 == 1)]

    rows = np.arange(hdim)
    real = np.zeros(hdim * hdim)
    imag = np.zeros(hdim * hdim)
    for a in range(hdim):
        b = same_parity[pop[a] % 2]
        cols = rows ^ xa[a]
        vals = (coef[a, b, None] * va[a]) * vb[b[:, None], cols]
        # a permuted operator list can repeat x within a half, so indices collide
        flat = (rows * hdim + (cols ^ xb[b, None])).ravel()
        real += np.bincount(flat, vals.real.ravel(), minlength=hdim * hdim)
        imag += np.bincount(flat, vals.imag.ravel(), minlength=hdim * hdim)
    rho = (real + 1j * imag).reshape(hdim, hdim)

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


def fock_vector(
    e: CovarianceMatrix | np.ndarray, ops: list[np.ndarray] | None = None
) -> np.ndarray:
    """State vector of the pure quasifree state with basis projection E.

    The vector is the common null vector of the smeared operators B(g)
    over the kernel of E; it is unique up to phase, and the phase
    returned here is whatever the eigensolver produces.
    """
    m = _matrix(e)
    n = m.shape[0] // 2
    _check_modes(n)
    if ops is None:
        ops = majorana_ops(n)
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


def parity_operator(n: int, orientation: int = 1) -> np.ndarray:
    """Parity operator 2^n i^n B_1 ... B_2n (times the orientation sign).

    Selfadjoint unitary anticommuting with every B_a; its sign flips
    under orientation-reversing relabelings of the basis.
    """
    _check_modes(n)
    return parity_from_indices(majorana_ops(n), range(2 * n)) * (1 if orientation >= 0 else -1)


def parity_from_indices(ops: list[np.ndarray], indices) -> np.ndarray:
    """Parity monomial 2^(k/2) i^(k/2) prod B_a over the given 2k indices.

    The product is taken in ascending index order; using a subset that
    spans one party's reference space yields that party's local parity.
    """
    idx = sorted(int(i) for i in indices)
    if len(idx) % 2 != 0:
        raise ValidationError("parity monomial needs an even number of indices")
    half = len(idx) // 2
    out = np.eye(ops[0].shape[0], dtype=complex)
    for a in idx:
        out = out @ ops[a]
    return (2.0 ** half) * (1j ** half) * out


@dataclass(frozen=True)
class JointParityResult:
    probabilities: dict[str, float]
    posterior: dict[str, np.ndarray]


def joint_parity(rho: np.ndarray, split: BipartiteSplit, ops: list[np.ndarray]) -> JointParityResult:
    """Joint local-parity measurement of rho over the given split.

    Builds theta_A as the parity monomial over Alice's indices and
    theta_B = theta * theta_A, so the product of local parities is the
    global parity by construction.  Returns outcome probabilities and
    unnormalized posterior operators P rho P for the four outcomes.
    """
    dim = len(ops)
    theta = parity_from_indices(ops, range(dim))
    theta_a = parity_from_indices(ops, split.a)
    theta_b = theta @ theta_a
    eye = np.eye(rho.shape[0])
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
    ops = majorana_ops(n)
    rho = density_from_covariance(s, ops)
    dev: dict[str, float] = {}

    # parity expectation vs trace against the dense parity operator
    theta = parity_from_indices(ops, range(2 * n))
    lhs = float(np.trace(rho @ theta).real)
    g = -1j * (m - 0.5 * np.eye(2 * n))
    rhs = (2.0 ** n) * ((-1.0) ** n) * pfaffian((g.real - g.real.T) / 2)
    dev["parity_expectation"] = abs(lhs - rhs)

    # parity probability vs the oracle sector weight of the target E
    orient = target_orientation(e)
    result = joint_parity(rho, split, ops)
    sector = orient * ((-1) ** (n // 2))
    if sector > 0:
        p_oracle = result.probabilities["++"] + result.probabilities["--"]
    else:
        p_oracle = result.probabilities["+-"] + result.probabilities["-+"]
    p_formula = parity_probability(s, orientation=orient)
    dev["parity_probability"] = abs(p_oracle - p_formula)

    # fidelity with E and with its partner
    psi_e = fock_vector(e, ops)
    fid_e_oracle = float((psi_e.conj() @ rho @ psi_e).real)
    dev["fidelity"] = abs(fid_e_oracle - fock_fidelity(s, e))
    e_part = partner_projection(e, split)
    psi_t = fock_vector(e_part, ops)
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
