"""Exact dense simulation of small fermionic systems.

Everything here works on the full 2^n-dimensional Hilbert space and is
used to verify the Pfaffian formulas by brute force.  n is capped at
MAX_MODES = 6 (a 64 x 64 space) as a memory/time guard.

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


def _wick_table(s: np.ndarray) -> dict[int, complex]:
    """Pfaffian of every even-subset minor of the two-point matrix.

    Keyed by index bitmask; computed by the expansion along the lowest
    set bit, memoized across subsets, so the whole table costs
    O(4^n * n) scalar operations.
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


def density_from_covariance(
    s: CovarianceMatrix | np.ndarray, ops: list[np.ndarray] | None = None
) -> np.ndarray:
    """Density matrix of the quasifree state with covariance S.

    Expands rho over the orthogonal basis of ordered Majorana monomials;
    the coefficient of each even monomial is fixed by matching its trace
    against the Wick (Pfaffian) value of the corresponding moments.
    Validates unit trace, hermiticity and positivity before returning.
    """
    m = _matrix(s)
    dim = m.shape[0]
    n = dim // 2
    _check_modes(n)
    if ops is None:
        ops = majorana_ops(n)
    if len(ops) != dim:
        raise ValidationError("operator list does not match covariance dimension")

    wick = _wick_table(m)
    hdim = ops[0].shape[0]
    rho = np.zeros((hdim, hdim), dtype=complex)

    # Depth-first over index subsets, extending each monomial by one
    # factor with a larger index, so every monomial costs one product.
    stack: list[tuple[int, int, np.ndarray]] = [(0, 0, np.eye(hdim, dtype=complex))]
    while stack:
        mask, start, mono = stack.pop()
        k = bin(mask).count("1")
        if k % 2 == 0:
            rho += (2.0 ** (k - n)) * np.conj(wick[mask]) * mono
        for b in range(start, dim):
            stack.append((mask | (1 << b), b + 1, mono @ ops[b]))

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
    theta = parity_operator(n)
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
