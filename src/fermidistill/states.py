"""Covariance-matrix data model for fermionic quasifree states.

A state of n modes is encoded by a 2n x 2n complex matrix S, expressed
in a canonical real basis so that complex conjugation J acts entrywise.
Validity means

    S = S^dag,   0 <= S <= 1,   conj(S) = 1 - S,

equivalently S = 1/2 + i*G with G real antisymmetric and ||G|| <= 1/2.
A state is held as its G; S appears only at the edges, converted once
by `CovarianceMatrix.from_s` and given back by `.matrix` for files and
the dense oracle.  Pure quasifree (Fock) states have idempotent S
(G^2 = -1/4), called basis projections.

All probability/fidelity formulas reduce to Pfaffians of real
antisymmetric matrices.  Pfaffian signs depend on the orientation of the
basis; throughout this module the orientation is tied to the *target*
maximally entangled state: dividing by the Pfaffian of the target (an
exact +-1) makes every reported quantity basis-independent and
nonnegative where it should be.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import (STRUCT_ATOL, ValidationError, _eliminate, _scratch_size, as_index, as_real,
                     pfaffian, svd)

CROSS_CHECK_ATOL = 1e-8      # agreement between independent formulas
P_FLOOR = 1e-12              # below this success probability f is undefined

__all__ = [
    "CovarianceMatrix",
    "BipartiteSplit",
    "BlockDecomposition",
    "RealProjectionPair",
    "ValidationReport",
    "ProtocolQuantities",
    "ValidationError",
    "ConvergenceError",
    "validate",
    "blocks",
    "assemble_covariance",
    "parity_expectation",
    "parity_probability",
    "fock_fidelity",
    "partner_projection",
    "protocol_quantities",
    "restrict",
    "maximally_entangled_projection",
    "target_orientation",
    "random_covariance",
    "load_covariance",
    "save_covariance",
]


class ConvergenceError(RuntimeError):
    """An iterative or sampling procedure ran out of steps; carries the best residuals."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceMatrix:
    """A quasifree state as the real 2n x 2n G of S = 1/2 + iG (`as_real`); `validate` checks G."""

    g: np.ndarray

    def __post_init__(self):
        g = as_real(self.g, "covariance G")
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 != 0:
            raise ValidationError(f"covariance must be 2n x 2n, got {g.shape}")
        object.__setattr__(self, "g", g)

    @classmethod
    def from_s(cls, s) -> "CovarianceMatrix":
        """The state G = Im S; Re S must be 1/2 (S hermitian then means G antisymmetric)."""
        s = np.asarray(s, dtype=complex)
        out = cls(s.imag)  # the shape check, before Re S is compared with 1/2
        res = np.abs(s.real - 0.5 * np.eye(len(s))).max(initial=0.0)
        if not res <= STRUCT_ATOL:  # NaN fails too
            raise ValidationError(f"reality: Re S - 1/2 has residue {res:.3e}; not a real basis")
        return out

    @property
    def matrix(self) -> np.ndarray:
        """S = 1/2 + iG, for files and the dense Fock oracle."""
        return 0.5 * np.eye(len(self.g)) + 1j * self.g


def _state(s: CovarianceMatrix | np.ndarray) -> CovarianceMatrix:
    """s itself, or the state of the raw covariance S = s."""
    return s if isinstance(s, CovarianceMatrix) else CovarianceMatrix.from_s(s)


@dataclass(frozen=True)
class BipartiteSplit:
    """Bipartition of the 2n basis indices into Alice's and Bob's."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(as_index(i, "split index") for i in self.a))
        object.__setattr__(self, "b", tuple(as_index(i, "split index") for i in self.b))
        negative = [i for i in self.a + self.b if i < 0]
        if negative:
            raise ValidationError(f"split index {negative[0]} is negative")
        if set(self.a) & set(self.b):
            raise ValidationError("split index sets must be disjoint")
        for side in (self.a, self.b):
            if len(set(side)) != len(side):
                repeated = next(i for i in side if side.count(i) > 1)
                raise ValidationError(f"split index {repeated} appears more than once")

    @classmethod
    def from_alice(cls, a_indices, dim: int) -> "BipartiteSplit":
        a = tuple(as_index(i, "split index") for i in a_indices)
        if any(i < 0 or i >= dim for i in a):
            raise ValidationError("split indices out of range")
        alice = set(a)
        return cls(a, tuple(i for i in range(dim) if i not in alice))

    @classmethod
    def halves(cls, dim: int) -> "BipartiteSplit":
        """Alice gets the first half of the indices, Bob the rest."""
        if dim % 4 != 0:
            raise ValidationError("equal split needs dim divisible by 4")
        return cls(tuple(range(dim // 2)), tuple(range(dim // 2, dim)))

    def check_even(self):
        if len(self.a) != len(self.b):
            raise ValidationError("protocol operations need |A| = |B|")
        if len(self.a) % 2 != 0:
            raise ValidationError("each party needs an even number of indices")


@dataclass(frozen=True)
class BlockDecomposition:
    """Real blocks of a bipartite state: X, Z antisymmetric, Y general.

    They are the blocks of 2G: G restricted to (A, B) reads
    G = 1/2 * [[X, Y], [-Y^T, Z]], so S = 1/2 * [[1 + iX, iY], [-iY^T, 1 + iZ]].
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, as_real(getattr(self, name), f"block {name.upper()}"))


@dataclass(frozen=True)
class RealProjectionPair:
    """Kept modes on each side, held as real orthonormal frames (ua, ub).

    The columns of ua span Ran D_A and those of ub span Ran D_B; each
    frame has an even number of columns (whole modes).  Only the frames
    are held; the projections are D_A = ua ua^T and D_B = ub ub^T.
    """

    ua: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        for name, u in (("ua", self.ua), ("ub", self.ub)):
            u = as_real(u, name)
            if u.ndim != 2 or u.shape[1] % 2 != 0:
                raise ValidationError(
                    f"{name} must be 2-D with an even number of columns (whole modes), "
                    f"got shape {u.shape}"
                )
            err = np.abs(u.T @ u - np.eye(u.shape[1])).max(initial=0.0)
            if not err <= STRUCT_ATOL:
                raise ValidationError(f"{name} does not have orthonormal columns")
            object.__setattr__(self, name, u)

    @classmethod
    def identity(cls, dim_a: int, dim_b: int) -> "RealProjectionPair":
        return cls(np.eye(dim_a), np.eye(dim_b))


@dataclass
class ValidationReport:
    """Per-invariant diagnostics; passes iff every magnitude is in tolerance."""

    checks: list[tuple[str, float, float]] = field(default_factory=list)

    def add(self, name: str, magnitude: float, tol: float):
        self.checks.append((name, float(magnitude), float(tol)))

    @property
    def passed(self) -> bool:
        return all(mag <= tol for _, mag, tol in self.checks)

    def summary(self) -> str:
        lines = []
        for name, mag, tol in self.checks:
            status = "ok" if mag <= tol else "VIOLATED"
            lines.append(f"{name}: {mag:.3e} (tol {tol:.1e}) {status}")
        return "\n".join(lines)

    def require(self, what: str) -> None:
        """Raise ValidationError, `what` followed by the summary, unless every check passed."""
        if not self.passed:
            raise ValidationError(f"{what}:\n{self.summary()}")


# ---------------------------------------------------------------------------
# validity and blocks
# ---------------------------------------------------------------------------


def validate(s: CovarianceMatrix | np.ndarray) -> ValidationReport:
    """Diagnose validity to STRUCT_ATOL: reports, never raises on a state.

    S = 1/2 + iG has eigenvalues 1/2 +- sigma_i(G) for G antisymmetric.
    """
    g = _state(s).g
    report = ValidationReport()
    report.add("antisymmetry |G + G^T|_max", np.abs(g + g.T).max(initial=0.0), STRUCT_ATOL)
    a = (g - g.T) / 2
    top = np.sqrt(max(np.linalg.eigvalsh(a @ a.T)[-1], 0.0))  # sigma_max(a)
    report.add("spectrum max(0, sigma_max(G) - 1/2)", max(top - 0.5, 0.0), STRUCT_ATOL)
    return report


def blocks(s: CovarianceMatrix | np.ndarray, split: BipartiteSplit) -> BlockDecomposition:
    """Real block decomposition X = 2 G_AA, Y = 2 G_AB, Z = 2 G_BB."""
    g2 = 2 * _state(s).g
    ia, ib = list(split.a), list(split.b)
    return BlockDecomposition(g2[np.ix_(ia, ia)], g2[np.ix_(ia, ib)], g2[np.ix_(ib, ib)])


def _valid_blocks(s: CovarianceMatrix | np.ndarray, split: BipartiteSplit) -> BlockDecomposition:
    """`blocks` of s once `validate(s)` passes; else ValidationError naming the failed checks."""
    validate(s).require("invalid state")
    return blocks(s, split)


def assemble_covariance(block: BlockDecomposition) -> tuple[CovarianceMatrix, BipartiteSplit]:
    """Inverse of `blocks` for the grouped index ordering (all A, then all B)."""
    x, y, z = block.x, block.y, block.z
    na, nb = x.shape[0], z.shape[0]
    g = 0.5 * np.block([[x, y], [-y.T, z]])
    return CovarianceMatrix(g), BipartiteSplit(tuple(range(na)), tuple(range(na, na + nb)))


# ---------------------------------------------------------------------------
# parity and fidelity
# ---------------------------------------------------------------------------


def _check_antisymmetric(g: np.ndarray, name: str) -> None:
    """Refuse the G of state `name` unless |G + G^T|_max <= STRUCT_ATOL max(|G|_max, 1)."""
    resid = np.abs(g + g.T).max(initial=0.0)
    if not (resid <= STRUCT_ATOL or resid <= STRUCT_ATOL * np.abs(g).max(initial=0.0)):
        raise ValidationError(f"G = -i({name} - 1/2) is not antisymmetric under transposition")


def parity_expectation(s: CovarianceMatrix | np.ndarray) -> float:
    """Expectation of the parity operator: 2^n (-1)^n Pf(G).

    The sign refers to the parity operator built from the basis the
    covariance is expressed in.
    """
    g = _state(s).g
    _check_antisymmetric(g, "S")
    n = g.shape[0] // 2
    val = (2.0 ** n) * ((-1.0) ** n) * pfaffian((g - g.T) / 2)
    if abs(val) > 1 + STRUCT_ATOL:
        raise ValidationError(f"parity expectation {val:.6f} outside [-1, 1]")
    return float(np.clip(val, -1.0, 1.0))


def parity_probability(s: CovarianceMatrix | np.ndarray, orientation: int = 1) -> float:
    """Probability that a joint parity measurement lands in the target sector.

    For 2m modes: p = (1 + orientation (-1)^m parity_expectation(S)) / 2,
    orientation +-1.  orientation = +1 corresponds to a target maximally entangled state
    whose off-diagonal orthogonal block has determinant +1 in this basis
    (see `target_orientation`); the (-1)^m accounts for the parity sign
    of such a target.
    """
    s = _state(s)
    n2 = s.g.shape[0]
    if orientation not in (1, -1):
        raise ValidationError(f"orientation must be +1 or -1, got {orientation!r}")
    if n2 % 4 != 0:
        raise ValidationError("parity probability needs an even number of modes")
    return (1.0 + orientation * (-1.0) ** (n2 // 4) * parity_expectation(s)) / 2.0


def fock_fidelity(s: CovarianceMatrix | np.ndarray, e: CovarianceMatrix | np.ndarray) -> float:
    """Fidelity of the state S with the pure state of basis projection E.

    Pf(-i(1 - S - E)) = Pf(-(G_S + G_E)) normalized by Pf(-i(1 - 2E)) =
    Pf(-2 G_E), which is an exact +-1 fixing the orientation so that
    fock_fidelity(E, E) = 1.
    """
    gs, ge = _state(s).g, _state(e).g
    if gs.shape != ge.shape:
        raise ValidationError("S and E must have the same dimension")
    _check_antisymmetric(gs, "S")
    _check_antisymmetric(ge, "E")
    g = np.stack([gs + ge, 2 * ge])
    num, den = pfaffian((np.swapaxes(g, 1, 2) - g) / 2)
    if abs(abs(den) - 1.0) > 1e-6:
        raise ValidationError("E is not a basis projection (orientation Pfaffian != +-1)")
    fid = num / round(den)
    if fid < -STRUCT_ATOL or fid > 1 + STRUCT_ATOL:
        raise ValidationError(f"fidelity {fid:.3e} outside [0, 1]")
    return float(np.clip(fid, 0.0, 1.0))


def partner_projection(
    e: CovarianceMatrix | np.ndarray, split: BipartiteSplit
) -> CovarianceMatrix:
    """Basis projection differing only by the sign of the off-diagonal block.

    The corresponding pure state is locally indistinguishable from the
    original and carries the same orientation.
    """
    g = _state(e).g.copy()
    ia, ib = list(split.a), list(split.b)
    g[np.ix_(ia, ib)] *= -1
    g[np.ix_(ib, ia)] *= -1
    # S^2 = S reads G^2 = -1/4
    if not np.abs(g @ g + 0.25 * np.eye(len(g))).max(initial=0.0) <= STRUCT_ATOL:
        raise ValidationError("partner projection lost idempotence")
    return CovarianceMatrix(g)


def maximally_entangled_projection(v: np.ndarray, split: BipartiteSplit) -> CovarianceMatrix:
    """Basis projection of the maximally entangled state with Y-block v.

    v must be real orthogonal on (A, B); the diagonal blocks vanish.
    """
    v = as_real(v, "maximally entangled state: Y-block V")
    k = v.shape[0]
    if v.shape != (k, k) or not np.abs(v.T @ v - np.eye(k)).max() <= STRUCT_ATOL:
        raise ValidationError("Y-block of a maximally entangled state must be orthogonal")
    if len(split.a) != k or len(split.b) != k:
        raise ValidationError("split size does not match the isometry")
    dim = 2 * k
    out_of_range = [i for i in split.a + split.b if i >= dim]
    if out_of_range:
        raise ValidationError(f"split index {out_of_range[0]} out of range for {dim} indices")
    g = np.zeros((dim, dim))
    a, b = np.array(split.a), np.array(split.b)
    g[a[:, None], b] = v / 2
    g[b[:, None], a] = -v.T / 2
    return CovarianceMatrix(g)


def target_orientation(e: CovarianceMatrix | np.ndarray) -> int:
    """Orientation (+-1) of the basis relative to a target basis projection E.

    Equals (-1)^m parity_expectation(E), an exact sign; passing it to
    parity_probability selects the parity sector containing the target.
    """
    e = _state(e)
    val = (-1.0) ** (e.g.shape[0] // 4) * parity_expectation(e)
    if abs(abs(val) - 1.0) > 1e-6:
        raise ValidationError("not a maximally entangled basis projection")
    return int(round(val))


# ---------------------------------------------------------------------------
# protocol quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolQuantities:
    """Success probability, output fidelity and their product for one run.

    f is None when p vanishes (fidelity undefined, nothing to keep).
    """

    p: float
    f: float | None
    pf: float


def protocol_quantities(blk: BlockDecomposition, d: RealProjectionPair) -> ProtocolQuantities:
    """Evaluate the instance with frames d, whose V = d.ua d.ub^T pairs their columns.

    blk = blocks(S, split).  p is the parity probability of the restricted
    state D S D and pf = <psi_E, rho psi_E> + <psi_partner, rho psi_partner>.
    Another pairing V' between the spans is Bob's frame turned: d.ub V'^T.
    """
    if d.ub.shape[1] != d.ua.shape[1]:
        raise ValidationError("frames ua and ub must have equal rank")
    p, pf = _protocol_quantities_stack(blk, d.ua[None], d.ub[None])
    p, pf = float(p[0]), float(pf[0])
    return ProtocolQuantities(p=p, f=pf / p if p > P_FLOOR else None, pf=pf)


def _protocol_quantities_stack(
    blk: BlockDecomposition,
    ua: np.ndarray,
    ub: np.ndarray,
    mats: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """p and pf for a stack of protocol instances, each given by its two frames.

    ua (b, |A|, r) and ub (b, |B|, r) are the kept-mode frames of each
    member, whose columns V = ua ub^T pairs; any strides will do, so they
    may be views of batch-last memory.  With primes for compressions onto
    the frames and M+- = [[X', Y' +- 1], [-(Y' +- 1)^T, Z']],

        p = (1 + (-4)^m Pf(G')) / 2,  G' = [[X', Y'], [-Y'^T, Z']] / 2,
        pf = (-1)^m 2^(-2m) [Pf(M+) + Pf(M-)],

    cross-checked against (|det(Y' + 1)| + |det(Y' - 1)|) / 2^(2m) when X'
    or Z' vanishes.  The three Pfaffian matrices are written batch-last
    into mats (2r, 2r, 3, b) and eliminated in place by
    `linalg._eliminate` with `scratch`; a caller evaluating many stacks
    passes both, else they are allocated here.  Every check runs on every
    member, and a failure names the first offending one.
    """
    b, r = ua.shape[0], ua.shape[2]
    if mats is None:
        mats = np.empty((2 * r, 2 * r, 3, b))
        scratch = np.empty(_scratch_size(2 * r, 3 * b))

    def check(bad: np.ndarray, message) -> None:
        if np.any(bad):
            i = int(np.argmax(bad))
            prefix = f"stack member {i}: " if b > 1 else ""
            raise ValidationError(prefix + message(i))

    # batch-last views (row, column, member): each product below is an
    # einsum over the contiguous member axis when the frames are views of
    # batch-last memory
    fa, fb = (u.transpose(1, 2, 0) for u in (ua, ub))
    eye = np.eye(r)[:, :, None]
    for name, u in (("ua", fa), ("ub", fb)):
        gram_error = np.abs(np.einsum("iab,icb->acb", u, u) - eye).max(axis=(0, 1), initial=0.0)
        check(~(gram_error <= STRUCT_ATOL), lambda i: f"{name} does not have orthonormal columns")
    m = r // 2

    def compress(left: np.ndarray, g: np.ndarray, right: np.ndarray) -> np.ndarray:
        gr = (g @ right.reshape(len(right), -1)).reshape(len(g), *right.shape[1:])
        return np.einsum("iab,icb->acb", left, gr)

    xp, yp, zp = compress(fa, blk.x, fa), compress(fa, blk.y, fb), compress(fb, blk.z, fb)

    # mats[:, :, 0] = G' = [[X', Y'], [-Y'^T, Z']] / 2, then M+ and M-, with
    # X' and Z' antisymmetrised; each lower left block is minus the upper
    # right one transposed
    mats[:r, :r] = ((xp - xp.transpose(1, 0, 2)) / 2)[:, :, None]
    mats[r:, r:] = ((zp - zp.transpose(1, 0, 2)) / 2)[:, :, None]
    mats[:r, r:, 0] = yp
    np.add(yp, eye, out=mats[:r, r:, 1])
    np.subtract(yp, eye, out=mats[:r, r:, 2])
    np.negative(mats[:r, r:].transpose(1, 0, 2, 3), out=mats[r:, :r])
    mats[:, :, 0] *= 0.5
    # with X' or Z' zero, (|det(Y' + 1)| + |det(Y' - 1)|) / 2^r is pf; read
    # the blocks trial-first before elimination overwrites them
    vanish = np.minimum(np.abs(xp).max(axis=(0, 1), initial=0.0),
                        np.abs(zp).max(axis=(0, 1), initial=0.0)) < STRUCT_ATOL
    det_form = np.full(b, np.nan)
    if vanish.any():
        det_form[vanish] = np.abs(np.linalg.det(
            mats[:r, r:, 1:, vanish].transpose(2, 3, 0, 1))).sum(axis=0) / 2.0 ** r
    del xp, yp, zp  # freed before the elimination's own temporaries
    pfs = _eliminate(mats.reshape(2 * r, 2 * r, 3 * b), scratch, (3, b)).reshape(3, b)

    p = (1.0 + ((-4.0) ** m) * pfs[0]) / 2.0
    check(~((p >= -STRUCT_ATOL) & (p <= 1 + STRUCT_ATOL)),
          lambda i: f"restricted parity probability {p[i]:.3e} outside [0, 1]")
    p = np.clip(p, 0.0, 1.0)

    pf = ((-1.0) ** m) * (pfs[1] + pfs[2]) / (2.0 ** r)

    check(vanish & (np.abs(pf - det_form) > CROSS_CHECK_ATOL),
          lambda i: "block-Pfaffian and determinant forms disagree: "
                    f"{pf[i]:.12e} vs {det_form[i]:.12e}")

    check(pf < -STRUCT_ATOL, lambda i: f"pf = {pf[i]:.3e} negative beyond tolerance")
    return p, np.maximum(pf, 0.0)


# ---------------------------------------------------------------------------
# restriction and sampling
# ---------------------------------------------------------------------------


def restrict(
    s: CovarianceMatrix | np.ndarray, split: BipartiteSplit, d: RealProjectionPair
) -> tuple[CovarianceMatrix, BipartiteSplit]:
    """Compress S onto the kept-mode frames d.ua and d.ub, keeping the A/B structure.

    Returns the covariance of the restricted quasifree state, expressed
    in those frames, together with the split of the new (grouped) index
    set.
    """
    blk, ua, ub = blocks(s, split), d.ua, d.ub
    out, new_split = assemble_covariance(
        BlockDecomposition(ua.T @ blk.x @ ua, ua.T @ blk.y @ ub, ub.T @ blk.z @ ub))
    validate(out).require("restricted covariance failed validation")
    return out, new_split


def random_covariance(n_modes: int, seed: int | np.random.Generator) -> CovarianceMatrix:
    """Random valid state: G real antisymmetric with its norm scaled into bounds.

    The skew part's largest singular value is drawn uniformly from
    [0.1, 0.475], away from both the pure and the maximally mixed state.
    """
    if not _is_int(n_modes) or n_modes <= 0:
        raise ValidationError(f"n_modes must be a positive integer, got {n_modes!r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * n_modes, 2 * n_modes))
    g = (g - g.T) / 2
    top = np.linalg.norm(g, 2)
    g *= 0.5 * rng.uniform(0.2, 0.95) / top
    return CovarianceMatrix(g)


def random_x_zero_covariance(
    n_modes_per_side: int,
    seed: int | np.random.Generator,
) -> tuple[CovarianceMatrix, BipartiteSplit]:
    """Random valid bipartite covariance with vanishing Alice block X.

    The Y block is kept away from rank deficiency (smallest singular
    value above 0.05) so that protocol construction at any admissible m
    is well posed.
    """
    if not _is_int(n_modes_per_side) or n_modes_per_side <= 0:
        raise ValidationError(
            f"n_modes_per_side must be a positive integer, got {n_modes_per_side!r}"
        )
    rng = np.random.default_rng(seed)
    k = 2 * n_modes_per_side
    for _ in range(200):
        y = rng.standard_normal((k, k))
        z = rng.standard_normal((k, k))
        z = (z - z.T) / 2
        g = np.block([[np.zeros((k, k)), y], [-y.T, z]]) / 2
        g *= 0.5 * rng.uniform(0.4, 0.95) / np.linalg.norm(g, 2)
        s = CovarianceMatrix(g)
        split = BipartiteSplit(tuple(range(k)), tuple(range(k, 2 * k)))
        sv = svd(blocks(s, split).y)[1]
        if sv[-1] > 0.05:
            return s, split
    raise ConvergenceError("failed to sample a well-conditioned X = 0 state in 200 draws")


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def save_covariance(
    path: str | Path, s: CovarianceMatrix | np.ndarray, split: BipartiteSplit
):
    """Write the covariance JSON: modes, split_a, the entries of S as [re, im] pairs."""
    m = _state(s).matrix
    payload = {
        "modes": m.shape[0] // 2,
        "split_a": list(split.a),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def load_covariance(path: str | Path) -> tuple[CovarianceMatrix, BipartiteSplit]:
    """Read a covariance JSON file; raises ValidationError on malformed data or Re S != 1/2."""
    try:
        payload = json.loads(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not a text file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    try:
        n, split_a, entries = payload["modes"], payload["split_a"], payload["entries"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing covariance file field: {exc}") from exc
    if not _is_int(n) or n <= 0:
        raise ValidationError(f"modes must be a positive integer, got {n!r}")
    if not isinstance(split_a, list) or not all(_is_int(i) for i in split_a):
        raise ValidationError(f"split_a must be a list of integer indices, got {split_a!r}")
    dim = 2 * n
    if not isinstance(entries, list) or len(entries) != dim * dim:
        got = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise ValidationError(f"expected {dim * dim} entries for {n} modes, got {got}")
    try:
        pairs = np.array(entries)
    except ValueError:  # ragged nesting
        pairs = None
    if pairs is None or pairs.shape != (dim * dim, 2) or pairs.dtype.kind not in "iuf":
        raise ValidationError("entries must be [re, im] pairs of numbers")
    s = CovarianceMatrix.from_s(pairs.astype(float).view(complex).reshape(dim, dim))
    return s, BipartiteSplit.from_alice(split_a, dim)
