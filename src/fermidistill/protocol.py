"""Optimal protocol construction and evaluation.

Given a bipartite covariance, the canonical choice keeps the modes
carrying the strongest cross correlations: D projects onto the top
singular subspace of the off-diagonal block Y, and V is the polar
factor of the compressed Y.  For states whose Alice (or Bob) diagonal
block vanishes this choice provably maximizes the product p*f, which is
the figure of merit used throughout (the hashing rate is a monotone
function of f at fixed p, but much harder to optimize directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .linalg import RANK_RTOL, _orthonormalise, _scratch_size, as_index, svd
from .states import (
    P_FLOOR,
    STRUCT_ATOL,
    BipartiteSplit,
    BlockDecomposition,
    CovarianceMatrix,
    RealProjectionPair,
    ValidationError,
    _protocol_quantities_stack,
    _rng,
    _valid_blocks,
    protocol_quantities,
)

__all__ = [
    "Note",
    "ProtocolChoice",
    "DistillationReport",
    "SuboptimalSample",
    "InsufficientRankError",
    "optimal_choice",
    "optimal_pf_bound",
    "hashing_rate",
    "run_protocol",
    "scan_m",
    "sample_suboptimal",
]


class InsufficientRankError(ValidationError):
    """The off-diagonal block has too few nonzero singular values for m."""


# Absolute tolerance on pf against optimal_pf_bound: a pf above the bound by
# more, or below it by more where the bound is attained, is reported.
BOUND_ATOL = 1e-9

# Trials evaluated per stacked batch in sample_suboptimal: large enough to
# amortise the fixed numpy overhead of a stack, small enough to bound
# memory.
SAMPLE_CHUNK = 512

NOTE_TEXT = {
    "degenerate_cut": "degenerate singular value at the cut (lambda_{} == lambda_{}); "
    "the kept subspace depends on the SVD basis choice",
    "bound_missed": "pf = {:.12e} misses the bound {:.12e} despite a vanishing diagonal block",
    "above_reference": "pf = {:.12e} above the vanishing-block reference {:.12e} "
    "(no optimality statement applies)",
    "skipped_not_finite": "skipped L={}: value {} is not finite",
    "skipped_saturated": "skipped L={}: value {} >= 1",
}


@dataclass(frozen=True)
class Note:
    """A caveat on a result: its kind, a key of NOTE_TEXT, and the numbers its text names."""

    kind: str
    values: tuple

    def __str__(self) -> str:
        return NOTE_TEXT[self.kind].format(*self.values)


def _payload(record, *leave_out: str) -> dict:
    """A result record's fields by name as JSON values, its notes as their text."""
    payload = {f.name: getattr(record, f.name) for f in fields(record) if f.name not in leave_out}
    return {**payload, "warnings": [str(note) for note in record.warnings]}


def _check_target(split: BipartiteSplit, m: int) -> int:
    """m as an int; refuses a non-integer m, or one that no protocol on this split can reach."""
    if (m := as_index(m, "m")) < 2:
        raise ValidationError("protocol needs m >= 2")
    split.check_even()
    if 2 * m > len(split.a):
        raise InsufficientRankError(
            f"m = {m} needs rank 2m = {2 * m} but each side has only {len(split.a)} dimensions"
        )
    return m


@dataclass(frozen=True)
class ProtocolChoice:
    """One canonical protocol instance: target size m and kept-mode frames.

    Column i of d.ua and d.ub is the i-th left and right singular vector
    of Y (value lambdas[i] > 0), so V pairs them: v = d.ua d.ub^T.
    `krylov_steps` counts the Lanczos steps, one Toeplitz product each,
    spent finding the frames on the lattice route; a choice made by dense
    SVD leaves it at 0.
    """

    m: int
    d: RealProjectionPair
    lambdas: np.ndarray
    warnings: tuple[Note, ...] = ()
    krylov_steps: int = 0

    @property
    def v(self) -> np.ndarray:
        """The partial isometry from Ran D_B onto Ran D_A pairing the frames' columns."""
        return self.d.ua @ self.d.ub.T


@dataclass(frozen=True)
class DistillationReport:
    """Outcome of one protocol run; `krylov_steps` is the choice's count."""

    m: int
    p: float
    f: float | None
    pf: float
    rate: float | None
    lambdas: tuple[float, ...]
    distillable: bool
    warnings: tuple[Note, ...] = ()
    krylov_steps: int = 0

    def to_dict(self) -> dict:
        return _payload(self, "krylov_steps")


def optimal_choice(
    s: CovarianceMatrix | np.ndarray, split: BipartiteSplit, m: int
) -> ProtocolChoice:
    """Canonical choice for target size m from the SVD of the Y block.

    D_A and D_B project onto the top-2m left and right singular vectors
    of Y, in whose frames D_A Y D_B is diag(lambda) > 0, so V is read off
    the frames (`ProtocolChoice.v`).  Requires lambda_2m > RANK_RTOL *
    lambda_1; a degenerate value at the cut makes the subspace
    basis-dependent, which is reported as a warning.  Like `run_protocol`,
    `scan_m` and `sample_suboptimal`, it refuses a state that fails
    `validate` with ValidationError.
    """
    m = _check_target(split, m)
    return _choice(svd(_valid_blocks(s, split).y), m)


def _choice(y_svd: tuple[np.ndarray, np.ndarray, np.ndarray], m: int) -> ProtocolChoice:
    """Canonical choice for m from the SVD (u, sv, vh) of Y, shared by every m."""
    u, sv, vh = y_svd
    cut = 2 * m
    tol = RANK_RTOL * sv[0] if sv[0] > 0 else 0.0
    if sv[cut - 1] <= tol:
        raise InsufficientRankError(
            f"insufficient rank: singular value {cut} of Y is {sv[cut - 1]:.3e}"
        )
    degenerate = cut < len(sv) and sv[cut - 1] - sv[cut] <= 1e-10 * sv[0]
    warnings = (Note("degenerate_cut", (cut, cut + 1)),) if degenerate else ()
    d = RealProjectionPair(u[:, :cut], vh[:cut].T)
    return ProtocolChoice(m=m, d=d, lambdas=sv[:cut].copy(), warnings=warnings)


def optimal_pf_bound(lambdas) -> float:
    """Largest attainable p*f given the top singular values of Y.

    prod (1 + l_k)/2 + prod (1 - l_k)/2 over the 2m values; attained by
    the canonical choice whenever one diagonal block vanishes.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.size == 0:
        raise ValidationError("need at least one singular value")
    if not np.all((-1e-12 <= lam) & (lam <= 1 + 1e-12)):  # NaN fails too
        raise ValidationError("singular values must lie in [0, 1]")
    lam = np.clip(lam, 0.0, 1.0)
    return float(np.prod((1 + lam) / 2) + np.prod((1 - lam) / 2))


def hashing_rate(p: float, f: float) -> float:
    """Distillation rate of the keep-and-hash strategy for qubit pairs.

    R = p * max(0, 1 - H(sigma)) where the isotropic-state entropy gives
    1 + f log2 f + (1 - f) log2((1 - f)/3).  Continuous at f in {0, 1}.
    """
    if not (0.0 <= p <= 1.0) or not (-1e-12 <= f <= 1 + 1e-12):
        raise ValidationError("p and f must lie in [0, 1]")
    f = min(max(f, 0.0), 1.0)

    def xlog2(x: float) -> float:
        return x * math.log2(x) if x > 0.0 else 0.0

    bracket = 1.0 + xlog2(f) + xlog2(1.0 - f) - (1.0 - f) * math.log2(3.0)
    return p * max(0.0, bracket)


def _evaluate(blk: BlockDecomposition, *choices: ProtocolChoice) -> list[DistillationReport]:
    """A report for each choice, all from one `protocol_quantities` call (one Pfaffian stack)."""
    vanishing = min(np.abs(blk.x).max(initial=0.0), np.abs(blk.z).max(initial=0.0)) < STRUCT_ATOL
    reports = []
    for choice, q in zip(choices, protocol_quantities(blk, [c.d for c in choices])):
        warnings = choice.warnings
        bound = optimal_pf_bound(choice.lambdas)
        if vanishing:
            # with a vanishing diagonal block the product formula is provably
            # optimal and attained, so any deviation is a bug
            if q.pf > bound + BOUND_ATOL:
                raise ValidationError(
                    f"pf = {q.pf:.12e} exceeds the optimal-protocol bound {bound:.12e}"
                )
            if abs(q.pf - bound) > BOUND_ATOL:
                warnings += (Note("bound_missed", (q.pf, bound)),)
        elif q.pf > bound + BOUND_ATOL:
            # outside the hypothesis the bound is only a reference point
            warnings += (Note("above_reference", (q.pf, bound)),)
        rate = hashing_rate(q.p, q.f) if q.f is not None and choice.m == 2 else None
        reports.append(DistillationReport(
            m=choice.m, p=q.p, f=q.f, pf=q.pf, rate=rate,
            lambdas=tuple(float(v) for v in choice.lambdas),
            distillable=q.f is not None and q.f > 1.0 / (2 ** (choice.m - 1)),
            warnings=warnings, krylov_steps=choice.krylov_steps))
    return reports


def run_protocol(
    s: CovarianceMatrix | np.ndarray, split: BipartiteSplit, m: int
) -> DistillationReport:
    """Build the canonical choice for m and evaluate it.

    When a diagonal block vanishes, pf must attain the product bound:
    exceeding it raises, missing it attaches a warning.  Outside the
    hypothesis the bound is recorded as a reference only.  The hashing
    rate is reported for m = 2 (qubit pairs); for larger m the report
    carries p, f and pf with d = 2^(m-1) implied.  An invalid state raises.
    """
    m = _check_target(split, m)
    blk = _valid_blocks(s, split)
    return _evaluate(blk, _choice(svd(blk.y), m))[0]


def scan_m(
    s: CovarianceMatrix | np.ndarray, split: BipartiteSplit, m_max: int
) -> tuple[list[DistillationReport], str | None]:
    """Reports for m = 2..m_max from one SVD of Y and one Pfaffian stack for every m,
    each equal to run_protocol's; truncates with a reason when rank runs out."""
    if (m_max := as_index(m_max, "m_max")) < 2:
        raise ValidationError(f"protocol needs m >= 2, got m_max = {m_max}")
    choices, reason, blk, y_svd = [], None, None, None
    try:
        for m in range(2, m_max + 1):
            _check_target(split, m)
            if blk is None:
                blk = _valid_blocks(s, split)
                y_svd = svd(blk.y)
            choices.append(_choice(y_svd, m))
    except InsufficientRankError as exc:
        reason = str(exc)
    return (_evaluate(blk, *choices) if choices else []), reason


@dataclass(frozen=True)
class SuboptimalSample:
    """Best randomly drawn protocol found, where it came from, and its frames d."""

    best_pf: float
    best_p: float
    best_f: float | None
    trial: int
    d: RealProjectionPair

    @property
    def v(self) -> np.ndarray:
        """The partial isometry from Ran D_B onto Ran D_A pairing the frames' columns."""
        return self.d.ua @ self.d.ub.T


def sample_suboptimal(
    s: CovarianceMatrix | np.ndarray,
    split: BipartiteSplit,
    m: int,
    trials: int,
    seed: int,
) -> SuboptimalSample:
    """Best pf over random (D, V) draws; deterministic per seed.

    D_A and D_B are spanned by random orthogonal frames ua and ub, and V
    = ua ub^T pairs their columns; for Haar frames this is the law of a
    Haar-random pairing between them.  Used as an empirical optimality
    probe against the canonical choice.  One default_rng(seed) feeds
    every trial: row t of a (trials, 2kr) standard-normal draw (k = |A| =
    |B|, r = 2m) holds trial t's k x r Alice and Bob draws, row-major,
    each made a frame by Gram-Schmidt (`linalg._orthonormalise`).  Rows
    are filled in order, so the trials do not depend on SAMPLE_CHUNK and
    a longer run extends a shorter one.

    Trials are evaluated as stacks of C = SAMPLE_CHUNK in one workspace,
    a single allocation per call: the elimination scratch, the batch-last
    frames (k, r, 2, C) and the Pfaffian matrices (2r, 2r, 3, C).  The
    draw, filled with `standard_normal(out=)`, is a view at the front of
    the scratch; it is copied into the frames before the elimination
    runs, and the scratch grows to hold it when it is the larger.  Each
    chunk, the last partial one included, runs in views of their first
    count trials.  The first trial with the largest pf wins.
    """
    trials, m = as_index(trials, "trials", positive=True), _check_target(split, m)
    blk = _valid_blocks(s, split)
    k, r = len(split.a), 2 * m  # |A| == |B| after _check_target
    rng = _rng(seed)
    size = min(SAMPLE_CHUNK, trials)
    # scratch holding the draw, frames (k, r, 2, C), Pfaffian matrices; one
    # allocation, as separate buffers were mapped afresh by most calls
    width = 2 * k * r
    lengths = [max(_scratch_size(2 * r, 3 * size), size * width),
               size * width, size * 3 * (2 * r) ** 2]
    scratch, side_buf, mats_buf = np.split(np.empty(sum(lengths)), np.cumsum(lengths)[:-1])
    draw = scratch[: size * width].reshape(size, width)
    best: SuboptimalSample | None = None
    for start in range(0, trials, size):
        count = min(size, trials - start)
        rows = rng.standard_normal(out=draw[:count])
        sides = side_buf[: width * count].reshape(k, r, 2, count)
        sides[...] = rows.reshape(count, 2, k, r).transpose(2, 3, 1, 0)
        _orthonormalise(sides.reshape(k, r, 2 * count), (2, count))
        # trial-first views of the batch-last frames
        ua, ub = (sides[:, :, j].transpose(2, 0, 1) for j in range(2))
        mats = mats_buf[: (2 * r) ** 2 * 3 * count].reshape(2 * r, 2 * r, 3, count)
        p, pf = _protocol_quantities_stack(blk, ua, ub, mats, scratch)
        i = int(np.argmax(pf))
        if best is None or pf[i] > best.best_pf:
            pi, pfi = float(p[i]), float(pf[i])
            best = SuboptimalSample(pfi, pi, pfi / pi if pi > P_FLOOR else None, start + i,
                                    RealProjectionPair(ua[i].copy(), ub[i].copy()))
    return best
