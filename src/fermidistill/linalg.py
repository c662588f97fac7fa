"""Dense linear-algebra primitives shared by all modules.

The Pfaffian is the workhorse: every probability and fidelity in this
package is a Pfaffian of a real antisymmetric matrix, and its *sign*
carries physical meaning, so we use a sign-exact elimination algorithm
instead of sqrt(det).  `pfaffian` takes a stack of small matrices (one
per sampled protocol) and works on one batch-last copy of it, so every
step is a contiguous operation over the whole stack rather than one
Python loop per matrix.  It is a thin wrapper around the in-place core
`_eliminate`; that core and `_orthonormalise`, which makes the random
frames, run on batch-last buffers that `sample_suboptimal` keeps for all
of its trials.  Malformed input raises
`ValidationError`, the package's one error type for structural
violations.
"""

from __future__ import annotations

import math

import numpy as np

# Antisymmetry violations above this (relative to the largest entry) are
# treated as data errors rather than roundoff.
ANTISYMMETRY_RTOL = 1e-12

# Singular values below RANK_RTOL * sigma_max are treated as exact zeros.
RANK_RTOL = 1e-12


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


def _member(index: int, lead: tuple[int, ...]) -> str:
    """Name stack member `index` (flat) of a stack with leading shape `lead`."""
    if not lead:
        return "matrix"
    return f"stack member {tuple(int(i) for i in np.unravel_index(index, lead))}"


def pfaffian(a: np.ndarray) -> float | complex | np.ndarray:
    """Pfaffian of an even-dimensional antisymmetric matrix, or of each in a stack.

    Skew-symmetric Parlett-Reid elimination with partial pivoting
    (Wimmer, ACM TOMS 38, 2012): O(n^3) per matrix, tracks the sign
    exactly (row/column swaps flip it, each 2x2 pivot contributes a
    factor).  Satisfies Pf(A)^2 = det(A) with the sign fixed by the
    identity ordering of the rows, ie Pf([[0, a], [-a, 0]]) = a.

    `a` has shape (..., n, n).  It is copied once into a batch-last
    array (n, n, count), which `_eliminate` checks and eliminates in
    place.  Raises ValidationError unless every member is square,
    even-dimensional, finite and antisymmetric to ANTISYMMETRY_RTOL
    times its own largest entry; the message names the first offending
    member.  Every member picks its own pivot; a member whose pivot
    column vanishes is singular and gets exactly 0.  A 2-D input returns
    a Python float (complex for complex input); a stack returns an array
    of shape a.shape[:-2].
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if n % 2:
        raise ValidationError(f"Pfaffian requires even dimension, got {n}")
    lead = a.shape[:-2]
    count = math.prod(lead)
    complex_in = np.iscomplexobj(a)
    dtype = complex if complex_in else float
    work = np.array(a.reshape(count, n * n).T, dtype=dtype, order="C").reshape(n, n, count)
    pf = _eliminate(work, np.empty(_scratch_size(n, count), dtype=dtype), lead)
    if lead:
        return pf.reshape(lead)
    return complex(pf[0]) if complex_in else float(pf[0])


def _scratch_size(n: int, count: int) -> int:
    """Entries of scratch `_eliminate` touches for count n x n matrices: exactly one stack.

    The checks fill all n^2 entries per member; a step on the trailing m
    x m block (m <= n - 2) needs 3m + m^2 of them.
    """
    return n * n * count


def _eliminate(work: np.ndarray, scratch: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """Check and eliminate the batch-last stack work (n, n, count) in place; its Pfaffians.

    The core of `pfaffian`, for callers that keep their own buffers:
    work is overwritten and scratch, a flat array of at least
    `_scratch_size(n, count)` entries of work's dtype, holds every
    temporary of the stack's size.  Checks finiteness (from each
    member's max |A|, through which NaN and inf carry) and antisymmetry
    per member; an error names the member by its index in `lead`, whose
    C-order flattening is the last axis of work.  Each step touches only
    the live block.  The pivot search writes |column| into scratch laid
    out (count, m), so argmax runs over its contiguous last axis; ties
    go to the first maximum.
    """
    n, _, count = work.shape
    full = scratch[: n * n * count].reshape(n, n, count)
    scale = np.abs(work, out=full).real.max(axis=(0, 1), initial=0.0)
    if not scale.max(initial=0.0) < math.inf:  # NaN and inf carry through max
        raise ValidationError("matrix contains non-finite entries")
    # |A + A^T| (for complex input it lands in the real parts)
    np.add(work, work.transpose(1, 0, 2), out=full)
    resid = np.abs(full, out=full).real.max(axis=(0, 1), initial=0.0)
    bad = resid > ANTISYMMETRY_RTOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"{_member(i, lead)} is not antisymmetric: |A + A^T|_max = {resid[i]:.3e}"
            f" exceeds {ANTISYMMETRY_RTOL:.1e} * |A|_max"
        )
    pivots = np.empty((n // 2, count), dtype=work.dtype)
    moved = np.zeros((n // 2, count), dtype=np.intp)  # step s swapped iff moved[s] != 0
    members = np.arange(count)
    for s, k in enumerate(range(0, n - 2, 2)):
        # Largest element in column k below the diagonal becomes the pivot;
        # indices k + 1 and kp swap places.  Row k + 1 moves to row kp, then
        # column kp is read out as the new column k + 1 (col) and column
        # k + 1 moves to column kp; row and column k + 1 are never read again.
        size = n - k - 1
        mags = np.abs(work[k + 1 :, k].T, out=scratch[: count * size].reshape(count, size))
        kp = mags.argmax(axis=1, out=moved[s]) + (k + 1)
        work[kp, k + 1 :, members] = work[k + 1, k + 1 :].T
        col = work[k:, kp, members]
        work[k:, kp, members] = work[k:, k + 1]
        pivot = pivots[s] = col[0]
        m = n - k - 2
        pair = scratch[: 3 * m * count].reshape(3, m, count)  # tau, c, -tau
        tau, c, neg = pair
        # A zero pivot means the column vanishes: that member's pf is now 0,
        # and dividing by 1 instead keeps its elimination finite.
        np.divide(work[k, k + 2 :], pivot + (pivot == 0), out=tau)
        c[...] = col[2:]
        np.negative(tau, out=neg)
        # rank-2 update tau c^T - c tau^T in one pass
        block = scratch[3 * m * count : (3 + m) * m * count].reshape(m, m, count)
        np.einsum("xib,xjb->ijb", pair[:2], pair[1:], out=block)
        work[k + 2 :, k + 2 :] += block
    if n:
        # the last 2 x 2 block has a single candidate pivot
        pivots[-1] = work[n - 2, n - 1]
    return np.where(moved, -pivots, pivots).prod(axis=0)


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition a = u @ diag(s) @ vh, s decreasing."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite entries")
    return np.linalg.svd(a)


def _orthonormalise(q: np.ndarray, lead: tuple[int, ...]) -> None:
    """Gram-Schmidt, applied twice, on the batch-last stack q (n, k, count) in place.

    Two classical passes are orthogonal to working precision (Giraud,
    Langou & Rozloznik, Comput. Math. Appl. 50, 2005).  The result is Q
    of the reduced QR of q with diag(R) > 0, so for Gaussian q the frame
    is Haar-random.  It allocates nothing of the stack's size.  A column
    with no component outside the span of the earlier ones (residual at
    most RANK_RTOL times its norm) raises ValidationError naming the
    member, by its index in `lead`, whose C-order flattening is the last
    axis of q, and the column.
    """
    n, k, count = q.shape
    size = np.sqrt(np.einsum("ijb,ijb->jb", q, q))
    for j in range(k):
        v = q[:, j]
        if j:
            done = q[:, :j]
            for _ in range(2):
                v -= np.einsum("ilb,lb->ib", done, np.einsum("ilb,ib->lb", done, v))
        norm = np.sqrt(np.einsum("ib,ib->b", v, v))
        fine = norm > RANK_RTOL * size[j]
        if not fine.all():
            raise ValidationError(
                f"{_member(int(np.argmin(fine)), lead)}: column {j} has no component"
                " outside the span of the earlier columns"
            )
        v /= norm
