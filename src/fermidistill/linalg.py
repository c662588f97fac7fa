"""Dense linear-algebra primitives shared by all modules.

The Pfaffian is the workhorse: every probability and fidelity in this
package is a Pfaffian of a real antisymmetric matrix, and its *sign*
carries physical meaning, so we use sign-exact Householder reflections
instead of sqrt(det).  `pfaffian` takes a stack of small matrices (one
per sampled protocol) and works on one batch-last copy of it; no step
searches for a pivot, so every step is the same contiguous operation
over the whole stack rather than one Python loop per matrix.  It checks
its input and hands it to the in-place kernel `_eliminate`, which checks
nothing; that kernel and `_orthonormalise`, which makes the random frames,
run on batch-last buffers that `sample_suboptimal` keeps for all of its
trials.  Complex input, like malformed input, raises `ValidationError`, the
package's one error type for structural violations: a state is its real G.
"""

from __future__ import annotations

import math
import operator

import numpy as np

STRUCT_ATOL = 1e-10  # structural tolerances (realness, hermiticity, ...)

# Antisymmetry violations above this (relative to the largest entry) are
# treated as data errors rather than roundoff.
ANTISYMMETRY_RTOL = 1e-12

# Singular values below RANK_RTOL * sigma_max are treated as exact zeros.
RANK_RTOL = 1e-12


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


# Entries of this magnitude or more are refused on input, before G G^T or |x|^2 overflows.
ENTRY_LIMIT = 1e100


def as_real(a, name: str) -> np.ndarray:
    """A float64 copy of the array or scalar a: the package's one entry gate for numbers.

    ValidationError naming `name` for |Im| > STRUCT_ATOL or an entry NaN, inf or >= ENTRY_LIMIT."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and not np.abs(a.imag).max(initial=0.0) <= STRUCT_ATOL:  # NaN fails too
        raise ValidationError(f"{name} is not real")
    a = np.array(np.real(a), dtype=float)
    if not np.abs(a).max(initial=0.0) < ENTRY_LIMIT:  # NaN and inf fail too
        i = np.unravel_index(np.argmin(np.abs(a) < ENTRY_LIMIT), a.shape)
        what = "an entry of 1e100 or more" if np.isfinite(a[i]) else "a non-finite entry"
        at = f" at {tuple(map(int, i))}" if i else ""  # a scalar has no position
        raise ValidationError(f"{name} has {what}{at}")
    return a


def as_index(value, name: str, positive: bool = False) -> int:
    """value as a Python int, above 0 if `positive`; else ValidationError (a float or bool too)."""
    try:
        index = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        index = None
    if index is None or (positive and index <= 0):
        kind = "a positive integer" if positive else "an integer"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return index


def _member(index: int, lead: tuple[int, ...]) -> str:
    """Name stack member `index` (flat) of a stack with leading shape `lead`."""
    if not lead:
        return "matrix"
    return f"stack member {tuple(int(i) for i in np.unravel_index(index, lead))}"


def pfaffian(a: np.ndarray) -> float | np.ndarray:
    """Pfaffian of an even-dimensional antisymmetric matrix, or of each in a stack.

    Skew-symmetric Householder tridiagonalisation (Wimmer, ACM TOMS 38,
    2012): O(n^3) per matrix, backward stable without pivoting, and sign
    exact, since each reflection has determinant -1 and Pf(H A H^T) =
    det(H) Pf(A).  Satisfies Pf(A)^2 = det(A) with the sign fixed by the
    identity ordering of the rows, ie Pf([[0, a], [-a, 0]]) = a.

    `a` has shape (..., n, n).  It is copied once into a batch-last array
    (n, n, count), checked there (the package's one antisymmetry check) and
    eliminated in place by `_eliminate`.  Raises ValidationError for a complex
    dtype, even with a zero imaginary part, for entries `as_real` refuses, and
    unless every member is square, even-dimensional and antisymmetric to
    ANTISYMMETRY_RTOL times its own largest entry.  A member whose column to
    reflect vanishes, or underflows, gets exactly 0.  A 2-D input returns a
    Python float; a stack, a float64 array of shape a.shape[:-2].
    """
    if np.iscomplexobj(a):
        raise ValidationError(f"Pfaffian takes real input, got dtype {np.asarray(a).dtype}")
    a = as_real(a, "matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if n % 2:
        raise ValidationError(f"Pfaffian requires even dimension, got {n}")
    lead = a.shape[:-2]
    count = math.prod(lead)
    work = np.array(a.reshape(count, n * n).T, order="C").reshape(n, n, count)
    full = np.empty_like(work)  # the check's buffer, then the elimination's scratch
    scale = np.abs(work, out=full).max(axis=(0, 1), initial=0.0)
    np.add(work, work.transpose(1, 0, 2), out=full)
    resid = np.abs(full, out=full).max(axis=(0, 1), initial=0.0)
    bad = resid > ANTISYMMETRY_RTOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"{_member(i, lead)} is not antisymmetric: |A + A^T|_max = {resid[i]:.3e}"
            f" exceeds {ANTISYMMETRY_RTOL:.1e} * |A|_max"
        )
    try:
        with np.errstate(over="raise"):
            pf = _eliminate(work, full.reshape(-1))
    except FloatingPointError:
        raise ValidationError("matrix has a Pfaffian that overflows float64") from None
    if lead:
        return pf.reshape(lead)
    return float(pf[0])


def _scratch_size(n: int, count: int) -> int:
    """Entries of scratch `_eliminate` touches for count n x n matrices, exactly.

    The first step uses the most, 3(n - 1) + (n - 2)^2 = n^2 - n + 1 per member,
    all but the first count (-y's first entry); at n <= 4 only the 4 x 4 tail runs.
    """
    return (n * n - n + 1) * count if n > 4 else 0


def _eliminate(work: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Eliminate the batch-last stack work (n, n, count) in place; its Pfaffians.

    The kernel of `pfaffian`, for callers that keep their own buffers:
    work is overwritten and scratch, a flat float64 array of at least
    `_scratch_size(n, count)` entries, holds every temporary of the
    stack's size.  It checks nothing: every entry came through `as_real`,
    so no reflection's |x|^2 <= n^2 max|A|^2 overflows, and every member
    is antisymmetric, exactly as the protocol stack builds it or to
    ANTISYMMETRY_RTOL as `pfaffian` checked it.  Each step reflects one
    column of the live block, the same operations on every member; the
    last 4 x 4 block's Pfaffian is written out, so only a column of n >= 6
    whose entries all lie below about 1e-154 underflows to a Pfaffian of 0.
    """
    n, _, count = work.shape
    pf = np.ones(count)
    for k in range(0, n - 4, 2):
        # H = 1 - u u^T / den maps x = A[k+1:, k] onto -s|x| e_1, for s the
        # sign of x_0, u = x + s|x| e_1 and den = |x| (|x| + |x_0|).  Then
        # Pf(A) = -s|x| Pf(T'), T' the trailing block of H T H^T = T + u y^T
        # - y u^T with T = A[k+1:, k+1:] and y = T u / den.
        size, m = n - k - 1, n - k - 2
        x, x0 = work[k + 1 :, k], work[k + 1, k]
        norm = np.sqrt(np.einsum("ib,ib->b", x, x))
        step = np.copysign(norm, x0)  # s|x|; at x_0 = +-0 either sign is exact
        pf *= step
        den = norm * (norm + np.abs(x0))
        den += np.logical_not(den)  # a vanishing column: pf is now 0, and u = y = 0
        rows = scratch[: 3 * size * count].reshape(3, size, count)  # -y, u, y
        rows[1] = x
        rows[1, 0] += step
        # -y = T^T u / den, with u / den held where y goes: the sum runs
        # over the outer axis, so a lone matrix rounds exactly like a stack
        # member
        w = np.divide(rows[1], den, out=rows[2])
        np.einsum("jib,jb->ib", work[k + 1 :, k + 2 :], w, out=rows[0, 1:])
        np.negative(rows[0, 1:], out=rows[2, 1:])
        # rank-2 update u y^T - y u^T of the trailing block in one pass
        pair = rows[:, 1:]
        block = scratch[3 * size * count : (3 * size + m * m) * count].reshape(m, m, count)
        np.einsum("xib,xjb->ijb", pair[:2], pair[1:], out=block)
        work[k + 2 :, k + 2 :] += block
    if n == 2:
        pf *= work[0, 1]
    elif n:
        # the n/2 - 2 reflections' signs, and the Pfaffian of the last 4 x 4 block
        t = work[n - 4 :, n - 4 :]
        pf *= (-1.0) ** (n // 2) * (t[0, 1] * t[2, 3] - t[0, 2] * t[1, 3] + t[0, 3] * t[1, 2])
    return pf


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition a = u @ diag(s) @ vh, s decreasing, of a real a."""
    return np.linalg.svd(as_real(a, "matrix"))


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
