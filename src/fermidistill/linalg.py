"""Dense linear-algebra primitives shared by all modules.

The Pfaffian is the workhorse: every probability and fidelity in this
package is a Pfaffian of a real antisymmetric matrix, and its *sign*
carries physical meaning, so we use a sign-exact elimination algorithm
instead of sqrt(det).  It runs over a leading batch axis, so a stack of
small matrices (one per sampled protocol) costs one vectorised
elimination rather than one Python loop per matrix.
"""

from __future__ import annotations

import math

import numpy as np

# Antisymmetry violations above this (relative to the largest entry) are
# treated as data errors rather than roundoff.
ANTISYMMETRY_RTOL = 1e-12

# Singular values below RANK_RTOL * sigma_max are treated as exact zeros.
RANK_RTOL = 1e-12


def check_antisymmetric(a: np.ndarray) -> np.ndarray:
    """Validate that each matrix in `a` is square, even-dimensional and antisymmetric.

    `a` is one matrix or a stack (..., n, n).  Returns the array unchanged.  Raises ValueError on violation; the
    tolerance is relative to each matrix's own largest entry so that
    rescaled inputs behave identically, and the message names the first
    offending member of a stack.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.shape[-1] % 2 != 0:
        raise ValueError(f"Pfaffian requires even dimension, got {a.shape[-1]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    resid = np.abs(a + np.swapaxes(a, -1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = resid > ANTISYMMETRY_RTOL * scale
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        member = f"stack member {tuple(int(i) for i in idx)}" if a.ndim > 2 else "matrix"
        raise ValueError(
            f"{member} is not antisymmetric: |A + A^T|_max = {resid[idx]:.3e}"
            f" exceeds {ANTISYMMETRY_RTOL:.1e} * |A|_max"
        )
    return a


def pfaffian(a: np.ndarray) -> float | complex | np.ndarray:
    """Pfaffian of an even-dimensional antisymmetric matrix, or of each in a stack.

    Skew-symmetric Parlett-Reid elimination with partial pivoting
    (Wimmer, ACM TOMS 38, 2012): O(n^3) per matrix, tracks the sign
    exactly (row/column swaps flip it, each 2x2 pivot contributes a
    factor).  Satisfies Pf(A)^2 = det(A) with the sign fixed by the
    identity ordering of the rows, ie Pf([[0, a], [-a, 0]]) = a.

    `a` has shape (..., n, n).  Every member picks its own pivot; a
    member whose pivot column vanishes is singular and gets exactly 0.
    A 2-D input returns a Python float (complex for complex input); a
    stack returns an array of shape a.shape[:-2].
    """
    a = check_antisymmetric(a)
    n = a.shape[-1]
    complex_in = np.iscomplexobj(a)
    dtype = complex if complex_in else float
    count = math.prod(a.shape[:-2])
    work = np.array(a, dtype=dtype).reshape(count, n, n)
    pf = np.ones(count, dtype=dtype)
    members = np.arange(count)[:, None]
    pair = np.empty((count, 2), dtype=int)
    for k in range(0, n - 2, 2):
        # Largest element in column k below the diagonal becomes the pivot;
        # rows and columns k + 1 and kp swap places (in place where kp == k + 1).
        kp = k + 1 + np.argmax(np.abs(work[:, k + 1:, k]), axis=1)
        pair[:, 0] = k + 1
        pair[:, 1] = kp
        work[members, pair] = work[members, pair[:, ::-1]]
        work[members, :, pair] = work[members, :, pair[:, ::-1]]
        pivot = work[:, k, k + 1]
        pf *= np.where(kp == k + 1, pivot, -pivot)
        # A zero pivot means the column vanishes: that member's pf is now 0,
        # and dividing by 1 instead keeps its elimination finite.
        tau = work[:, k, k + 2:] / np.where(pivot == 0, 1.0, pivot)[:, None]
        outer = tau[:, :, None] * work[:, None, k + 2:, k + 1]
        work[:, k + 2:, k + 2:] += outer - np.swapaxes(outer, 1, 2)
    if n:
        # the last 2 x 2 block has a single candidate pivot
        pf *= work[:, n - 2, n - 1]
    if a.ndim > 2:
        return pf.reshape(a.shape[:-2])
    return complex(pf[0]) if complex_in else float(pf[0])


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition a = u @ diag(s) @ vh, s decreasing."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.svd(a)


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


def random_orthogonal(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-random real orthogonal matrix, deterministic per seed.

    QR of a Gaussian matrix with the sign of diag(R) absorbed into Q,
    which makes the distribution exactly Haar.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    return haar_frame(rng.standard_normal((dim, dim)))


def haar_frame(g: np.ndarray) -> np.ndarray:
    """Q of the reduced QR of g (..., n, k) with the sign of diag(R) absorbed.

    For Gaussian g the k columns are a Haar-random orthonormal frame.
    The first j columns of Q depend only on the first j columns of g, so
    the frame equals the first k columns of `random_orthogonal` on the
    full square draw.
    """
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
