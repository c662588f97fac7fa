"""Test-only oracles, kept independent of the library code paths they check."""

import numpy as np


def pfaffian_combinatorial(a: np.ndarray):
    """Sum over perfect matchings; O(n!!), usable up to dim ~10."""
    a = np.asarray(a)
    n = a.shape[0]
    if n % 2:
        raise ValueError("odd dimension")
    if n == 0:
        return 1.0

    def rec(idx):
        if not idx:
            return 1.0
        first = idx[0]
        total = 0.0
        for pos in range(1, len(idx)):
            rest = idx[1:pos] + idx[pos + 1:]
            total += (-1) ** (pos - 1) * a[first, idx[pos]] * rec(rest)
        return total

    return rec(tuple(range(n)))


def random_antisymmetric(dim: int, rng, complex_entries: bool = False) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    if complex_entries:
        a = a + 1j * rng.standard_normal((dim, dim))
    return (a - a.T) / 2


def dense_sine_toeplitz(L: int, r: int) -> np.ndarray:
    """Entrywise construction of the block-correlation kernel, no FFT."""
    out = np.zeros((L, L))
    for j in range(L):
        for k in range(L):
            q = j - k + r
            if q != 0:
                out[j, k] = np.sin(q * np.pi / 2.0) / (q * np.pi)
    return out


def orthogonal_2x2_grid(steps: int = 2001):
    """All of O(2) on an angle grid: rotations and reflections."""
    for phi in np.linspace(0.0, 2.0 * np.pi, steps):
        c, s = np.cos(phi), np.sin(phi)
        yield np.array([[c, -s], [s, c]])
        yield np.array([[-c, s], [s, c]])


def wick_table_recursive(s: np.ndarray) -> dict[int, complex]:
    """Pfaffian of every even-subset minor, keyed by index bitmask.

    The expansion along the lowest set bit, memoized across subsets.
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


def density_dense_products(s: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    """rho = sum over even index sets M of 2^(|M| - n) conj(Pf S_M) B_M.

    Every ordered monomial is one dense product, depth first over index
    subsets, extending each monomial by one factor with a larger index.
    No trace, hermiticity or positivity check.
    """
    dim = s.shape[0]
    n = dim // 2
    wick = wick_table_recursive(s)
    hdim = ops[0].shape[0]
    rho = np.zeros((hdim, hdim), dtype=complex)
    stack = [(0, 0, np.eye(hdim, dtype=complex))]
    while stack:
        mask, start, mono = stack.pop()
        k = bin(mask).count("1")
        if k % 2 == 0:
            rho += (2.0 ** (k - n)) * np.conj(wick[mask]) * mono
        for b in range(start, dim):
            stack.append((mask | (1 << b), b + 1, mono @ ops[b]))
    return rho
