"""Fixed reference kernels that track the shared machine's speed.

The benchmark was defined on a shared machine with 2 vCPUs. There, the
same work ran up to 2.5x slower from one minute to the next. Steal time
did not show the slowdown, and CPU time followed wall time, so the vCPU
itself ran slower. How much slower depended on the kind of work. Medians
inside a 30 s run cannot remove drift that outlasts the run. So the
workloads bracket their timed segments with kernels that do the same
kind of work at the same sizes, and scale each segment's wall time:

    scale = NOMINAL_S[kernel] / mean(kernel time before, kernel time after)
    normalized time = wall time * scale

The kernels use numpy only, never fermidistill. A change to the library
therefore moves the normalized figures exactly as it moves wall times.
A kernel only tracks work like its own, so each kernel mirrors one
workload's inner loop.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel times on the defining machine in a quiet period; they
# fix the unit of the normalized figures, seconds at that speed.
NOMINAL_S = {"small": 0.0041, "zgemm": 0.0038, "lattice_1e5": 0.0236}

_A8 = np.arange(64, dtype=float).reshape(8, 8) % 7 - 3.0
_M16 = np.cos(np.arange(256, dtype=float)).reshape(16, 16)


def small() -> float:
    """Interpreter-bound calls on tiny arrays, like the protocol layer.

    Each pass mixes small LAPACK calls with a pivoted elimination sweep
    over an 8x8 matrix, the op mix of `pfaffian` and `projection_frame`.
    """
    acc = 0.0
    for i in range(45):
        acc += float(np.linalg.svd(_A8, compute_uv=False)[0])
        acc += float(np.linalg.qr(_M16)[1][0, 0])
        work = _A8.copy()
        for k in range(0, 6, 2):
            kp = k + 1 + int(np.argmax(np.abs(work[k + 1:, k])))
            work[[k + 1, kp], :] = work[[kp, k + 1], :]
            work[:, [k + 1, kp]] = work[:, [kp, k + 1]]
            tau = work[k, k + 2:] / work[k, k + 1]
            col = work[k + 2:, k + 1]
            work[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
        acc += float(work[i % 8, 7])
    return acc


def zgemm() -> float:
    """Chained 64x64 complex products, like the dense Fock oracle."""
    j = np.arange(64)
    u = np.exp(2j * np.pi * np.outer(j, j) / 64) / 8.0   # unitary, so no underflow
    m = u
    for _ in range(100):
        m = m @ u
    return float(abs(m[0, 0]))


def lattice_1e5() -> float:
    """The inner loop of a chain_sweep point at its largest L = 100000.

    Two FFT round trips of length 2^18 and four products with a 24-column
    Krylov-sized basis (19 MB), allocated on every call as the solver does.
    """
    L, fft_len = 100000, 1 << 18
    signal = np.linspace(-1.0, 1.0, L)
    basis = np.empty((L, 24))
    basis[:] = np.linspace(0.0, 1.0, 24)
    acc = 0.0
    for _ in range(2):
        acc += float(np.fft.irfft(np.fft.rfft(signal, fft_len) * 0.5, fft_len)[0])
    for _ in range(4):
        coef = basis.T @ signal
        acc += float((signal - basis @ coef)[0])
    return acc


KERNELS = {"small": small, "zgemm": zgemm, "lattice_1e5": lattice_1e5}


def _median_time(kernel, passes: int) -> float:
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        value = kernel()
        times.append(time.perf_counter() - t0)
        if not np.isfinite(value):
            raise FloatingPointError(f"calibration kernel {kernel.__name__} produced a non-finite value")
    return sorted(times)[passes // 2]


def interpreter_scale() -> float:
    """Scale for set-up time, which is mostly imports and Python-level work."""
    return NOMINAL_S["small"] / _median_time(small, 9)


class Scaler:
    """Times a fixed set of kernels around consecutive timed segments.

    Each kernel time is the median of `passes` passes, so that one
    hiccup in a kernel does not rescale a whole segment.  More passes
    sample the machine's speed over a longer window.
    """

    def __init__(self, *names: str, passes: int = 3):
        self.names = names
        self.passes = passes
        self._last: dict[str, float] | None = None

    def _run(self) -> dict[str, float]:
        return {name: _median_time(KERNELS[name], self.passes) for name in self.names}

    def reset(self):
        """Start a new segment without scaling the time since the last one."""
        self._last = self._run()

    def segment(self) -> dict[str, float]:
        """Close the current segment; returns its scale per kernel."""
        if self._last is None:
            raise RuntimeError("call reset() before the first segment")
        now = self._run()
        scale = {n: NOMINAL_S[n] / ((self._last[n] + now[n]) / 2) for n in self.names}
        self._last = now
        return scale
