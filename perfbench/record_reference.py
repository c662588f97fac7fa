"""Record the p and f values that the chain workloads are checked against.

Run from the checkout root:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

It evaluates every grid point of chain_sweep with Krylov seed 0 and
writes perfbench/reference.json.
The committed file was recorded from the code the benchmark was defined
on; re-record it only when a change is meant to alter p or f.
"""

from __future__ import annotations

import json
import sys

from workload import HERE, L_GRID, N_GRID, lattice


def main() -> int:
    points = []
    for L, N in [(L, N) for L in L_GRID for N in N_GRID]:
        report = lattice.lattice_point(lattice.LatticeGeometry(L, N), m=2, seed=0)
        points.append([L, N, report.p, report.f])
        print(f"L={L} N={N} p={report.p!r} f={report.f!r}", flush=True)
    rows = ",\n".join("  " + json.dumps(point) for point in points)
    (HERE / "reference.json").write_text('{"seed": 0, "m": 2, "points": [\n' + rows + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
