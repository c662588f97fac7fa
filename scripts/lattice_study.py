#!/usr/bin/env python3
"""Desk-scale study of the hopping-chain ground state.

Sweeps the block length L for several block distances N, fits the
approach of fidelity and success probability to 1 - b/L^a, and finds
the minimal block length needed for a target fidelity at each distance
(with a rough slope estimate of its growth in N).  Emits CSV/JSON files
ready for any plotting tool.

Usage: python scripts/lattice_study.py [--out-dir out] [--full]
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from fermidistill.lattice import (
    ConvergenceError,
    fit_power_law,
    min_length,
    sweep,
    sweep_to_csv,
)
from fermidistill.states import ValidationError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--full", action="store_true",
                        help="denser grid up to L = 1e5 (minutes instead of seconds)")
    parser.add_argument("--target", type=float, default=None,
                        help="fidelity target for the minimal-length scan")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.full:
        grid = [2000, 5000, 10000, 20000, 30000, 50000, 70000, 100000]
        distances = [1, 10, 100, 1000]
        fit_cut = 20000.0
        target = args.target if args.target is not None else 0.9
    else:
        grid = [500, 1000, 2000, 4000, 8000, 16000]
        distances = [1, 10, 100]
        fit_cut = 2000.0
        target = args.target if args.target is not None else 0.8

    print(f"sweeping {len(grid)} lengths x {len(distances)} distances ...")
    t0 = time.time()
    rows = sweep(grid, distances, m=2)
    (out / "sweep.csv").write_text(sweep_to_csv(rows))
    print(f"  wrote {out / 'sweep.csv'} ({time.time() - t0:.1f}s)")

    fits = []
    for N in distances:
        for label, pick in (("f", lambda r: r.report.f), ("p", lambda r: r.report.p)):
            samples = [(r.L, pick(r)) for r in rows if r.N == N and r.report is not None]
            fit = fit_power_law(samples, L_min=fit_cut)
            fits.append({"N": N, "value": label, "L_min": fit_cut, **fit.to_dict()})
            print(f"  N={N:>5} {label}: 1 - {fit.b:.4f}/L^{fit.a:.4f}  (rms {fit.residual:.4f})")
    (out / "fits.json").write_text(json.dumps(fits, indent=2, sort_keys=True))

    print(f"minimal lengths for f >= {target}:")
    lengths = []
    for N in distances:
        lo = max(2, 2 * N)
        # the minimal length grows about linearly in N; bracket generously
        # but keep single evaluations affordable
        hi = min(10_000 * max(1, N), 600_000) if args.full else 200000
        try:
            L = min_length(N, target, L_lo=lo, L_hi=hi)
        except (ValidationError, ConvergenceError) as exc:
            print(f"  N={N}: {exc}")
            continue
        lengths.append((N, L))
        print(f"  N={N:>5}: L = {L}")
    if len(lengths) >= 2:
        ns = np.array([n for n, _ in lengths], dtype=float)
        ls = np.array([l for _, l in lengths], dtype=float)
        slope = np.polyfit(ns, ls, 1)[0]
        print(f"  growth looks roughly linear: slope ~ {slope:.1f} sites per unit distance")
        (out / "min_lengths.json").write_text(json.dumps(
            {"target": target, "lengths": lengths, "slope_estimate": slope},
            indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
