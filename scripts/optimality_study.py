#!/usr/bin/env python3
"""Empirical optimality of the canonical protocol choice.

On states with a vanishing Alice block the canonical (D, V) provably
maximizes p*f and random protocols can only confirm the bound.  For
general states no optimality statement applies; this script samples random protocols
against the canonical choice to gather evidence either way.

Usage: python scripts/optimality_study.py [--states 25] [--trials 400]
"""

import argparse

import numpy as np

from fermidistill.cli import _seed
from fermidistill.protocol import BOUND_ATOL, optimal_pf_bound, run_protocol, sample_suboptimal
from fermidistill.states import (
    BipartiteSplit,
    ValidationError,
    random_covariance,
    random_x_zero_covariance,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--states", type=int, default=25)
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--modes-per-side", type=int, default=4)
    parser.add_argument("--seed", type=_seed, default=0)
    args = parser.parse_args()

    k = args.modes_per_side

    print(f"-- vanishing Alice block ({args.states} states x {args.trials} trials) --")
    worst_gap = 0.0
    for i in range(args.states):
        s, split = random_x_zero_covariance(k, np.random.default_rng(args.seed + i))
        rep = run_protocol(s, split, 2)
        bound = optimal_pf_bound(rep.lambdas)
        sample = sample_suboptimal(s, split, 2, trials=args.trials, seed=args.seed + 10_000 + i)
        worst_gap = max(worst_gap, sample.best_pf - bound)
    print(f"  max sampled excess over the bound: {worst_gap:+.3e} (should be <= 0)")

    print(f"-- general states ({args.states} states x {args.trials} trials) --")
    beaten = 0
    worst_excess = 0.0
    for i in range(args.states):
        rng = np.random.default_rng(args.seed + 50_000 + i)
        s = random_covariance(2 * k, rng)
        split = BipartiteSplit.halves(4 * k)
        try:
            rep = run_protocol(s, split, 2)
        except ValidationError:
            continue
        sample = sample_suboptimal(s, split, 2, trials=args.trials, seed=args.seed + 90_000 + i)
        if sample.best_pf > rep.pf + BOUND_ATOL:
            beaten += 1
            worst_excess = max(worst_excess, sample.best_pf - rep.pf)
    print(f"  canonical choice beaten on {beaten}/{args.states} states"
          f" (worst excess {worst_excess:.3e})")
    if beaten == 0:
        print("  evidence consistent with the canonical choice being optimal in general")
    else:
        print("  counterexamples found: optimality does not extend to general states")


if __name__ == "__main__":
    main()
