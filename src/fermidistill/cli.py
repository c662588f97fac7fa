"""Command-line front-end.

Single-object results are printed as JSON, grids and sweeps as CSV, so
any plotting tool can consume the output.  Exit codes: 0 success,
1 domain error (invalid state file, unreachable target, ...), 2 usage
error.  Only `protocol --sample-suboptimal` is randomized: it takes --seed,
defaulting to the FERMIDISTILL_SEED environment variable.  JSON output is
strict: a non-finite number is an error, or null where documented.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import closed_forms, lattice
from .fock import verify_all
from .protocol import BOUND_ATOL, optimal_choice, run_protocol, sample_suboptimal, scan_m
from .states import (
    ValidationError,
    load_covariance,
    maximally_entangled_projection,
    restrict,
    save_covariance,
    validate,
)


def _parse_range(text: str) -> range | list[int]:
    """start:stop:step (stop exclusive) as a lazy range, or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("range step must be positive")
        return range(start, stop, step)
    return [int(p) for p in text.split(",") if p]


def _seed(text: str) -> int:
    """A --seed value: numpy seeds are non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {value}")
    return value


# The most grid points `closed-form fg-scan` evaluates (each builds and validates a state)
# and `lattice sweep` evaluates (each solves a lattice point).
FG_SCAN_MAX_POINTS = SWEEP_MAX_POINTS = 10**6


def _grid(lo: float, hi: float, num: float, most: int) -> np.ndarray:
    if not (num >= 1 and float(num).is_integer()):
        raise ValidationError(f"grid count must be a positive integer, got {num:g}")
    if num > most:
        raise ValidationError(f"fg-scan evaluates at most {FG_SCAN_MAX_POINTS} points")
    if not np.isfinite(hi - lo):  # also when finite ends lie too far apart
        raise ValidationError(f"grid from {lo:g} to {hi:g} is not finite")
    return np.linspace(lo, hi, int(num))


def _emit(payload, out: str | None):
    if not isinstance(payload, str):  # JSON; CSV text is written as it is
        try:
            payload = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:  # a non-finite number in a field that is never null
            raise ValidationError(f"result is not finite: {exc}") from None
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    state, _ = load_covariance(args.state)
    report = validate(state)
    print(report.summary())
    print("valid" if report.passed else "invalid")
    return 0 if report.passed else 1


def _cmd_protocol(args) -> int:
    state, split = load_covariance(args.state)
    report = run_protocol(state, split, args.m)
    payload = report.to_dict()
    if args.sample_suboptimal:
        sample = sample_suboptimal(state, split, args.m, args.sample_suboptimal, args.seed)
        payload["sampled"] = {
            "trials": args.sample_suboptimal,
            "best_pf": sample.best_pf,
            "best_p": sample.best_p,
            "best_f": sample.best_f,
            "best_trial": sample.trial,
            "exceeds_optimal": bool(sample.best_pf > report.pf + BOUND_ATOL),
        }
    _emit(payload, args.out)
    return 0


def _cmd_scan_m(args) -> int:
    state, split = load_covariance(args.state)
    reports, reason = scan_m(state, split, args.m_max)
    _emit({"reports": [r.to_dict() for r in reports], "truncated": reason}, args.out)
    return 0


def _cmd_oracle(args) -> int:
    state, split = load_covariance(args.state)
    choice = optimal_choice(state, split, args.m)
    # restrict to the kept modes, in whose frames the canonical isometry is the identity
    restricted, rsplit = restrict(state, split, choice.d)
    target = maximally_entangled_projection(np.eye(2 * args.m), rsplit)
    report = verify_all(restricted, target, rsplit)
    print(report.summary())
    ok = report.max_deviation <= args.tol
    print("agreement" if ok else "DISAGREEMENT")
    return 0 if ok else 1


def _cmd_closed_form(args) -> int:
    if args.family == "fg-scan":
        x = _grid(*args.x, FG_SCAN_MAX_POINTS)
        y = _grid(*args.y, FG_SCAN_MAX_POINTS // len(x))
        lines = ["x,y,sigma,f,g,f_ge_g"]
        for row in closed_forms.f_vs_g_scan(x, y, args.sigma):
            if row["valid"]:
                lines.append(
                    f"{row['x']!r},{row['y']!r},{row['sigma']!r},"
                    f"{row['f']!r},{row['g']!r},{int(row['f_ge_g'])}"
                )
            else:
                lines.append(f"{row['x']!r},{row['y']!r},{row['sigma']!r},,,invalid")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    # the state is built, and so validated, before any formula is evaluated
    if args.family == "two-mode":
        params = closed_forms.TwoModeParams(*args.params)
        cov, split = closed_forms.two_mode_covariance(params), closed_forms.two_mode_split()
        value, optimizer = closed_forms.two_mode_max_fidelity(params)
        payload = {
            "correlation": closed_forms.two_mode_correlation(params).tolist(),
            "max_fidelity": value,
            "optimizer": optimizer.tolist(),
        }
    else:
        params = closed_forms.FourModeParams(*args.params)
        cov, split = closed_forms.four_mode_covariance(params), closed_forms.four_mode_split()
        payload = {
            "p": closed_forms.four_mode_p(params),
            "f": closed_forms.four_mode_f(params),
            "g": closed_forms.four_mode_g(params),
            "max_singlet_fraction": closed_forms.max_singlet_fraction(params),
        }
    payload["params"] = vars(params)
    if args.emit:
        save_covariance(args.emit, cov, split)
        payload["emitted"] = args.emit
    _emit(payload, args.out)
    return 0


def _cmd_lattice(args) -> int:
    if args.action == "sweep":
        # len() of a range past sys.maxsize overflows; of its slice at the cap it does not
        points = len(args.L[: SWEEP_MAX_POINTS + 1]) * len(args.N[: SWEEP_MAX_POINTS + 1])
        if points > SWEEP_MAX_POINTS:
            raise ValidationError(f"lattice sweep evaluates at most {SWEEP_MAX_POINTS} points")
        rows = lattice.sweep(args.L, args.N, m=args.m, jobs=args.jobs)
        _emit(lattice.sweep_to_csv(rows), args.out)
        return 0
    if args.action == "fit":
        try:
            with open(args.data, newline="") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"sweep CSV is not text: {exc}") from exc
        samples = []
        reader = csv.DictReader(lines)
        missing = {"L", "N", args.value} - set(reader.fieldnames or ())
        if missing:
            raise ValidationError(f"sweep CSV lacks columns {sorted(missing)}")
        for row in reader:
            try:
                L, N = int(row["L"]), int(row["N"])
                float(L)  # the fit takes log(L)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"sweep CSV line {reader.line_num}: {exc}") from exc
            if N != args.N:
                continue
            try:
                value = float(row[args.value])
            except (TypeError, ValueError):  # error rows and short rows
                continue
            samples.append((L, value))
        a, b, rms, points_used, warnings = lattice.fit_power_law(samples, args.L_min)
        payload = {
            "N": args.N,
            "a": a,
            "b": b,
            "residual": rms,
            "L_min": args.L_min,
            "points_used": points_used,
            "warnings": warnings,
        }
        _emit(payload, args.out)
        return 0
    # minlen
    L = lattice.min_length(args.N, args.x, args.L_lo, args.L_hi, m=args.m)
    _emit({"N": args.N, "x": args.x, "L": L}, args.out)
    return 0


def _cmd_bench(args) -> int:
    if args.repeat < 1:
        raise ValidationError(f"repeat must be >= 1, got {args.repeat}")
    geometry = lattice.LatticeGeometry(args.L, args.N)
    lattice._check_memory(geometry.L, args.k)
    kern = lattice.ToeplitzKernel(geometry.L, -(geometry.N + geometry.L))
    x = np.random.default_rng(lattice.KRYLOV_SEED).standard_normal(args.L)
    for _ in range(3):
        kern.matvec(x)
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        kern.matvec(x)
        times.append((time.perf_counter() - t0) * 1e3)
    t0 = time.perf_counter()
    _, iters = lattice.top_singular_triplets(kern, args.k)
    solve_ms = (time.perf_counter() - t0) * 1e3
    payload = {
        "L": args.L,
        "fft_length": kern._fft_len,
        "matvec_ms_median": float(np.median(times)),
        "matvec_ms_best": float(min(times)),
        "triplets_k": args.k,
        "triplets_iterations": iters,
        "triplets_ms": solve_ms,
    }
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermidistill",
        description="Entanglement distillation toolkit for fermionic quasifree states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a covariance file against all invariants")
    p.add_argument("state")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("protocol", help="run the canonical protocol on a state file")
    p.add_argument("state")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--sample-suboptimal", type=int, default=0, metavar="T")
    # argparse converts a string default with `type` only when --seed is
    # parsed, so a malformed FERMIDISTILL_SEED is a usage error of `protocol` alone
    p.add_argument("--seed", type=_seed, default=os.environ.get("FERMIDISTILL_SEED", "0"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_protocol)

    p = sub.add_parser("scan-m", help="compare protocol sizes m = 2..m_max")
    p.add_argument("state")
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan_m)

    p = sub.add_parser("oracle", help="brute-force verification on a small state file")
    p.add_argument("state")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("closed-form", help="exact two/four-mode formulas")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("two-mode")
    q.add_argument("--params", type=float, nargs=4, required=True, metavar=("A", "B", "C", "D"))
    q.add_argument("--emit", help="write the covariance file")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_closed_form)
    q = fam.add_parser("four-mode")
    q.add_argument(
        "--params", type=float, nargs=5, required=True, metavar=("NU1", "NU2", "NU3", "NU4", "SIGMA")
    )
    q.add_argument("--emit", help="write the covariance file")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_closed_form)
    q = fam.add_parser("fg-scan")
    q.add_argument("--x", type=float, nargs=3, default=(-0.9, 0.9, 10), metavar=("LO", "HI", "NUM"))
    q.add_argument("--y", type=float, nargs=3, default=(-0.9, 0.9, 10), metavar=("LO", "HI", "NUM"))
    q.add_argument("--sigma", type=float, default=0.2)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("lattice", help="hopping-chain ground state pipeline")
    act = p.add_subparsers(dest="action", required=True)
    q = act.add_parser("sweep")
    q.add_argument("--L", type=_parse_range, required=True)
    q.add_argument("--N", type=_parse_range, required=True)
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--jobs", type=int, default=1)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_lattice)
    q = act.add_parser("fit")
    q.add_argument("--data", required=True, help="sweep CSV file")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--L-min", type=float, default=20000.0)
    q.add_argument("--value", choices=("f", "p"), default="f")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_lattice)
    q = act.add_parser("minlen")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--L-lo", type=int, default=2)
    q.add_argument("--L-hi", type=int, default=100000)
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("bench", help="matvec and solver timings")
    p.add_argument("--L", type=int, default=1 << 17)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--repeat", type=int, default=9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, lattice.ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
