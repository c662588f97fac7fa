"""One benchmark workload, run in a process of its own.

`run.py` starts this script from the checkout root, so that the peak
RSS it reports belongs to one workload.  It imports fermidistill from
`src/`, builds its inputs from the seed, warms up, and then prints

    ready <CLOCK_MONOTONIC seconds>     when imports and inputs are done,
    warm <seconds>                      the normalized warm-up time,
    <detail lines>                      human-readable figures,
    result <json>                       metrics and failure counts.

With --setup-only it exits after the `warm` line; `run.py` uses such
runs to take the median of several set-up times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fermidistill import closed_forms, fock, lattice, linalg, protocol, states  # noqa: E402
from calibration import Scaler  # noqa: E402
from spans import NAME, OP, VALUE, SpanTree, Tracer, targets  # noqa: E402

clock = time.perf_counter

TYPED_ERRORS = (states.ValidationError, lattice.ConvergenceError, protocol.InsufficientRankError)

L_GRID = (2000, 5001, 10000, 20001, 50000, 100000)
N_GRID = (1, 10, 100)
WARM_POINT = (20000, 10)
REFERENCE_POINT = (2000, 1)
PF_TOL = 1e-8            # criterion 5: iterative route against recorded values
BOUND_TOL = 1e-9         # criterion 3: X = 0 states attain the product bound
ORACLE_TOL = 1e-9        # criterion 1: Pfaffian formulas against the dense oracle
CLOSED_FORM_TOL = 1e-10  # criterion 2: four-mode closed forms
CLOSED_FORM_PARAMS = (0.3, 0.3, -0.2, -0.2, 0.6)

MODES_PER_SIDE = 4       # criterion-3 state size: 8 reference dimensions per side
M_MAX = 4
TRIALS = 1000            # sample_suboptimal trials per state, as in criterion 3
WARM_TRIALS = 50         # the warm-up only has to run every code path once
ORACLE_MODES = 6         # 3 + 3 modes, 64-dimensional Fock space
ORACLE_M = 3
INPUT_POOL = 24          # input sets; more than the rounds of a 30 s run (README.md)
RSS_ROUNDS = 3           # peak RSS is read after this many untraced rounds
KERNEL_PASSES = 9        # small/zgemm passes per boundary: about 40 ms each, beside 1 s segments

UNITS = {
    "round_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "lattice.products": "count",
    "lattice.product_ms": "ms",
    "lattice.product_bytes_computed": "B",
    "lattice.krylov_steps": "count",
    "lattice.solve_self_ms": "ms",
    "lattice.assembly_ms": "ms",
    "lattice.evaluate_ms": "ms",
    "states.validate_ms": "ms",
    "lattice.matvec_ms.L131072": "ms",
    "lattice.matvec_ms.L1000000": "ms",
    "linalg.pfaffian_calls": "count",
    "linalg.pfaffian_ms": "ms",
    "linalg.pfaffian_us.n8": "us",
    "linalg.pfaffian_us.n16": "us",
    "linalg.pfaffian_us.n64": "us",
    "linalg.pfaffian_us.n256": "us",
    "states.protocol_quantities_self_ms": "ms",
    "protocol.trial_ms": "ms",
    "protocol.optimal_choice_ms": "ms",
    "fock.density_ms": "ms",
    "fock.verify_all_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tally:
    """Operations attempted and failed, with the message of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def call(self, label, fn, *args, **kwargs):
        """Run one operation; a typed library error counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except TYPED_ERRORS as exc:
            self.miss(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def miss(self, message: str):
        self.failed += 1
        self.messages.append(message)

    def gate(self, ok: bool, message: str):
        if not ok:
            self.miss(message)


def load_reference() -> dict[tuple[int, int], tuple[float, float]]:
    data = json.loads((HERE / "reference.json").read_text())
    return {(L, N): (p, f) for L, N, p, f in data["points"]}


def check_point(tally: Tally, reference, L: int, N: int, report):
    p_ref, f_ref = reference[(L, N)]
    ok = report.f is not None and abs(report.p - p_ref) <= PF_TOL and abs(report.f - f_ref) <= PF_TOL
    tally.gate(ok, f"L={L} N={N}: p={report.p!r} f={report.f!r}, recorded {p_ref!r} {f_ref!r}")


def kernel_bytes(L: int) -> tuple[int, int]:
    """(FFT length, bytes of one float64 vector of that length) for an L x L kernel."""
    n = 1
    while n < max(2 * L - 1, 2):
        n <<= 1
    return n, 8 * n


def product_bytes_computed(L: int) -> int:
    """Array bytes one FFT product reads and writes, from array sizes only.

    Reads x (8L), writes its padded spectrum (16(n/2+1)), reads that and
    the kernel spectrum and writes their product (3 x 16(n/2+1)), reads
    the product back (16(n/2+1)) and writes the length-n result (8n).
    Cache hits are ignored, so the figure is labelled computed.
    """
    n, _ = kernel_bytes(L)
    return 8 * L + 5 * 16 * (n // 2 + 1) + 8 * n


def krylov_bytes(L: int) -> int:
    """Both stored Golub-Kahan bases at their initial capacity of 32 columns."""
    return 2 * 8 * L * 32


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class ChainSweep:
    """`lattice.sweep` over the desk-scale grid; a round is one whole sweep.

    The sweep runs one `sweep` call per L, so that the calibration
    kernel brackets segments of at most a few seconds.  Each call is
    timed by the benchmark's own clock, which includes sweep's per-point
    overhead; the library's own `SweepRow.wall_ms` is not read.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = load_reference()
        self.scaler = Scaler("lattice_1e5")

    def warm_up(self, tally: Tally) -> float:
        """One lattice point; returns its normalized time."""
        self.scaler.reset()
        t0 = clock()
        tally.call("warm-up point", lattice.lattice_point,
                   lattice.LatticeGeometry(*WARM_POINT), m=2, seed=self.seed)
        wall_s = clock() - t0
        return wall_s * self.scaler.segment()["lattice_1e5"]

    def round(self, k: int, tally: Tally) -> dict:
        wall_s, sweeps = 0.0, {}
        for L in L_GRID:
            t0 = clock()
            rows = lattice.sweep([L], N_GRID, m=2, seed=self.seed, jobs=1)
            dt = clock() - t0
            wall_s += dt
            sweeps[L] = dt * self.scaler.segment()["lattice_1e5"]
            for row in rows:
                tally.attempted += 1
                if row.report is None:
                    tally.miss(f"sweep row L={row.L} N={row.N}: {row.error}")
                else:
                    check_point(tally, self.reference, row.L, row.N, row.report)
        return {"wall_s": wall_s, "sweeps": sweeps}

    @staticmethod
    def summarize(rounds) -> dict[str, float]:
        """Sweep time as the sum over L of each per-L sweep call's median.

        A stall on the shared machine then spoils one sample of one L
        rather than a whole round.
        """
        sweep_s = sum(statistics.median(r["sweeps"][L] for r in rounds) for L in L_GRID)
        points_per_s = len(L_GRID) * len(N_GRID) / sweep_s
        return {"round_s": sweep_s, "throughput_per_s": points_per_s, "points_per_s": points_per_s}

    def working_set(self) -> str:
        L = max(L_GRID)
        n, vec = kernel_bytes(L)
        return (f"largest L={L}: FFT length {n}, {vec / 2**20:.1f} MiB per vector; "
                f"Krylov bases {krylov_bytes(L) / 2**20:.1f} MiB")


def oracle_check(s, split):
    """verify_all against the canonical m = 3 target of a 3 + 3-mode state."""
    choice = protocol.optimal_choice(s, split, ORACLE_M)
    target = states.maximally_entangled_projection(choice.v, split)
    return fock.verify_all(s, target, split)


class StateProtocols:
    """Random 4 + 4-mode states through the protocol layer, plus the dense oracle.

    A round takes one generic and one X = 0 state through run_protocol
    (m = 2), scan_m (m <= 4) and a sample_suboptimal batch of TRIALS,
    then checks one 3 + 3-mode state against the dense oracle.
    """

    def __init__(self, seed: int):
        streams = np.random.SeedSequence(seed).spawn(INPUT_POOL + 1)
        self.inputs = [self._inputs(s) for s in streams[:INPUT_POOL]]
        self.warm_inputs = self._inputs(streams[INPUT_POOL])
        self.scaler = Scaler("small", "zgemm", passes=KERNEL_PASSES)

    @staticmethod
    def _inputs(stream):
        rng = np.random.default_rng(stream)
        dim = 4 * MODES_PER_SIDE
        generic = (states.random_covariance(2 * MODES_PER_SIDE, rng),
                   states.BipartiteSplit.halves(dim))
        x_zero = states.random_x_zero_covariance(MODES_PER_SIDE, rng)
        oracle = (states.random_covariance(ORACLE_MODES, rng),
                  states.BipartiteSplit.halves(2 * ORACLE_MODES))
        return generic, x_zero, oracle, int(rng.integers(2**31))

    def warm_up(self, tally: Tally) -> float:
        """A short round on an extra input set; returns its normalized time."""
        self.scaler.reset()
        rec = self._round(self.warm_inputs, WARM_TRIALS, tally)
        return sum(st["canonical_s"] + st["trials_s"] for st in rec["states"]) + rec["oracle_s"]

    def round(self, k: int, tally: Tally) -> dict:
        return self._round(self.inputs[k % INPUT_POOL], TRIALS, tally)

    def _round(self, inputs, trials: int, tally: Tally) -> dict:
        """One round as three normalized segments: each state, then the oracle check.

        Protocol work is scaled by the `small` kernel and the oracle by
        `zgemm`, each over its own segment.
        """
        generic, x_zero, oracle, sample_seed = inputs
        rec = {"wall_s": 0.0, "trials": trials, "states": []}
        for (s, split), vanishing_x in ((generic, False), (x_zero, True)):
            t0 = clock()
            report = tally.call("run_protocol", protocol.run_protocol, s, split, 2)
            scan = tally.call("scan_m", protocol.scan_m, s, split, M_MAX)
            t1 = clock()
            sample = tally.call("sample_suboptimal", protocol.sample_suboptimal,
                                s, split, 2, trials, sample_seed)
            t2 = clock()
            small = self.scaler.segment()["small"]
            rec["wall_s"] += t2 - t0
            rec["states"].append({"canonical_s": (t1 - t0) * small, "trials_s": (t2 - t1) * small})
            if scan is not None:
                reports, reason = scan
                tally.gate(reason is None and len(reports) == M_MAX - 1,
                           f"scan_m stopped early: {reason}")
            if vanishing_x and report is not None:
                bound = protocol.optimal_pf_bound(report.lambdas)
                tally.gate(abs(report.pf - bound) <= BOUND_TOL,
                           f"X = 0 state: pf {report.pf!r} misses the bound {bound!r}")
                if sample is not None:
                    tally.gate(sample.best_pf <= bound + BOUND_TOL,
                               f"X = 0 state: sampled pf {sample.best_pf!r} exceeds {bound!r}")
        t0 = clock()
        oracle_report = tally.call("oracle check", oracle_check, *oracle)
        dt = clock() - t0
        rec["wall_s"] += dt
        rec["oracle_s"] = dt * self.scaler.segment()["zgemm"]
        if oracle_report is not None:
            tally.gate(oracle_report.max_deviation <= ORACLE_TOL,
                       f"oracle deviation {oracle_report.max_deviation:.3e}")
        return rec

    @staticmethod
    def summarize(rounds) -> dict[str, float]:
        """Round time as the sum of each segment's median across rounds.

        As in chain_sweep, a stall then spoils one sample of one segment
        rather than a whole round.  The rates are medians over segments.
        """
        med = statistics.median
        per_state = [st for r in rounds for st in r["states"]]
        round_s = med(r["oracle_s"] for r in rounds) + sum(
            med(r["states"][j]["canonical_s"] + r["states"][j]["trials_s"] for r in rounds)
            for j in range(2))
        trials_per_s = med(r["trials"] / st["trials_s"] for r in rounds for st in r["states"])
        return {
            "round_s": round_s,
            "throughput_per_s": trials_per_s,
            "trials_per_s": trials_per_s,
            "canonical_states_per_s": 1 / med(st["canonical_s"] for st in per_state),
            "oracle_checks_per_s": 1 / med(r["oracle_s"] for r in rounds),
        }

    def working_set(self) -> str:
        dim = 4 * MODES_PER_SIDE
        hdim = 2**ORACLE_MODES
        return (f"{dim}x{dim} covariances, {2 * MODES_PER_SIDE}x{2 * MODES_PER_SIDE} Pfaffians; "
                f"oracle: {2 * ORACLE_MODES} Majorana operators of {hdim}x{hdim} complex, "
                f"{2 * ORACLE_MODES * hdim * hdim * 16 / 2**20:.2f} MiB")


WORKLOADS = {
    "chain_sweep": ChainSweep,
    "state_protocols": StateProtocols,
}


def closed_form_gate(tally: Tally):
    """Four-mode closed forms against the Pfaffian route."""
    params = closed_forms.FourModeParams(*CLOSED_FORM_PARAMS)
    report = tally.call("closed-form state", protocol.run_protocol,
                        closed_forms.four_mode_covariance(params), closed_forms.four_mode_split(), 2)
    if report is not None:
        p, f = closed_forms.four_mode_p(params), closed_forms.four_mode_f(params)
        tally.gate(abs(report.p - p) <= CLOSED_FORM_TOL and abs(report.f - f) <= CLOSED_FORM_TOL,
                   f"closed form p={p!r} f={f!r}, Pfaffian route p={report.p!r} f={report.f!r}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(work, seconds: float, tally: Tally, tracer: Tracer | None):
    """Whole rounds until `seconds` have passed and RSS_ROUNDS untraced rounds ran.

    With a tracer, rounds alternate untraced and traced, starting
    untraced, and at least one traced round runs.  Returns the untraced
    and traced rounds and the peak RSS in MB after RSS_ROUNDS untraced
    rounds, so that it does not depend on how many rounds fit.
    """
    work.scaler.reset()
    untraced, traced = [], []
    peak_rss_mb = None
    start = clock()
    k = 0
    while True:
        if tracer is not None and k % 2 == 1:
            tracer.install()
            try:
                with tracer.operation(f"round{k}"):
                    traced.append(work.round(k, tally))
            finally:
                tracer.uninstall()
        else:
            untraced.append(work.round(k, tally))
            if len(untraced) == RSS_ROUNDS:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        k += 1
        if clock() - start >= seconds and peak_rss_mb is not None and (tracer is None or traced):
            return untraced, traced, peak_rss_mb


def reference_operations(name: str, seed: int, tally: Tally, tracer: Tracer):
    """Trace one operation of each kind the workload itself never runs.

    chain_sweep runs no protocol or oracle call and state_protocols
    runs no lattice point, so their layers are timed on these instead.
    """
    tracer.install()
    try:
        if name == "state_protocols":
            with tracer.operation("ref-lattice"):
                report = tally.call("reference point", lattice.lattice_point,
                                    lattice.LatticeGeometry(*REFERENCE_POINT), m=2, seed=seed)
            if report is not None:
                check_point(tally, load_reference(), *REFERENCE_POINT, report)
        else:
            work = StateProtocols(seed)
            work.scaler.reset()
            with tracer.operation("ref-state"):
                work._round(work.inputs[0], TRIALS, tally)
    finally:
        tracer.uninstall()


def median_call_us(fn, arg, repeats: int, warm: int = 2) -> float:
    for _ in range(warm):
        fn(arg)
    times = []
    for _ in range(repeats):
        t0 = clock()
        fn(arg)
        times.append(clock() - t0)
    return statistics.median(times) * 1e6


def kernel_micro(seed: int) -> dict[str, float]:
    """Median single products and Pfaffians at fixed sizes, untraced."""
    rng = np.random.default_rng(seed)
    out = {}
    for L, repeats in ((1 << 17, 11), (10**6, 7)):
        kern = lattice.ToeplitzKernel(L, -(L + 1))
        out[f"lattice.matvec_ms.L{L}"] = median_call_us(kern.matvec, rng.standard_normal(L), repeats) / 1e3
    for n, repeats in ((8, 301), (16, 201), (64, 31), (256, 7)):
        a = rng.standard_normal((n, n))
        out[f"linalg.pfaffian_us.n{n}"] = median_call_us(linalg.pfaffian, a - a.T, repeats)
    return out


def layer_metrics(spans, rounds_traced: int) -> dict[str, float]:
    """Per-layer figures from the spans; see README.md for each definition.

    Each figure uses the workload's own spans, or the reference
    operations' spans when the workload never calls that function.
    """
    tree = SpanTree(spans)
    dur, self_time = tree.duration, tree.self_time

    def pick(name):
        own = [i for i, s in enumerate(spans) if s[NAME] == name and not s[OP].startswith("ref")]
        return own or [i for i, s in enumerate(spans) if s[NAME] == name]

    points = {P: {"products": 0, "product_s": 0.0, "bytes": 0, "steps": 0, "solve_s": 0.0,
                  "solve_products_s": 0.0, "rc_s": 0.0}
              for P in pick("lattice.lattice_point")}
    for i, s in enumerate(spans):
        if s[NAME] not in ("lattice.product", "lattice.top_singular_triplets",
                           "lattice.restricted_covariance"):
            continue
        acc = points.get(tree.ancestor(i, "lattice.lattice_point"))
        if acc is None:
            continue
        if s[NAME] == "lattice.product":
            if tree.ancestor(i, "lattice.product") >= 0:
                continue    # a product built on another product is counted once
            acc["products"] += 1
            acc["product_s"] += dur[i]
            acc["bytes"] += product_bytes_computed(s[VALUE])
            if tree.ancestor(i, "lattice.top_singular_triplets") >= 0:
                acc["solve_products_s"] += dur[i]
        elif s[NAME] == "lattice.top_singular_triplets":
            acc["steps"] += s[VALUE]
            acc["solve_s"] += dur[i]
        else:
            acc["rc_s"] += dur[i]

    def per_point(fn):
        return statistics.fmean(fn(P, a) for P, a in points.items())

    # Pfaffians per operation: per lattice point on chain_sweep,
    # per round on state_protocols
    pf = pick("linalg.pfaffian")
    own_points = [P for P in points if not spans[P][OP].startswith("ref")]
    units = len(own_points) if own_points else rounds_traced

    def median_ms(name, per=lambda i: dur[i]):
        return statistics.median(per(i) for i in pick(name)) * 1e3

    return {
        "lattice.products": per_point(lambda P, a: a["products"]),
        "lattice.product_ms": per_point(lambda P, a: a["product_s"]) * 1e3,
        "lattice.product_bytes_computed": per_point(lambda P, a: a["bytes"]),
        "lattice.krylov_steps": per_point(lambda P, a: a["steps"]),
        "lattice.solve_self_ms": per_point(lambda P, a: a["solve_s"] - a["solve_products_s"]) * 1e3,
        "lattice.assembly_ms": per_point(lambda P, a: a["rc_s"] - a["solve_s"]) * 1e3,
        "lattice.evaluate_ms": per_point(lambda P, a: dur[P] - a["rc_s"]) * 1e3,
        "states.validate_ms": median_ms("states.validate"),
        "linalg.pfaffian_calls": len(pf) / units,
        "linalg.pfaffian_ms": sum(dur[i] for i in pf) / units * 1e3,
        "states.protocol_quantities_self_ms": median_ms("states.protocol_quantities",
                                                        lambda i: self_time[i]),
        "protocol.trial_ms": median_ms("protocol.sample_suboptimal",
                                       lambda i: dur[i] / spans[i][VALUE]),
        "protocol.optimal_choice_ms": median_ms("protocol.optimal_choice"),
        "fock.density_ms": median_ms("fock.density_from_covariance"),
        "fock.verify_all_ms": median_ms("fock.verify_all"),
    }


def machine() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return (f"machine: nproc={os.cpu_count()} arch={platform.machine()} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} blas_threads={threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tally = Tally()
    work = WORKLOADS[args.workload](args.seed)
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    print(f"warm {work.warm_up(tally)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(targets(linalg, states, protocol, lattice, fock)) if args.trace else None
    t0 = clock()
    untraced, traced, peak_rss_mb = measure(work, args.seconds, tally, tracer)
    measured_s = clock() - t0

    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"rounds in {measured_s:.2f} s")
    print(machine())
    print(f"working set: {work.working_set()}")
    print("untraced round wall s: " + " ".join(f"{r['wall_s']:.4f}" for r in untraced))
    summary = work.summarize(untraced)
    print("untraced summary: " + ", ".join(f"{k} {v:.6g}" for k, v in summary.items()))

    if tracer is None:
        metrics = {
            "round_s": summary["round_s"],
            "throughput_per_s": summary["throughput_per_s"],
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        reference_operations(args.workload, args.seed, tally, tracer)
        tree_problems = SpanTree(tracer.spans).check()
        for problem in tree_problems:
            tally.miss(f"trace: {problem}")
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics.update(kernel_micro(args.seed))
        metrics["trace.overhead_ms"] = (work.summarize(traced)["round_s"] - summary["round_s"]) * 1e3
        out = ROOT / ".bench_out" / f"spans_{args.workload}_seed{args.seed}.json"
        tracer.dump(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}; "
              f"self times add up for every operation: {not tree_problems}")

    closed_form_gate(tally)
    for message in tally.messages:
        print(f"failure: {message}")
    print("result " + json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
