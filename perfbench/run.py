"""fermidistill benchmark: one workload, one JSON line of metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain_sweep --seed 1 --seconds 30 --trace 0

Each run starts the workload in a process of its own (workload.py) with
one BLAS thread, so its peak RSS and its load are its own.  With
--trace 0 the last line of output carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  Set-up time
is the median over SETUP_RUNS processes.  Each is timed from its start
to the end of imports and input generation, scaled by the interpreter
kernel of calibration.py, plus the warm-up time the child normalizes
with its workload's own kernels.  BENCHMARK.json lists the metrics and
README.md in this directory defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import interpreter_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain_sweep", "state_protocols")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170.0


class WorkloadFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_workload(args, setup_only: bool, deadline: float) -> tuple[float, list[str]]:
    """Run workload.py once.

    Returns the set-up time and the stdout lines after `warm`.  The
    time up to `ready` is normalized by the interpreter kernel run just
    before the child starts (see calibration.py); the warm-up arrives
    normalized.
    """
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    scale = interpreter_scale()
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkloadFailed(f"{args.workload} did not finish in time")
    lines = out.splitlines()
    if (proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready ")
            or not lines[1].startswith("warm ")):
        sys.stderr.write(out)
        raise WorkloadFailed(f"{args.workload} exited with code {proc.returncode}")
    ready_s = (float(lines[0].split()[1]) - started) * scale
    return ready_s + float(lines[1].split()[1]), lines[2:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fermidistill benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "fermidistill" / "__init__.py").is_file():
        print(f"error: no fermidistill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup.append(start_workload(args, True, deadline)[0])
        seconds, lines = start_workload(args, False, deadline)
    except WorkloadFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(seconds)

    if not lines or not lines[-1].startswith("result "):
        print("error: workload printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1][len("result "):])
    for line in lines[:-1]:
        print(line)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print("set-up s: " + " ".join(f"{s:.4f}" for s in setup))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
