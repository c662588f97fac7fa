"""Spans around fermidistill's public functions, recorded from outside.

A module binds the names it imports when it is imported: `states` and
`fock` do `from .linalg import pfaffian`, and `lattice` imports
`protocol_quantities` and `validate`.  Patching `fermidistill.linalg`
alone would therefore miss every call made from those modules, so each
function is wrapped under every name it is looked up by (`TARGETS`).

A span is the list [name, start, end, parent, op, value]: start and end
come from `time.perf_counter`, parent is the index of the enclosing span
(-1 for a root), op is the identifier of the benchmark operation that
caused it, and value is a per-call figure taken from the arguments or
the result (vector length for products, Krylov steps for solves, trials
for sampling).  Spans stay in memory until `dump` writes them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, OP, VALUE = range(6)
FIELDS = ["name", "start", "end", "parent", "op", "value"]


def _operator_length(args, out):
    return args[0].L


def _krylov_steps(args, out):
    return out[1]


def _trials(args, out):
    return args[3]


def targets(linalg, states, protocol, lattice, fock):
    """(owner, attribute, span name, value extractor) for every lookup site."""
    return [
        (linalg, "pfaffian", "linalg.pfaffian", None),
        (states, "pfaffian", "linalg.pfaffian", None),
        (fock, "pfaffian", "linalg.pfaffian", None),
        (states, "validate", "states.validate", None),
        (lattice, "validate", "states.validate", None),
        (states, "protocol_quantities", "states.protocol_quantities", None),
        (protocol, "protocol_quantities", "states.protocol_quantities", None),
        (lattice, "protocol_quantities", "states.protocol_quantities", None),
        (protocol, "optimal_choice", "protocol.optimal_choice", None),
        (protocol, "run_protocol", "protocol.run_protocol", None),
        (protocol, "scan_m", "protocol.scan_m", None),
        (protocol, "sample_suboptimal", "protocol.sample_suboptimal", _trials),
        (fock, "density_from_covariance", "fock.density_from_covariance", None),
        (fock, "verify_all", "fock.verify_all", None),
        (lattice.ToeplitzKernel, "matvec", "lattice.product", _operator_length),
        (lattice.ToeplitzKernel, "rmatvec", "lattice.product", _operator_length),
        (lattice, "top_singular_triplets", "lattice.top_singular_triplets", _krylov_steps),
        (lattice, "restricted_covariance", "lattice.restricted_covariance", None),
        (lattice, "lattice_point", "lattice.lattice_point", None),
        (lattice, "sweep", "lattice.sweep", None),
    ]


class Tracer:
    """Records nested spans while installed; single-threaded use only."""

    def __init__(self, target_list):
        self.spans: list[list] = []
        self.op: str | None = None
        self._targets = target_list
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name, fn, value_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if value_of is not None:
                rec[VALUE] = value_of(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, value_of in self._targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, value_of))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def operation(self, op: str, name: str = "bench.operation"):
        """Root span for one benchmark operation; spans inside carry `op`."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self.op = op
        rec = [name, 0.0, 0.0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


class SpanTree:
    """Durations, self times and ancestry over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.duration = [s[END] - s[START] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, self.duration):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += d
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def ancestor(self, i: int, name: str) -> int:
        """Index of the nearest enclosing span called `name`, or -1."""
        p = self.spans[i][PARENT]
        while p >= 0 and self.spans[p][NAME] != name:
            p = self.spans[p][PARENT]
        return p

    def check(self) -> list[str]:
        """Problems with nesting or with self times that fail to add up.

        Children must lie inside their parent, and for each operation the
        self times of its spans must sum to the root span's duration.
        """
        problems = []
        roots: dict[str, int] = {}
        self_sum: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s[PARENT] < 0:
                roots[s[OP]] = i
            else:
                p = self.spans[s[PARENT]]
                if s[START] < p[START] or s[END] > p[END] or s[OP] != p[OP]:
                    problems.append(f"span {i} ({s[NAME]}) escapes its parent {s[PARENT]}")
            self_sum[s[OP]] = self_sum.get(s[OP], 0.0) + self.self_time[i]
        for op, root in roots.items():
            gap = abs(self_sum[op] - self.duration[root])
            if gap > 1e-9 * max(1.0, self.duration[root]):
                problems.append(f"operation {op}: self times miss its duration by {gap:.3e} s")
        return problems
