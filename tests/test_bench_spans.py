"""The benchmark tracer's lookup sites exist on the package.

`perfbench/spans.py` wraps each traced function under every name it is
looked up by.  A refactor that drops or renames one of those names
breaks `perfbench/run.py --trace 1`; this test fails first.  It reads
the file and compiles it in memory, so nothing is written under
`perfbench/`.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from fermidistill import fock, lattice, linalg, protocol, states

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_lookup_site_is_callable():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    sites = namespace["targets"](linalg, states, protocol, lattice, fock)
    assert sites
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
        for owner, attr, span, _ in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"traced names absent from the package: {missing}"


def test_each_kernel_product_is_one_span():
    """`lattice.products` counts spans: a product built on the other would count twice."""
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    tracer = namespace["Tracer"](namespace["targets"](linalg, states, protocol, lattice, fock))
    x = np.random.default_rng(0).standard_normal(101)
    kernels = [lattice.ToeplitzKernel(101, r) for r in (0, -102, -111)]
    kernels.append(kernels[1].block(1))  # the 51 x 50 parity block, a view
    tracer.install()
    try:
        with tracer.operation("products"):
            for kern in kernels:
                kern.matvec(x[: kern.shape[1]])
                kern.rmatvec(x[: kern.shape[0]])
    finally:
        tracer.uninstall()
    products = [s for s in tracer.spans if s[0] == "lattice.product"]
    assert len(products) == 2 * len(kernels)
    assert all(s[3] == 0 for s in products)  # each a child of the operation, none of a product


BENCH_SCRIPTS = ("workload.py", "record_reference.py")


def _package_names(tree: ast.Module, inherited: dict) -> dict:
    """Top-level names a bench script imports from fermidistill, directly or via `workload`."""
    names = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if node.module == "workload" and alias.name in inherited:
                names[alias.asname or alias.name] = inherited[alias.name]
            elif node.module and node.module.split(".")[0] == "fermidistill":
                try:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module), alias.name)
                names[alias.asname or alias.name] = obj
    return names


def _constants(tree: ast.Module) -> dict:
    """Top-level `NAME = <literal>` assignments, to expand starred arguments."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return out


def _resolve(expr: ast.expr, names: dict):
    """The package object an expression like `lattice.sweep` names, or None."""
    attrs = []
    while isinstance(expr, ast.Attribute):
        attrs.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name) or expr.id not in names:
        return None
    obj = names[expr.id]
    for attr in reversed(attrs):
        obj = getattr(obj, attr)
    return obj


def _bind(fn, args: list[ast.expr], keywords: list[ast.keyword], constants: dict):
    positional = []
    for arg in args:
        if isinstance(arg, ast.Starred):
            # a starred name must be a literal constant, or the check would be blind
            positional.extend(constants[arg.value.id])
        else:
            positional.append(None)
    assert all(kw.arg is not None for kw in keywords), "** arguments cannot be checked"
    inspect.signature(fn).bind(*positional, **{kw.arg: None for kw in keywords})


def test_bench_scripts_call_the_package_as_it_is():
    """Every fermidistill call in the bench scripts binds to the current signature.

    Covers direct calls and the callee of `tally.call(label, fn, *args,
    **kwargs)`.  A refactor that drops or renames a parameter the bench
    passes breaks the benchmark run; this test fails first.  The scripts
    are parsed, not imported or run.
    """
    checked, inherited = [], {}
    for script in BENCH_SCRIPTS:
        path = SPANS.parent / script
        tree = ast.parse(path.read_text(), str(path))
        names, constants = _package_names(tree, inherited), _constants(tree)
        inherited = names
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn, args = _resolve(node.func, names), node.args
            if fn is None and isinstance(node.func, ast.Attribute) and node.func.attr == "call":
                if len(args) >= 2:
                    fn, args = _resolve(args[1], names), args[2:]
            if fn is None:
                continue
            site = f"{script}:{node.lineno} {ast.unparse(node)[:60]}"
            try:
                _bind(fn, args, node.keywords, constants)
            except TypeError as exc:
                raise AssertionError(f"{site}: {exc}") from exc
            checked.append(site)
    # the sweep and point calls of the chain workloads must have been seen
    assert sum("lattice.sweep(" in s for s in checked) >= 1
    assert sum("record_reference" in s and "lattice_point" in s for s in checked) >= 1
    assert len(checked) >= 15, checked


def test_traced_calls_record_every_span_the_metrics_read():
    """A traced benchmark run records each span `workload.layer_metrics` reads.

    `layer_metrics` takes a median over the spans of `states.validate`,
    `states.protocol_quantities`, `protocol.sample_suboptimal`,
    `protocol.optimal_choice`, `fock.density_from_covariance` and
    `fock.verify_all` (a median of nothing raises), and the value
    extractors read a product's `L`, a solve's step count and the
    positional trial count.  Small versions of the benchmark's calls run
    under the installed tracer; each of those spans must occur and every
    recorded value must be a positive int.
    """
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    tracer = namespace["Tracer"](namespace["targets"](linalg, states, protocol, lattice, fock))
    s, split = states.random_covariance(8, 0), states.BipartiteSplit.halves(16)
    s3, split3 = states.random_covariance(6, 1), states.BipartiteSplit.halves(12)
    tracer.install()
    try:
        with tracer.operation("traced"):
            lattice.lattice_point(lattice.LatticeGeometry(2000, 1), m=2, seed=0)
            protocol.run_protocol(s, split, 2)
            protocol.scan_m(s, split, 2)
            protocol.sample_suboptimal(s, split, 2, 20, 0)
            choice = protocol.optimal_choice(s3, split3, 3)
            target = states.maximally_entangled_projection(choice.v, split3)
            fock.verify_all(s3, target, split3)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    expected = {
        "states.validate", "states.protocol_quantities", "protocol.sample_suboptimal",
        "protocol.optimal_choice", "fock.density_from_covariance", "fock.verify_all",
        "protocol.run_protocol", "protocol.scan_m", "linalg.pfaffian", "lattice.product",
        "lattice.top_singular_triplets", "lattice.restricted_covariance", "lattice.lattice_point",
    }
    assert expected <= names, sorted(expected - names)
    values = [span[5] for span in tracer.spans if span[5] is not None]
    assert values and all(type(v) is int and v > 0 for v in values), values
    assert not namespace["SpanTree"](tracer.spans).check()
