"""The benchmark tracer's lookup sites exist on the package.

`perfbench/spans.py` wraps each traced function under every name it is
looked up by.  A refactor that drops or renames one of those names
breaks `perfbench/run.py --trace 1`; this test fails first.  It reads
the file and compiles it in memory, so nothing is written under
`perfbench/`.
"""

from pathlib import Path

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
