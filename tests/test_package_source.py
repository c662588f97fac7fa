"""Static checks on the package source: dependencies, error handling, exports.

numpy is the only runtime dependency, no handler swallows every error,
every name in an `__all__` list resolves to a definition, following
relative imports to the module that defines it, every module-level
import is used or exported, no module imports the process pool on
import, every public name has a caller outside the tests, no call
needs a numpy newer than the declared floor, every FFT
in lattice.py runs inside `ToeplitzKernel` or `_odd_spectrum`,
complex numbers stay where states.py converts an S to or from G and
where `linalg.as_real` reads an input as real (the dense Fock oracle
apart), the entry limit 1e100 is written once, as
`linalg.ENTRY_LIMIT`, integers are tested only in `linalg.as_index`,
and the antisymmetry tolerance is read only in
`linalg.pfaffian`, whose elimination kernel raises nothing, and the
dense Fock oracle imports no private name of the package and never
calls `validate` or `CovarianceMatrix.from_s`, and the text of a result's
notes is written only in `protocol.NOTE_TEXT`.  The sources are parsed
with `ast`; nothing is imported from them or written.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fermidistill"
SOURCES = sorted(PACKAGE.glob("*.py"))
TREES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
ALLOWED_THIRD_PARTY = {"numpy"}


def _all_entries(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return None


EXPORTING = [stem for stem, tree in TREES.items() if _all_entries(tree) is not None]


def _resolves(module: str, name: str) -> bool:
    """Whether `module` binds `name` at top level, through relative imports to their source."""
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(n, ast.Name) and n.id == name for t in targets for n in ast.walk(t)):
                return True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if (alias.asname or alias.name).split(".")[0] != name:
                    continue
                if not isinstance(node, ast.ImportFrom) or node.level == 0:
                    return True
                if node.module is None:  # from . import submodule
                    return alias.name in TREES
                return node.module in TREES and _resolves(node.module, alias.name)
    return False


def test_package_exports_are_checked():
    assert "__init__" in EXPORTING


@pytest.mark.parametrize("module", sorted(TREES))
def test_imports_are_relative_numpy_or_stdlib(module):
    foreign = []
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ALLOWED_THIRD_PARTY:
                foreign.append(f"line {node.lineno}: {name}")
    assert not foreign, f"{module} imports outside numpy and the standard library: {foreign}"


def _module_level(node: ast.AST):
    """The statements of node run on import: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _module_level(child)


@pytest.mark.parametrize("module", sorted(TREES))
def test_process_pool_imported_only_when_used(module):
    # multiprocessing costs every importer milliseconds and resident memory,
    # so only a parallel sweep imports it, inside the function that runs it
    eager = []
    for node in _module_level(TREES[module]):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        eager += [
            f"line {node.lineno}: {name}"
            for name in names
            if name.split(".")[0] == "multiprocessing"
            or name.startswith("concurrent.futures.process")
            or name.endswith(".ProcessPoolExecutor")
        ]
    assert not eager, f"{module} imports the process pool at module level: {eager}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_catch_all_handlers(module):
    catch_all = []
    for node in ast.walk(TREES[module]):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(t is None or isinstance(t, ast.Name) and t.id in {"Exception", "BaseException"}
               for t in caught):
            catch_all.append(node.lineno)
    assert not catch_all, f"{module} catches every error at lines {catch_all}"


@pytest.mark.parametrize("module", EXPORTING)
def test_all_entries_resolve(module):
    unresolved = [name for name in _all_entries(TREES[module]) if not _resolves(module, name)]
    assert not unresolved, f"{module}.__all__ names nothing bound: {unresolved}"


def _traced_lookups() -> set[tuple[str, str]]:
    """(module, name) pairs that `perfbench/spans.targets` looks up on a package module."""
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    func = next(n for n in spans.body if isinstance(n, ast.FunctionDef) and n.name == "targets")
    modules = {arg.arg for arg in func.args.args}
    return {
        (node.elts[0].id, node.elts[1].value)
        for node in ast.walk(func)
        if isinstance(node, ast.Tuple)
        and len(node.elts) > 1
        and isinstance(node.elts[0], ast.Name)
        and node.elts[0].id in modules
        and isinstance(node.elts[1], ast.Constant)
    }


@pytest.mark.parametrize("module", sorted(TREES))
def test_imports_are_used(module):
    # the one exception: a `# noqa: F401` import the benchmark tracer wraps there
    tree = TREES[module]
    lines = (PACKAGE / f"{module}.py").read_text().splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_all_entries(tree) or ())
    traced = _traced_lookups()
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in used:
                continue
            if "# noqa: F401" in lines[alias.lineno - 1] and (module, name) in traced:
                continue
            unused.append(f"line {alias.lineno}: {name}")
    assert not unused, f"{module} imports names it neither uses nor exports: {unused}"


def _references() -> set[str]:
    """Names used in src/, scripts/ and perfbench/, each outside the definition it names."""
    found = set()
    for path in [*SOURCES, *sorted(ROOT.glob("scripts/*.py")), *sorted(ROOT.glob("perfbench/*.py"))]:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, ast.ImportFrom):
                    names.update(alias.name for alias in n.names)
            names.discard(getattr(node, "name", None))
            found |= names
    return found


REFERENCES = _references()


@pytest.mark.parametrize("module", sorted(TREES))
def test_public_names_have_callers(module):
    # a public name that only tests use belongs in tests/helpers.py
    tree = TREES[module]
    public = set(_all_entries(tree) or ())
    public |= {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    uncalled = sorted(public - REFERENCES)
    assert not uncalled, f"{module} has public names nothing outside the tests uses: {uncalled}"


def _dotted(node: ast.expr) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


@pytest.mark.parametrize("module", sorted(TREES))
def test_fft_calls_take_no_out_argument(module):
    # pyproject.toml declares numpy >= 1.24; the np.fft functions accept
    # `out=` only from numpy 2.0 on
    flagged = [
        f"line {node.lineno}: {_dotted(node.func)}"
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.Call)
        and _dotted(node.func).split(".")[:2] in (["np", "fft"], ["numpy", "fft"])
        and any(kw.arg == "out" for kw in node.keywords)
    ]
    assert not flagged, f"{module} passes out= to numpy.fft: {flagged}"


def test_lattice_ffts_stay_in_the_kernel():
    # every FFT in lattice.py builds a spectrum (`_odd_spectrum`) or runs a
    # product inside ToeplitzKernel, whose matvec and rmatvec the benchmark
    # traces and the product-count tests count; an FFT anywhere else would be
    # a product outside both
    tree = TREES["lattice"]
    inside = {
        id(sub)
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and node.name in ("ToeplitzKernel", "_odd_spectrum")
        for sub in ast.walk(node)
    }
    uses = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and _dotted(node).split(".")[:2] in (["np", "fft"], ["numpy", "fft"])
    ]
    assert any(id(node) in inside for node in uses)
    stray = [f"line {n.lineno}: {_dotted(n)}" for n in uses if id(n) not in inside]
    stray += [
        f"line {n.lineno}: from {n.module} import"
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("numpy.fft")
    ]
    assert not stray, f"lattice.py reaches numpy.fft outside ToeplitzKernel: {stray}"


def _complex_uses(node: ast.AST) -> list[ast.AST]:
    """Complex literals and dtypes, conjugation, `.imag` and `.matrix` (a state's S) under node."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, complex):
            found.append(n)
        elif isinstance(n, ast.Name) and n.id in ("complex", "conj", "conjugate"):
            found.append(n)
        elif isinstance(n, ast.Attribute) and (
            n.attr in ("imag", "matrix", "cdouble", "csingle", "conj", "conjugate")
            or n.attr.startswith("complex")
        ):
            found.append(n)
        elif (
            isinstance(n, ast.keyword)
            and n.arg == "dtype"
            and isinstance(n.value, ast.Constant)
            and str(n.value.value).startswith(("complex", "c8", "c16"))
        ):
            found.append(n.value)
    return found


# where an S is converted to the state's real G or given back for files,
# and linalg's entry gate, which reads any input as real
S_EDGES = ("CovarianceMatrix", "as_real", "save_covariance", "load_covariance")


def test_complex_arithmetic_stays_at_the_edges():
    # a state is its real antisymmetric G: in states.py complex numbers
    # appear only where an S enters or leaves, in linalg only where the
    # entry gate reads an input as real, and the other modules built on
    # states never see one; fock.py (the dense oracle) is exempt
    edges = {
        id(sub)
        for module in ("states", "linalg")
        for node in TREES[module].body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in S_EDGES
        for sub in ast.walk(node)
    }
    stray = {
        module: [
            f"line {n.lineno}: {ast.unparse(n)}"
            for n in _complex_uses(TREES[module])
            if id(n) not in edges
        ]
        for module in sorted(set(TREES) - {"fock"})
    }
    assert any(id(n) in edges for n in _complex_uses(TREES["states"]))
    stray = {module: lines for module, lines in stray.items() if lines}
    assert not stray, f"complex arithmetic outside the S <-> G edges of states.py: {stray}"


def test_entry_limit_is_written_once():
    # the bound on input entries is linalg.ENTRY_LIMIT alone: every check
    # reads it through linalg.as_real rather than restating the number
    limit = [
        node.value
        for node in TREES["linalg"].body
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["ENTRY_LIMIT"]
    ]
    assert len(limit) == 1 and ast.literal_eval(limit[0]) == 1e100
    sites = [
        f"{module} line {node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value == 1e100
        and node is not limit[0]
    ]
    assert not sites, f"1e100 restated outside linalg.ENTRY_LIMIT: {sites}"


INTEGER_TYPES = {"int", "bool", "integer", "signedinteger", "Integral", "bool_"}


def _tests_for_integers(node: ast.AST) -> bool:
    """An isinstance against an integer type, operator.index, __index__ or an _is_int."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
        types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(ast.unparse(t).split(".")[-1] in INTEGER_TYPES for t in types)
    if isinstance(node, ast.Attribute):
        return node.attr == "__index__" or ast.unparse(node) == "operator.index"
    return isinstance(node, ast.Name) and node.id == "_is_int"


def test_integers_are_read_once():
    # linalg.as_index is the one integer gate: no other module tests for
    # integers itself, so a rule such as refusing a bool holds everywhere
    assert any(_tests_for_integers(node) for node in ast.walk(TREES["linalg"]))
    sites = [
        f"{module} line {node.lineno}: {ast.unparse(node)}"
        for module, tree in TREES.items()
        if module != "linalg"
        for node in ast.walk(tree)
        if _tests_for_integers(node)
    ]
    assert not sites, f"integers tested outside linalg.as_index: {sites}"


def test_antisymmetry_is_checked_once():
    # linalg.pfaffian is the one antisymmetry check: ANTISYMMETRY_RTOL is
    # read nowhere else, and the elimination kernel it shares with the
    # protocol stack raises nothing
    functions = {node.name: node for node in TREES["linalg"].body
                 if isinstance(node, ast.FunctionDef)}
    inside = {id(node) for node in ast.walk(functions["pfaffian"])}
    reads = [
        (module, node)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "ANTISYMMETRY_RTOL"
            and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "ANTISYMMETRY_RTOL")
    ]
    outside = [f"{module} line {node.lineno}" for module, node in reads if id(node) not in inside]
    assert reads and not outside, f"ANTISYMMETRY_RTOL read outside linalg.pfaffian: {outside}"
    raises = [node.lineno for node in ast.walk(functions["_eliminate"])
              if isinstance(node, ast.Raise)]
    assert not raises, f"linalg._eliminate raises at lines {raises}"


def test_fock_oracle_stays_independent():
    # fock.py checks the package's formulas, so it reads the package only
    # through public names and never through the state checks or the S -> G
    # conversion it is there to check (`fock.pfaffian` is imported for the
    # benchmark tracer and never called)
    tree = TREES["fock"]
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "fermidistill")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    calls = [
        f"line {node.lineno}: {_dotted(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _dotted(node.func).split(".")[-1] in ("validate", "from_s", "pfaffian")
    ]
    assert not private, f"fock.py imports private package names: {private}"
    assert not calls, f"fock.py calls the package's checks or conversion: {calls}"


# Phrases of the note texts in `protocol.NOTE_TEXT`, each found in no other message.
NOTE_PHRASES = ("degenerate singular value", "kept subspace depends", "misses the bound",
                "despite a vanishing", "vanishing-block reference", "no optimality statement",
                "skipped L=")


def _phrase_lines(tree: ast.Module, allowed=()) -> list[int]:
    """Lines of string constants naming a note phrase, outside the nodes in `allowed`."""
    inside = {id(n) for node in allowed for n in ast.walk(node)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(phrase in node.value for phrase in NOTE_PHRASES) and id(node) not in inside
    ]


def _top_level(tree: ast.Module, name: str) -> ast.AST:
    """The top-level definition of, or assignment to, `name`."""
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if getattr(node, "name", None) == name or name in targets:
            return node
    raise LookupError(name)


def test_note_text_is_read_only_at_the_output_edge():
    # a note's text lives in one table and is compared whole only where the
    # CLI prints it and where each kind's text is pinned; everywhere else a
    # note is matched by its kind and values, never by a substring
    table = _top_level(TREES["protocol"], "NOTE_TEXT")
    text = " ".join(n.value for n in ast.walk(table) if isinstance(n, ast.Constant))
    assert all(phrase in text for phrase in NOTE_PHRASES)
    found = {f"src/{stem}.py": _phrase_lines(tree, [table] if stem == "protocol" else [])
             for stem, tree in TREES.items()}
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name in ("test_cli.py", Path(__file__).name):  # this file names the phrases
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        pinned = ([_top_level(tree, "PINNED_NOTES"), _top_level(tree, "test_note_text_pinned")]
                  if path.name == "test_protocol.py" else [])
        found[f"tests/{path.name}"] = _phrase_lines(tree, pinned)
    found = {path: lines for path, lines in found.items() if lines}
    assert not found, f"note text outside the table and the output edge: {found}"
