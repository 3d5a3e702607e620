import ast
import re
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "liecohom").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # Invalid escapes and similar are warnings at compile time (a SyntaxWarning
    # from Python 3.12); promoted to errors here, they fail the suite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # an imported name that its own module never references is dead weight
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _definitions(tree):
    """Each top-level function or class, and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def _references(node, enclosing=()):
    """(identifier, enclosing definitions) for each name, attribute and
    dotted-name string (as the benchmark tracer binds targets) in the tree."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node,)
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            for part in node.value.split("."):
                yield part, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def test_every_definition_is_referenced():
    # a definition nothing uses outside its own body is a leftover
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    used: dict[str, list] = {}
    for tree in trees.values():
        for name, enclosing in _references(tree):
            used.setdefault(name, []).append(enclosing)
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in MODULES
        for node in _definitions(trees[path])
        if all(node in enclosing for enclosing in used.get(node.name, []))
    ]
    assert unused == []


# The coercing ``Matrix(dense_rows)`` constructor and the dense ``Matrix.row``
# accessor belong where dense input enters; everything else stays in sparse
# rows.  Each entry is (module, innermost enclosing function).
DENSE_BOUNDARIES = {
    ("cohomology.py", "harmonic_projection"),
}


def _dense_calls(node, function=None):
    """(innermost enclosing function, line) of each ``Matrix(...)`` or
    ``.row(...)`` call in the tree."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "Matrix") or (
            isinstance(f, ast.Attribute) and f.attr in ("Matrix", "row")
        ):
            yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _dense_calls(child, function)


def test_dense_matrix_calls_stay_at_input_boundaries():
    calls = [
        (path.name, function, line)
        for path in MODULES
        for function, line in _dense_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    outside = [f"{m}:{line} in {f}" for m, f, line in calls if (m, f) not in DENSE_BOUNDARIES]
    assert outside == []
    # an entry with no such call left is a stale exemption
    assert {(m, f) for m, f, _ in calls} == DENSE_BOUNDARIES


def test_scalar_triple_is_read_only_inside_scalars():
    # a Scalar's canonical triple (slots _a, _b, _d) is private to scalars.py;
    # other program code goes through re/im and the integer-part helpers
    outside = [
        f"{path.relative_to(ROOT)}:{node.lineno} .{node.attr}"
        for folder in ("src", "perfbench", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != ROOT / "src" / "liecohom" / "scalars.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("_a", "_b", "_d")
    ]
    assert outside == []
