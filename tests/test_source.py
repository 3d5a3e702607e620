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


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node) of each top-level function, class and non-dunder name
    assigned at module level, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not _dunder(target.id):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield item.name, item


def _references(node, enclosing=()):
    """(identifier, enclosing definitions) for each name read, attribute and
    dotted-name string (as the benchmark tracer binds targets) in the tree."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node,)
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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
        f"{path.name}:{node.lineno} {name}"
        for path in MODULES
        for name, node in _definitions(trees[path])
        if all(node in enclosing for enclosing in used.get(name, []))
    ]
    assert unused == []


# Matrix has no coercing ``Matrix(dense_rows)`` constructor and no dense
# ``Matrix.row`` accessor: the engine builds its matrices and vectors as
# sparse rows throughout, and a call of either form would bring them back.
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
        f"{path.name}:{line} in {function}"
        for path in MODULES
        for function, line in _dense_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert calls == []


# ``kernel_basis`` returns the null space as its canonical Subspace, from one
# rref: re-reducing its rows in ``Subspace(...)`` would be a second
# elimination of the same null space.
def _calls(node, name):
    """Whether the node is a call of ``name(...)`` or ``x.name(...)``."""
    f = node.func if isinstance(node, ast.Call) else None
    return (isinstance(f, ast.Name) and f.id == name) or (
        isinstance(f, ast.Attribute) and f.attr == name
    )


def _rereduced_kernels(tree):
    """Line of each ``Subspace(...)`` call given a ``kernel_basis(...)``
    result, directly or through a name its function assigned one to."""
    for function in ast.walk(tree):
        if not isinstance(function, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        kernels = {
            target.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign) and _calls(node.value, "kernel_basis")
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(function):
            if _calls(node, "Subspace") and any(
                _calls(sub, "kernel_basis") or (isinstance(sub, ast.Name) and sub.id in kernels)
                for arg in node.args + node.keywords
                for sub in ast.walk(arg)
            ):
                yield node.lineno


def test_no_kernel_is_reduced_twice():
    found = sorted({
        f"{path.name}:{line}"
        for path in MODULES
        for line in _rereduced_kernels(ast.parse(path.read_text(encoding="utf-8")))
    })
    assert found == []


def _attribute_reads(node, enclosing=()):
    """(attribute, enclosing definitions, name it is read through or None)
    for each ``x.attribute`` in the tree."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node,)
    if isinstance(node, ast.Attribute):
        owner = node.value.id if isinstance(node.value, ast.Name) else None
        yield node.attr, enclosing, owner
    for child in ast.iter_child_nodes(node):
        yield from _attribute_reads(child, enclosing)


def _name_reads(node, enclosing=()):
    """(name, enclosing definitions) for each bare ``name`` and each
    ``x.name`` in the tree."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node,)
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _name_reads(child, enclosing)


def test_only_rref_calls_the_row_update():
    # rref is the one elimination: the integer-triple row update is read
    # inside it only, so a second residue loop cannot quietly return
    sites = [
        (path.name, [node.name for node in enclosing])
        for path in SOURCES
        for name, enclosing in _name_reads(ast.parse(path.read_text(encoding="utf-8")))
        if name == "_subtract"
    ]
    assert sites and all(s == ("linalg.py", ["rref"]) for s in sites)


def _nodes_with_enclosing(node, enclosing=()):
    """(node, enclosing definitions) for each node in the tree."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node,)
    yield node, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _nodes_with_enclosing(child, enclosing)


def _one_entry_tests(node):
    """Whether the node is ``all(len(x) < 2 for ...)`` or ``<= 1``: every
    row holding at most one entry."""
    if not (_calls(node, "all") and node.args and isinstance(node.args[0], ast.GeneratorExp)):
        return False
    test = node.args[0].elt
    return (
        isinstance(test, ast.Compare)
        and _calls(test.left, "len")
        and len(test.ops) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and (type(test.ops[0]), test.comparators[0].value) in ((ast.Lt, 2), (ast.LtE, 1))
    )


def test_only_rref_and_kernel_basis_read_the_one_entry_rule():
    # a matrix whose rows each hold at most one entry is answered inside rref
    # and kernel_basis, by the one predicate linalg defines, so no other
    # code adds its own sparse shortcut around them
    trees = {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "perfbench", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    defined = [
        (path, [n.name for n in enclosing])
        for path, tree in trees.items()
        for node, enclosing in _nodes_with_enclosing(tree)
        if _one_entry_tests(node)
    ]
    assert defined == [("src/liecohom/linalg.py", ["_one_entry_rows"])]
    sites = sorted({
        (path, tuple(node.name for node in enclosing))
        for path, tree in trees.items()
        for name, enclosing in _name_reads(tree)
        if name == "_one_entry_rows"
    })
    assert sites == [
        ("src/liecohom/linalg.py", ("kernel_basis",)),
        ("src/liecohom/linalg.py", ("rref",)),
    ]


def test_only_linalg_sums_sparse_rows_by_hand():
    # the sparse-row accumulation ``row.pop(key, ZERO) + ...`` lives in
    # linalg; anywhere else a row sum is a product or a Subspace of linalg's
    sites = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for folder in ("src", "perfbench", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _calls(node, "pop")
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Name)
        and node.args[1].id == "ZERO"
    ]
    assert sites and all(site.startswith("src/liecohom/linalg.py:") for site in sites)


def test_no_pattern_uses_unicode_digit_or_word_classes():
    # the `.lie` grammar is ASCII, and ``\d`` and ``\w`` match every Unicode
    # digit and letter, so a pattern spells its classes out (``[0-9]``)
    patterns = [
        (f"{path.relative_to(ROOT)}:{node.lineno}", node.args[0].value)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]
    assert patterns and not [site for site, text in patterns if re.search(r"\\[dw]", text)]


def test_every_matrix_attribute_is_used_by_the_engine():
    # linalg.Matrix carries no surface the engine does not call: each
    # non-dunder method, property and slot is read as ``x.name`` somewhere
    # in src/liecohom outside its own definition.  A read through another
    # class's name (``HermitianMetric.identity``) does not count.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    linalg = trees[ROOT / "src" / "liecohom" / "linalg.py"]
    matrix = next(
        node for node in linalg.body if isinstance(node, ast.ClassDef) and node.name == "Matrix"
    )
    attributes = {}
    for item in matrix.body:
        if isinstance(item, ast.FunctionDef):
            attributes[item.name] = item
        elif isinstance(item, ast.Assign) and item.targets[0].id == "__slots__":
            attributes.update((slot.value, None) for slot in item.value.elts)
    other_classes = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node is not matrix
    }
    used = {
        name
        for tree in trees.values()
        for name, enclosing, owner in _attribute_reads(tree)
        if attributes.get(name) not in enclosing and owner not in other_classes
    }
    unused = [
        name
        for name in attributes
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert unused == []


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


def test_only_the_adjoint_matrix_calls_the_star_matrix():
    # every star is held once, as the integer numerators that the Form-level
    # star and the adjoint kernel rows read; the Scalar view ``_star_matrix``
    # is read by the engine only where it composes -S' conj(M S)
    sites = [
        (path.name, [node.name for node in enclosing])
        for path in SOURCES
        for name, enclosing, _ in _attribute_reads(ast.parse(path.read_text(encoding="utf-8")))
        if name == "_star_matrix"
    ]
    assert sites and all(s == ("hodge.py", ["HermitianMetric", "adjoint_matrix"]) for s in sites)
