"""Every function and method defined in the package has a caller.

A def counts as used when its name occurs as a ``Name`` or an ``Attribute``
in the syntax tree of the package or the tests, outside the def's own body.
An import line, a string or a comment is not such a reference, so a def that
only a test imports and never calls is dead.  A method is reached through an
attribute, so a def in a class body also needs a ``.name`` reference outside
the definitions of that name: a bare word such as a local function of the
same name does not count.

A module- or class-level def must also have a caller inside the package,
except the frozen ``TEST_ONLY`` list of defs that only tests reach; that
list may only shrink.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdouble"


def _trees():
    return {
        p: ast.parse(p.read_text())
        for d in (ROOT / "src", ROOT / "tests")
        for p in sorted(d.rglob("*.py"))
    }


def test_every_def_is_referenced():
    trees = _trees()
    defs = [
        (path, node)
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    where = {}  # name -> (path, line) of each Name or Attribute node
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                where.setdefault(name, []).append((path, node.lineno))
    dead = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in defs
        if all(
            p == path and node.lineno <= line <= node.end_lineno
            for p, line in where.get(node.name, ())
        )
    ]
    assert not dead, "defs with no reference:\n" + "\n".join(dead)


TEST_ONLY = frozenset({
    "calculus.DoubleCalculus.form_indices",
    "calculus.DoubleCalculus.inner_check",
    "calculus.DoubleCalculus.leibniz_check",
    "calculus.DoubleCalculus.pushforward_dims",
    "calculus.FunctionCalculus.leibniz_holds",
    "calculus.FunctionCalculus.right_coaction_check",
    "calculus.base_calculus_functions",
    "calculus.base_calculus_group_algebra",
    "calculus.fodc_double",
    "calculus.fodc_functions",
    "double.CrossedModule.braiding_matrix",
    "double.CrossedModule.direct_sum",
    "double.bdg_crossed_module",
    "double.beta",
    "double.decompose_DG_module",
    "double.quasi_R",
    "double.regular_crossed_module",
    "dualgeometry.dual_operator",
    "dualgeometry.is_bicovariant_operator",
    "dualgeometry.peter_weyl_blocks",
    "dualgeometry.second_order_check",
    "geometry.ip_from_laplacian",
    "geometry.is_second_order",
    "geometry.operator_is_covariant",
    "reps.decompose",
    "reps.product_rep",
    "transfer.averaging_to_functions",
    "transfer.coact_E",
    "transfer.coact_Eprime",
    "transfer.coact_Estar",
    "transfer.coaction_equivariance",
    "transfer.integral_functions",
    "transfer.integral_group_algebra",
    "transfer.mass_shell_ft",
    "transfer.projector_cov",
    "transfer.projector_star",
})


def test_every_def_has_a_package_caller():
    """A module- or class-level def of the package (dunders aside) is named
    by a ``Name`` or an ``Attribute`` in the package, outside its own body,
    unless it is in ``TEST_ONLY``; and every def in ``TEST_ONLY`` still
    exists and still lacks such a reference."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    defs = {}  # dotted name -> (path, node)
    for path, tree in trees.items():
        for node in tree.body:
            members = [(None, node)]
            if isinstance(node, ast.ClassDef):
                members = [(node.name, sub) for sub in node.body]
            for cls, sub in members:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    defs[".".join(filter(None, (path.stem, cls, sub.name)))] = (path, sub)
    where = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                where.setdefault(name, []).append((path, node.lineno))
    uncalled = {
        name
        for name, (path, node) in defs.items()
        if all(p == path and node.lineno <= line <= node.end_lineno for p, line in where.get(node.name, ()))
    }
    extra, gone = uncalled - TEST_ONLY, TEST_ONLY - defs.keys()
    assert not extra, "defs with no package caller:\n" + "\n".join(sorted(extra))
    assert not gone, "TEST_ONLY names defs that are gone: " + ", ".join(sorted(gone))
    called = TEST_ONLY - uncalled
    assert not called, "TEST_ONLY names defs with a package caller: " + ", ".join(sorted(called))


def test_every_method_is_referenced_as_an_attribute():
    trees = _trees()
    spans, refs = {}, []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spans.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
    used = Counter(
        attr
        for attr, path, line in refs
        if not any(p == path and lo <= line <= hi for p, lo, hi in spans.get(attr, ()))
    )
    dead = [
        f"{path.name}:{node.lineno} {cls.name}.{node.name}"
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not used[node.name]
    ]
    assert not dead, "methods with no attribute reference:\n" + "\n".join(dead)


def test_every_module_level_import_is_referenced():
    """A name a module imports at its top level is used in that module."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, "imports with no reference:\n" + "\n".join(unused)
