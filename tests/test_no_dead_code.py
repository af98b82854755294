"""Every function and method defined in the package has a caller.

A def counts as used when its name occurs as a ``Name`` or an ``Attribute``
in the syntax tree of the package or the tests, outside the def's own body.
An import line, a string or a comment is not such a reference, so a def that
only a test imports and never calls is dead.  A method is reached through an
attribute, so a def in a class body also needs a ``.name`` reference outside
the definitions of that name: a bare word such as a local function of the
same name does not count.
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
