"""Every function and method defined in the package has a caller.

A def counts as used when its name occurs as a whole word somewhere in the
package or the tests, other than at the definitions of that name.  A method
is reached through an attribute, so a def in a class body also needs a
``.name`` reference outside the definitions of that name: a bare word such
as a JSON key or a local function of the same name does not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdouble"


def _sources():
    return [p.read_text() for d in (ROOT / "src", ROOT / "tests") for p in sorted(d.rglob("*.py"))]


def test_every_def_is_referenced():
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defs.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    text = "\n".join(_sources())
    words = Counter(re.findall(r"\w+", text))
    defined = Counter(re.findall(r"^\s*(?:async\s+)?def\s+(\w+)", text, re.M))
    dead = [
        f"{where} {name}"
        for name, places in sorted(defs.items())
        if words[name] <= defined[name]
        for where in places
    ]
    assert not dead, "defs with no reference:\n" + "\n".join(dead)


def test_every_method_is_referenced_as_an_attribute():
    trees = {
        p: ast.parse(p.read_text())
        for d in (ROOT / "src", ROOT / "tests")
        for p in sorted(d.rglob("*.py"))
    }
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
