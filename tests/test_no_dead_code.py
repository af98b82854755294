"""Every function and method defined in the package has a caller.

A def counts as used when its name occurs as a whole word somewhere in the
package or the tests, other than at the definitions of that name.
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
