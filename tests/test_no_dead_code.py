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
list may only shrink.  There a ``Name`` counts as a caller only when it is
not a local binding of an enclosing function (a parameter, or an
assignment, ``for``, ``with`` or comprehension target), and a method counts
only through ``Attribute`` references.  A reference inside the body of a
def that has no package caller does not count either, applied until nothing
changes, so a helper reached only from test-only code is test-only too.  A method is still named by an
attribute of that name on any object, so ``DualInnerProduct.star_compatible``
stays hidden behind the ``ip.star_compatible()`` calls on geometry's
``InnerProduct``.
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
    "calculus.DoubleCalculus._act_dual",
    "calculus.DoubleCalculus._right_mult_delta",
    "calculus.DoubleCalculus._right_mult_group",
    "calculus.DoubleCalculus.d_basis",
    "calculus.DoubleCalculus.d_delta",
    "calculus.DoubleCalculus.d_group",
    "calculus.DoubleCalculus.form_indices",
    "calculus.DoubleCalculus.inner_check",
    "calculus.DoubleCalculus.left_mult",
    "calculus.DoubleCalculus.leibniz_check",
    "calculus.DoubleCalculus.pushforward_dims",
    "calculus.DoubleCalculus.right_mult",
    "calculus.DoubleCalculus.theta",
    "calculus.FunctionCalculus.leibniz_holds",
    "calculus.FunctionCalculus.quotient_graph",
    "calculus.FunctionCalculus.right_coaction_check",
    "calculus.base_calculus_functions",
    "calculus.base_calculus_group_algebra",
    "cyclotomic.Cyc.as_rational",
    "cyclotomic.Cyc.is_rational",
    "double.CrossedModule.braiding_matrix",
    "double.CrossedModule.direct_sum",
    "double.DoubleElement.delta",
    "double.DoubleElement.group_like",
    "double.DoubleElement.scale",
    "double._inner",
    "double.beta",
    "double.decompose_DG_module",
    "double.double_characters",
    "double.pairing",
    "double.quasi_R",
    "double.regular_crossed_module",
    "dualgeometry.DualInnerProduct.pair",
    "dualgeometry._zero_like",
    "dualgeometry.dual_operator",
    "dualgeometry.is_bicovariant_operator",
    "dualgeometry.peter_weyl_blocks",
    "dualgeometry.second_order_check",
    "geometry.ip_from_laplacian",
    "geometry.is_second_order",
    "geometry.operator_is_covariant",
    "groups.ClassContext.factorize",
    "reps._kron",
    "reps.product_rep",
    "transfer._coaction",
    "transfer.averaging_to_functions",
    "transfer.coact_E",
    "transfer.coact_Eprime",
    "transfer.coact_Estar",
    "transfer.coact_VCpi",
    "transfer.coaction_equivariance",
    "transfer.fourier",
    "transfer.integral_functions",
    "transfer.integral_group_algebra",
    "transfer.mass_shell_ft",
    "transfer.projector_cov",
    "transfer.projector_star",
})


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_bindings(func) -> set:
    """The names a function binds locally: its parameters and every ``Name``
    target in its body (assignment, ``for``, ``with``, comprehension), the
    bodies of nested functions and classes aside."""
    args = func.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(tree) -> list:
    """(name, line, is_attribute) of every ``Attribute`` and of every ``Name``
    that is not a local binding of an enclosing function."""
    out = []

    def visit(node, local):
        if isinstance(node, ast.Name) and node.id not in local:
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, True))
        inner = local | _local_bindings(node) if isinstance(node, _FUNCTIONS) else local
        body = (node.body if isinstance(node.body, list) else [node.body]) if isinstance(node, _FUNCTIONS) else ()
        for child in ast.iter_child_nodes(node):
            # decorators, defaults and annotations belong to the enclosing scope
            visit(child, inner if child in body else local)

    visit(tree, frozenset())
    return out


def test_a_local_binding_is_not_a_caller():
    # the parameter, the assigned local and the comprehension target are not callers;
    # the decorator's and the default's names belong to the enclosing scope
    tree = ast.parse(
        "@deco(size)\n"
        "def f(scale, n=default):\n"
        "    pairing = [x for x in scale]\n"
        "    return g(pairing, obj.h)\n"
    )
    assert sorted(name for name, _, _ in _references(tree)) == ["deco", "default", "g", "h", "obj", "size"]


def _test_only_fixed_point(defs, where) -> set:
    """The dotted names of the defs with no package caller.  A reference
    counts unless it lies in the def's own body, is a bare ``Name`` for a
    method, or lies in the body of a def already found uncalled; the last
    rule is applied until the set stops growing."""
    uncalled = set()
    while True:
        bodies = [(defs[name][0], defs[name][1].lineno, defs[name][1].end_lineno) for name in uncalled]
        found = {
            name
            for name, (path, node, method) in defs.items()
            if all(
                (p == path and node.lineno <= line <= node.end_lineno)
                or (method and not attribute)
                or any(p == q and lo <= line <= hi for q, lo, hi in bodies)
                for p, line, attribute in where.get(node.name, ())
            )
        }
        if found == uncalled:
            return uncalled
        uncalled = found


def test_a_caller_inside_a_test_only_def_does_not_count():
    """Transitive rule: ``helper`` is named only in the body of ``reached``,
    which nothing names, so both are uncalled; ``used`` is named at module
    level and ``helper2`` in its body, so both are called."""
    source = (
        "def helper():\n    return 1\n"
        "def reached():\n    return helper()\n"
        "def helper2():\n    return 2\n"
        "def used():\n    return helper2()\n"
        "VALUE = used()\n"
    )
    path = Path("mod.py")
    tree = ast.parse(source)
    defs = {node.name: (path, node, False) for node in tree.body if isinstance(node, ast.FunctionDef)}
    where = {}
    for name, line, attribute in _references(tree):
        where.setdefault(name, []).append((path, line, attribute))
    assert _test_only_fixed_point(defs, where) == {"helper", "reached"}


def test_every_def_has_a_package_caller():
    """A module- or class-level def of the package (dunders aside) is named
    in the package, outside its own body and outside the body of every def
    without a package caller, by a ``Name`` that is not a local binding or,
    for a method only, by an ``Attribute``, unless it is in ``TEST_ONLY``;
    and every def in ``TEST_ONLY`` still exists and still lacks such a
    reference."""
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
                    defs[".".join(filter(None, (path.stem, cls, sub.name)))] = (path, sub, cls is not None)
    where = {}
    for path, tree in trees.items():
        for name, line, attribute in _references(tree):
            where.setdefault(name, []).append((path, line, attribute))
    uncalled = _test_only_fixed_point(defs, where)
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
