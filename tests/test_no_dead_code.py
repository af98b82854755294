"""Every function and method defined in the package has a caller.

A def counts as used when its name occurs as a ``Name`` or an ``Attribute``
in the syntax tree of the package or the tests, outside the def's own body.
An import line, a string or a comment is not such a reference, so a def that
only a test imports and never calls is dead.  A method is reached through an
attribute, so a def in a class body also needs a ``.name`` reference outside
the definitions of that name: a bare word such as a local function of the
same name does not count.

A module-level class and a module- or class-level def must also have a
caller inside the package, except the frozen ``TEST_ONLY`` list of defs and
classes that only tests reach; that list may only shrink.  There a ``Name``
counts as a caller only when it is not a local binding of an enclosing
function (a parameter, or an assignment, ``for``, ``with`` or comprehension
target), a method counts only through ``Attribute`` references and a class
only through ``Name`` references.  A reference inside the body of a def or
class that has no package caller does not count either, dunder methods
included, applied until nothing changes, so a helper reached only from
test-only code is test-only too.  A method is still named by an
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
    "braided.RegularBraidedLie",
    "calculus.DoubleCalculus",
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
    "calculus.FunctionCalculus",
    "calculus.FunctionCalculus.d",
    "calculus.FunctionCalculus.function_times_one_form",
    "calculus.FunctionCalculus.leibniz_holds",
    "calculus.FunctionCalculus.one_form_times_function",
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
    "double.adjoint_structure",
    "double.beta",
    "double.decompose_DG_module",
    "double.double_characters",
    "double.pairing",
    "double.quasi_R",
    "double.regular_crossed_module",
    "dualgeometry.DualInnerProduct",
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


def _package_defs(trees) -> dict:
    """dotted name -> (path, node, kinds) of every module-level def and class
    and every def in a module-level class body, dunders aside.  ``kinds`` are
    the reference kinds (is it an ``Attribute``?) that count as a caller: a
    function is called through either, a method through an ``Attribute``
    only and a class through a ``Name`` only."""
    defs = {}
    for path, tree in trees.items():
        for node in tree.body:
            members = [(None, node)]
            if isinstance(node, ast.ClassDef):
                defs[f"{path.stem}.{node.name}"] = (path, node, {False})
                members = [(node.name, sub) for sub in node.body]
            for cls, sub in members:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    kinds = {False, True} if cls is None else {True}
                    defs[".".join(filter(None, (path.stem, cls, sub.name)))] = (path, sub, kinds)
    return defs


def _package_references(trees) -> dict:
    """name -> (path, line, is_attribute) of each of its ``_references``."""
    where = {}
    for path, tree in trees.items():
        for name, line, attribute in _references(tree):
            where.setdefault(name, []).append((path, line, attribute))
    return where


def _test_only_fixed_point(defs, where) -> set:
    """The dotted names of the defs with no package caller.  A reference
    counts unless it lies in the def's own body, is of a kind that does not
    call it, or lies in the body of a def or class already found uncalled;
    the last rule is applied until the set stops growing."""
    uncalled = set()
    while True:
        bodies = [(defs[name][0], defs[name][1].lineno, defs[name][1].end_lineno) for name in uncalled]
        found = {
            name
            for name, (path, node, kinds) in defs.items()
            if all(
                (p == path and node.lineno <= line <= node.end_lineno)
                or attribute not in kinds
                or any(p == q and lo <= line <= hi for q, lo, hi in bodies)
                for p, line, attribute in where.get(node.name, ())
            )
        }
        if found == uncalled:
            return uncalled
        uncalled = found


def _snippet_test_only(source) -> set:
    """The test-only fixed point of ``source`` read as the package's one module."""
    trees = {Path("mod.py"): ast.parse(source)}
    return _test_only_fixed_point(_package_defs(trees), _package_references(trees))


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
    assert _snippet_test_only(source) == {"mod.helper", "mod.reached"}


def test_an_unbuilt_class_and_what_only_its_body_calls_are_test_only():
    """A class is called only by a ``Name`` outside its own body: ``Unbuilt``
    is named inside itself and as the attribute ``mod.Unbuilt``, so it is
    uncalled, and so are its method ``copy``, named nowhere, and ``helper``,
    named only in its ``__init__``; ``Built`` is named at module level, so
    ``helper2`` in its ``__init__`` is called."""
    source = (
        "def helper():\n    return 1\n"
        "def helper2():\n    return 2\n"
        "class Unbuilt:\n"
        "    def __init__(self):\n        self.x = helper()\n"
        "    def copy(self):\n        return Unbuilt()\n"
        "class Built:\n"
        "    def __init__(self):\n        self.y = helper2()\n"
        "    def go(self):\n        return 3\n"
        "VALUE = Built().go()\n"
        "ALIAS = mod.Unbuilt\n"
    )
    assert _snippet_test_only(source) == {"mod.Unbuilt", "mod.Unbuilt.copy", "mod.helper"}


def test_every_def_has_a_package_caller():
    """A module-level class or a module- or class-level def of the package
    (dunders aside) is named in the package, outside its own body and outside
    the body of every def or class without a package caller, by a ``Name``
    that is not a local binding or, for a function or method, by an
    ``Attribute`` (a method only by an ``Attribute``), unless it is in
    ``TEST_ONLY``; and every name in ``TEST_ONLY`` still exists and still
    lacks such a reference."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    defs = _package_defs(trees)
    uncalled = _test_only_fixed_point(defs, _package_references(trees))
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
