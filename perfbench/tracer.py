"""Span tracer for qdouble, installed from outside the package.

``install()`` wraps the public functions and methods of every qdouble
module (plus the arithmetic dunders and a few named private functions)
and rebinds every alias of a wrapped function, by object identity, across
all loaded ``qdouble.*`` modules, their classes and their module-level
lists and dicts.  That catches names bound with ``from .x import y`` and
tables such as ``cli.COMMANDS`` and ``regression.ALL_CRITERIA``.

Spans are kept in memory as a calling-context tree: one node per distinct
(parent node, function) pair, holding the call count, the number of calls
that raised and the total duration.  Aggregating repeated calls under the
same parent keeps memory bounded on the tens of millions of scalar
operations a run makes.  ``Tracer.dump`` writes the tree and the traffic
records (cyclotomic orders, rref/nullspace shapes, SparseSpan outcomes)
as JSON at the end of the process.

The parent side merges the dumps of a pass with ``Profile``; layers.py turns
that into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = (
    "cyclotomic",
    "poly",
    "linalg",
    "groups",
    "reps",
    "double",
    "transfer",
    "calculus",
    "geometry",
    "dualgeometry",
    "braided",
    "quadalg",
    "regression",
    "cli",
)

DUNDERS = {
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "__eq__",
    "__hash__",
}

# Building a scalar is part of the operation that produced it; a span of
# its own would double the tracer's cost on the hottest path.
SKIP = {"cyclotomic.Cyc.__init__", "poly.Poly.__init__"}

# Private functions that carry a per-layer count.
EXTRA = {"reps.Rep._validate"}

# Cyc operations counted by the order of the receiving operand.
CYC_OPS = {
    "cyclotomic.Cyc.__mul__",
    "cyclotomic.Cyc.__add__",
    "cyclotomic.Cyc.__sub__",
    "cyclotomic.Cyc.__rsub__",
    "cyclotomic.Cyc.__neg__",
    "cyclotomic.Cyc.inverse",
    "cyclotomic.Cyc.promote",
    "cyclotomic.Cyc.__eq__",
    "cyclotomic.Cyc.__hash__",
}


def _wanted(name: str) -> bool:
    return not name.startswith("_") or name in DUNDERS


class Tracer:
    """Calling-context tree of wrapped calls in one process."""

    def __init__(self):
        self.funcs: list[str] = []
        # node: [calls, seconds, raised, children {fid: node}]
        self.root = [0, 0.0, 0, {}]
        self.current = [self.root]
        self.orders: dict[int, int] = defaultdict(int)
        self.shapes: dict[str, dict] = {"rref": {}, "nullspace": {}}
        self.sparse_add = [0, 0]  # calls, calls that raised the rank

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str):
        fid = len(self.funcs)
        self.funcs.append(name)
        post = self._post_hook(name)
        current = self.current
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = current[0]
            node = parent[3].get(fid)
            if node is None:
                node = parent[3][fid] = [0, 0.0, 0, {}]
            current[0] = node
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                node[2] += 1
                raise
            finally:
                node[1] += clock() - t0
                node[0] += 1
                current[0] = parent
            if post is not None:
                post(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _post_hook(self, name: str):
        if name in CYC_OPS:
            orders = self.orders

            def count_order(args, result):
                orders[args[0].order] += 1

            return count_order
        if name in ("linalg.rref", "linalg.nullspace"):
            hist = self.shapes[name.split(".")[1]]

            def count_shape(args, result):
                # [calls, rank sum] for rref, [calls, nullity sum] for nullspace
                matrix = args[0]
                key = f"{len(matrix)}x{len(matrix[0]) if matrix else 0}"
                entry = hist.setdefault(key, [0, 0])
                entry[0] += 1
                entry[1] += len(result[0]) if name == "linalg.rref" else len(result)

            return count_shape
        if name == "linalg.SparseSpan.add":
            record = self.sparse_add

            def count_add(args, result):
                record[0] += 1
                record[1] += bool(result)

            return count_add
        return None

    # -- output ------------------------------------------------------------

    def nodes(self) -> list[list]:
        """Flattened tree: [node id, parent id, function, calls, seconds, raised]."""
        out = []
        stack = [(self.root, -1, -1)]
        while stack:
            node, parent, fid = stack.pop()
            nid = len(out)
            out.append([nid, parent, fid, node[0], node[1], node[2]])
            for cfid, child in node[3].items():
                stack.append((child, nid, cfid))
        return out

    def dump(self, path: str) -> None:
        data = {
            "funcs": self.funcs,
            "nodes": self.nodes(),
            "orders": {str(k): v for k, v in sorted(self.orders.items())},
            "shapes": self.shapes,
            "sparse_add": self.sparse_add,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def install() -> Tracer:
    """Import every qdouble module, wrap it and rebind all aliases."""
    tracer = Tracer()
    mods = {m: importlib.import_module(f"qdouble.{m}") for m in MODULES}
    replaced: dict[int, object] = {}

    def wrap_once(fn, name):
        if id(fn) not in replaced:
            replaced[id(fn)] = tracer.wrap(fn, name)
        return replaced[id(fn)]

    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for key, member in list(vars(obj).items()):
                    name = f"{short}.{obj.__name__}.{key}"
                    if name in SKIP or not (_wanted(key) or name in EXTRA):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        inner = member.__func__
                        if inspect.isgeneratorfunction(inner):
                            continue
                        setattr(obj, key, type(member)(wrap_once(inner, name)))
                    elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                        setattr(obj, key, wrap_once(member, name))
            elif inspect.isfunction(obj) and _wanted(attr) and not inspect.isgeneratorfunction(obj):
                wrap_once(obj, f"{short}.{attr}")

    for modname, mod in list(sys.modules.items()):
        if modname == "qdouble" or modname.startswith("qdouble."):
            _rebind(vars(mod), replaced, lambda k, v, mod=mod: setattr(mod, k, v))
    return tracer


def _rebind(namespace: dict, replaced: dict, assign) -> None:
    for key, value in list(namespace.items()):
        if id(value) in replaced:
            assign(key, replaced[id(value)])
        elif isinstance(value, list):
            value[:] = [replaced.get(id(v), v) for v in value]
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                if id(v) in replaced:
                    value[k] = replaced[id(v)]
        elif isinstance(value, tuple) and any(id(v) in replaced for v in value):
            assign(key, tuple(replaced.get(id(v), v) for v in value))


# -- parent side: per-layer metrics from the dumps of one pass ---------------


class Profile:
    """Merged view of the dumps of every op in one traced pass."""

    def __init__(self, dumps: list[dict]):
        self.dumps = dumps
        # per op: (dump, nodes by id, child ids by parent id)
        self.trees = []
        for d in dumps:
            children = defaultdict(list)
            for n in d["nodes"]:
                children[n[1]].append(n[0])
            self.trees.append((d, {n[0]: n for n in d["nodes"]}, children))

    def busy(self, pred) -> float:
        """Time inside any function matching pred, counting nested calls once."""
        total = 0.0
        for d, nodes, children in self.trees:
            funcs = d["funcs"]
            stack = [(0, False)]
            while stack:
                nid, inside = stack.pop()
                node = nodes[nid]
                hit = node[2] >= 0 and pred(funcs[node[2]])
                if hit and not inside:
                    total += node[4]
                for c in children[nid]:
                    stack.append((c, inside or hit))
        return total

    def self_time(self, pred) -> float:
        """Time in matching functions minus the time of their wrapped children."""
        total = 0.0
        for d, nodes, children in self.trees:
            funcs = d["funcs"]
            for n in d["nodes"]:
                if n[2] >= 0 and pred(funcs[n[2]]):
                    total += n[4] - sum(nodes[c][4] for c in children[n[0]])
        return total

    def _total(self, names, column: int) -> int:
        names = set(names)
        return sum(
            n[column] for d in self.dumps for n in d["nodes"] if n[2] >= 0 and d["funcs"][n[2]] in names
        )

    def calls(self, names) -> int:
        return self._total(names, 3)

    def raised(self, names) -> int:
        return self._total(names, 5)

    def known(self) -> set[str]:
        return {f for d in self.dumps for f in d["funcs"]}
