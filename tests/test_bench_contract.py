"""Every function the traced benchmark measures still exists.

``perfbench/layers.py`` names the qdouble functions behind each per-layer
metric as ``module.func`` or ``module.Class.func``.  A refactor that renames
one of them fails here, in the test suite, and not only in a traced run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = []
    for _, funcs in layers.SPEC.values():
        for name in funcs:
            module, *attrs = name.split(".")
            obj = importlib.import_module(f"qdouble.{module}")
            for attr in attrs:
                obj = getattr(obj, attr, None)
            if not callable(obj):
                missing.append(name)
    assert not missing, missing
