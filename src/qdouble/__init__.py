"""Exact computational engine for the quantum double of a finite group.

Modules:

* ``cyclotomic``   -- the scalar field Q(zeta_N)
* ``poly``         -- polynomials and rational functions in named parameters
* ``linalg``       -- one exact elimination, ``SparseSpan.reduce``: ``nullspace`` and ``solve``
  on zero-free {column: scalar} rows with any sortable keys, ``rref`` its dense view;
  the one sparse accumulation rule, ``_addto``/``_accumulate`` (private, so the
  benchmark tracer does not wrap a call per term)
* ``groups``       -- Cayley tables, conjugacy classes, sections and cocycles
* ``reps``         -- matrix representations, characters, projectors
* ``double``       -- the double, its modules and Artin-Wedderburn data
* ``transfer``     -- Fourier transforms, bundle trivialisations, transfers
* ``calculus``     -- first-order differential calculi
* ``geometry``     -- metrics, connections, curvature, Laplacians
* ``dualgeometry`` -- the mirrored picture on the function algebra
* ``braided``      -- braided-Lie algebras, R-matrices, enveloping algebras
* ``quadalg``      -- quadratic presentations and graded dimensions
* ``cli``          -- scenario-driven command line reports

The names below are re-exported from their home modules and resolve lazily
(PEP 562), so ``import qdouble`` loads no submodule and ``from qdouble import
Cyc`` loads ``cyclotomic`` alone.
"""

_HOMES = {
    "Cyc": "cyclotomic",
    "cyc": "cyclotomic",
    "root_of_unity": "cyclotomic",
    "FiniteGroup": "groups",
    "ClassContext": "groups",
    "class_context": "groups",
    "Rep": "reps",
    "irrep_catalog": "reps",
    "induced_rep": "reps",
    "DoubleElement": "double",
    "CrossedModule": "double",
    "build_VCpi": "double",
    "double_irreps": "double",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
