"""Exact computational engine for the quantum double of a finite group.

Modules:

* ``cyclotomic``   -- the scalar field Q(zeta_N)
* ``poly``         -- polynomials and rational functions in named parameters
* ``linalg``       -- one exact elimination, ``SparseSpan.reduce``, and its dense view ``rref``;
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
"""

from .cyclotomic import Cyc, cyc, root_of_unity
from .groups import FiniteGroup, ClassContext, class_context
from .reps import Rep, catalog, irrep_catalog, induced_rep, decompose
from .double import DoubleElement, CrossedModule, build_VCpi, double_irreps

__all__ = [
    "Cyc",
    "cyc",
    "root_of_unity",
    "FiniteGroup",
    "ClassContext",
    "class_context",
    "Rep",
    "catalog",
    "irrep_catalog",
    "induced_rep",
    "decompose",
    "DoubleElement",
    "CrossedModule",
    "build_VCpi",
    "double_irreps",
]
