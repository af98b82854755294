"""Quadratic algebra presentations and graded dimensions by exact rank.

A presentation is a list of generators and a relation subspace inside the
degree-2 part of the tensor algebra.  Graded dimensions are computed as
dim T^n minus the rank of sum_a T^a (x) R (x) T^b, with sparse exact
elimination; no normal forms are involved.  Inhomogeneous (filtered)
relations contribute their top-degree parts to the associated graded.
"""

from __future__ import annotations

from .linalg import SparseSpan


class QuadAlg:
    """Generators plus a degree-2 relation space (sparse over index pairs)."""

    def __init__(self, generators, relations, inhomogeneous=()):
        self.generators = list(generators)
        self.n = len(self.generators)
        # each relation: dict (i, j) -> Cyc
        self.relations = [dict(r) for r in relations if r]
        # inhomogeneous relations: (quadratic part dict, constant Cyc)
        self.inhomogeneous = [(dict(q), c) for q, c in inhomogeneous]
        self._dims: dict[int, int] = {0: 1, 1: self.n}

    def _all_quadratic_parts(self):
        for r in self.relations:
            yield r
        for q, _ in self.inhomogeneous:
            yield q

    def graded_dimension(self, degree: int) -> int:
        """dim of the degree component of the (associated graded) algebra."""
        if degree in self._dims:
            return self._dims[degree]
        n = self.n
        span = SparseSpan()
        for rel in self._all_quadratic_parts():
            # T^a (x) R (x) T^b for a + 2 + b = degree
            for a in range(degree - 1):
                b = degree - 2 - a
                for prefix in _tuples(n, a):
                    for suffix in _tuples(n, b):
                        row = {}
                        for (i, j), c in rel.items():
                            key = prefix + (i, j) + suffix
                            row[key] = c
                        span.add(row)
        dim = n**degree - span.rank
        self._dims[degree] = dim
        return dim

    def hilbert_prefix(self, maxdeg: int):
        return [self.graded_dimension(d) for d in range(maxdeg + 1)]


def _tuples(n, length):
    if length == 0:
        yield ()
        return
    for head in range(n):
        for rest in _tuples(n, length - 1):
            yield (head,) + rest
