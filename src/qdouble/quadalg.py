"""Quadratic algebra presentations and graded dimensions by exact rank.

A presentation is a list of generators and a relation subspace inside the
degree-2 part of the tensor algebra.  The degree-d part of the relation
ideal, I_d = sum_a T^a (x) R (x) T^b, is built one degree at a time,

    I_2 = R,    I_d = V (x) I_(d-1) + I_2 (x) V^(d-2)   (d >= 3),

which spans the same subspace (Polishchuk-Positselski, *Quadratic
Algebras*, ch. 1), and dim A_d = n^d - rank I_d, with sparse exact
elimination; no normal forms are involved.  Inhomogeneous (filtered)
relations contribute their top-degree parts to the associated graded.
"""

from __future__ import annotations

from itertools import product

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
        # degree -> echelon span of I_degree, for degree >= 2
        self._ideals: dict[int, SparseSpan] = {}

    def _all_quadratic_parts(self):
        for r in self.relations:
            yield r
        for q, _ in self.inhomogeneous:
            yield q

    def _ideal(self, degree: int) -> SparseSpan:
        """Echelon span of I_degree, built from I_(degree-1) and I_2.

        A stored row b of I_(d-1) is monic at its minimum key pivot(b), so
        v_i (x) b is monic at its minimum key (i,) + pivot(b), and these keys
        are distinct over (i, b): the rows of V (x) I_(d-1) enter the span
        as pivots with no reduction.  Only the rows b (x) w, b an echelon row
        of I_2 and w a word of length d-2, are reduced against them.
        """
        span = self._ideals.get(degree)
        if span is not None:
            return span
        span = SparseSpan()
        if degree == 2:
            for rel in self._all_quadratic_parts():
                span.add(rel)
        else:
            for pivot, row in self._ideal(degree - 1).pivots.items():
                for i in range(self.n):
                    span.pivots[(i,) + pivot] = {(i,) + k: c for k, c in row.items()}
            quadratic = self._ideal(2).pivots.values()
            for word in product(range(self.n), repeat=degree - 2):
                for row in quadratic:
                    span.add({k + word: c for k, c in row.items()})
        self._ideals[degree] = span
        return span

    def graded_dimension(self, degree: int) -> int:
        """dim of the degree component of the (associated graded) algebra."""
        if degree < 0:
            return 0
        if degree not in self._dims:
            self._dims[degree] = self.n**degree - self._ideal(degree).rank
        return self._dims[degree]

    def hilbert_prefix(self, maxdeg: int):
        return [self.graded_dimension(d) for d in range(maxdeg + 1)]
