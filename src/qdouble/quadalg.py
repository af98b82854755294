"""Quadratic algebra presentations and graded dimensions by exact rank.

A presentation is a list of generators and a relation subspace R inside the
degree-2 part of the tensor algebra.  The degree-d part of the relation
ideal, I_d = sum_a T^a (x) R (x) T^b, satisfies

    I_2 = R,    I_d = V (x) I_(d-1) + I_2 (x) V^(d-2)   (d >= 3)

(Polishchuk-Positselski, *Quadratic Algebras*, ch. 1).  Replacing each
word's tail by its remainder modulo I_(d-1), computed once per word, projects
along V (x) I_(d-1), so dim A_d = n^d - rank I_d is n dim A_(d-1) minus the
rank of the tail-reduced rows of I_2 (x) V^(d-2), the only rows stored, one
SparseSpan per degree.  Inhomogeneous (filtered) relations contribute their
top-degree parts to the associated graded.
"""

from __future__ import annotations

from itertools import product

from .cyclotomic import ONE
from .linalg import SparseSpan, _accumulate


class QuadAlg:
    """Generators plus a degree-2 relation space (sparse over index pairs)."""

    def __init__(self, generators, relations, inhomogeneous=()):
        self.generators = list(generators)
        self.n = len(self.generators)
        # each relation: dict (i, j) -> Cyc
        self.relations = [dict(r) for r in relations if r]
        # inhomogeneous relations: (quadratic part dict, constant Cyc)
        self.inhomogeneous = [(dict(q), c) for q, c in inhomogeneous]
        # degree -> span of the tail-reduced rows b (x) w, w a word of length
        # degree - 2 and b a relation (degree 2) or a stored row of I_2; I_1 = 0
        self._spans: dict[int, SparseSpan] = {1: SparseSpan()}
        # word -> its remainder modulo I_len(word), each computed once
        self._remainders: dict[tuple, dict] = {(): {(): ONE}}

    def _all_quadratic_parts(self):
        for r in self.relations:
            yield r
        for q, _ in self.inhomogeneous:
            yield q

    def _remainder(self, word: tuple) -> dict:
        """The word modulo I_d, d = len(word), zero on every leading word of I_d:
        the tail step clears each (i,) + p, p leading in I_(d-1), and the reduce
        the pivots of the degree-d span, whose tail-reduced rows bring none back."""
        rem = self._remainders.get(word)
        if rem is None:
            prefixed = {word[:1] + k: c for k, c in self._remainder(word[1:]).items()}
            rem = self._remainders[word] = self._span(len(word)).reduce(prefixed)
        return rem

    def _span(self, degree: int) -> SparseSpan:
        span = self._spans.get(degree)
        if span is None:
            span = SparseSpan()
            quadratic = self._all_quadratic_parts() if degree == 2 else self._span(2).pivots.values()
            for word in product(range(self.n), repeat=degree - 2):
                for row in quadratic:
                    span.add(_accumulate(((a,) + k, c * v) for (a, b), c in row.items()
                                         for k, v in self._remainder((b,) + word).items()))
            self._spans[degree] = span
        return span

    def graded_dimension(self, degree: int) -> int:
        """dim of the degree component of the (associated graded) algebra."""
        dim = 1 if degree >= 0 else 0
        for d in range(1, degree + 1):
            dim = self.n * dim - self._span(d).rank
        return dim

    def hilbert_prefix(self, maxdeg: int):
        return [self.graded_dimension(d) for d in range(maxdeg + 1)]
