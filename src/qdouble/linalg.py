"""Exact linear algebra over any field with Python arithmetic.

Works for ``Fraction``, ``Cyc`` and the rational function field in
``poly``; zero testing is truthiness.  A linear system is a list of
zero-free {column: scalar} rows, the ``SparseSpan`` row form, and a
solution is one zero-free vector in that form; dense matrices are lists of
lists.

``SparseSpan.reduce`` is the one elimination and ``_reduced`` its one
back-substitution and order-tag rule.  ``nullspace`` and ``solve`` take and
return the sparse form, with any sortable column keys, so a caller poses its
system in the keys it builds it in; ``rref`` is the dense view, which
``rank`` and ``inverse`` go through; ``same_row_space`` compares sparse rows
through ``SparseSpan`` directly.

``_addto`` and ``_accumulate`` are the one sparse accumulation rule: every
{key: scalar} map is built through them and holds no zero, so two maps are
equal exactly when they are equal dicts.  ``_columns`` is the one dense to
zero-free-columns converter, the form every G-action is checked in, and
``_apply`` the one column product.  They are private because the benchmark
tracer wraps every public function, which would cost a span a term.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import lcm

from .cyclotomic import Cyc


def _addto(d, key, coeff):
    """d[key] += coeff, deleting the key when the sum is zero."""
    prev = d.get(key)
    s = coeff if prev is None else prev + coeff
    if s:
        d[key] = s
    elif prev is not None:
        del d[key]


def _accumulate(pairs):
    """The zero-free {key: sum of coeffs} of (key, coeff) pairs."""
    out = {}
    for key, coeff in pairs:
        _addto(out, key, coeff)
    return out


def mat_mul(a, b):
    """a b: entry (i, j) sums a[i][t] b[t][j] over nonzero a[i][t], t rising;
    a zero row of a gives ``a[i][0] * 0`` entries."""
    k, m = len(b), len(b[0])
    out = []
    for ai in a:
        row = [None] * m
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    term = x * bt[j]
                    acc = row[j]
                    row[j] = term if acc is None else acc + term
        out.append(row if not m or row[0] is not None else [ai[0] * 0 for _ in range(m)])
    return out


def _columns(matrix) -> list:
    """A dense matrix as its columns: column j is the zero-free list of
    (i, matrix[i][j]), in increasing i."""
    return [[(i, row[j]) for i, row in enumerate(matrix) if row[j]] for j in range(len(matrix))]


def _apply(cols, col) -> list:
    """The matrix with columns cols applied to a column, zero-free and sorted."""
    return sorted(_accumulate((i, a * c) for k, c in col for i, a in cols[k]).items())


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(not (x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _reduced(rows):
    """The reduced echelon form of {column: scalar} rows, as {pivot: row}
    with pivots rising.

    The rows go into a ``SparseSpan``; then each stored row, from the last
    pivot up, is reduced against the rows already reduced, which is the
    back-substitution.  The elimination never touches a zero, so the order
    tag is set here: every ``Cyc`` entry returned is promoted to the lcm of
    the orders of the ``Cyc`` values of the rows, zeros included.
    """
    span = SparseSpan()
    orders = []
    for row in rows:
        orders += [x.order for x in row.values() if x.__class__ is Cyc]
        span.add(row)
    done = SparseSpan()
    for col in sorted(span.pivots, reverse=True):
        done.pivots[col] = done.reduce(span.pivots[col])
    reduced = {p: done.pivots[p] for p in sorted(done.pivots)}
    if not orders:
        return reduced
    tag = lcm(*orders)
    return {p: {k: v.promote(tag) for k, v in row.items()} for p, row in reduced.items()}


def rref(matrix):
    """Reduced row echelon form of a dense matrix; returns (rref_rows,
    pivot_columns).  Every ``Cyc`` entry returned, zeros included, carries
    the order tag of ``_reduced``."""
    reduced = _reduced(dict(enumerate(row)) for row in matrix)
    if not reduced:
        return [], []
    p, row = next(iter(reduced.items()))
    zero = row[p] - row[p]
    return [[row.get(c, zero) for c in range(len(matrix[0]))] for row in reduced.values()], list(reduced)


def rank(matrix) -> int:
    return len(rref(matrix)[0])


def nullspace(rows, columns, one):
    """Basis of the right kernel of zero-free {column: scalar} rows over the
    sortable keys ``columns``, listed rising; with no rows, the standard basis.

    One zero-free vector per free column c, in column order: ``one`` at c,
    and at each pivot p before c minus the reduced row's entry at c, under
    the order tag of ``_reduced``.
    """
    reduced = _reduced(rows)
    minus = {}  # free column -> {pivot: -entry}
    for p, row in reduced.items():
        for c, v in row.items():
            if c != p:
                minus.setdefault(c, {})[p] = -v
    return [{**minus.get(c, {}), c: one} for c in columns if c not in reduced]


def solve(rows, ncols, rhs):
    """One solution x of rows . x = rhs, for zero-free {unknown: scalar} rows
    over the unknowns 0..ncols-1 and one scalar of rhs per row, or None if
    inconsistent.  x is zero-free, so a free unknown, set to zero, is absent;
    its entries carry the order tag of ``_reduced`` on the augmented rows,
    whose column ncols holds the right-hand side."""
    reduced = _reduced([{**row, ncols: b} if b else row for row, b in zip(rows, rhs)])
    if ncols in reduced:
        return None
    return {p: row[ncols] for p, row in reduced.items() if ncols in row}


def inverse(matrix):
    n = len(matrix)
    one = next((x / x for row in matrix for x in row if x), None)
    if one is None:
        raise ZeroDivisionError("singular matrix")
    zero = one - one
    aug = [list(matrix[i]) + [one if i == j else zero for j in range(n)] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in rows[:n]]


class SparseSpan:
    """Incremental row space over a field, rows as {column_key: scalar} dicts.

    Stored rows are echelon, not reduced: each is monic at its pivot, its
    minimum key, and may be nonzero on pivot columns stored after it.
    """

    def __init__(self):
        self.pivots: dict = {}

    def reduce(self, row: dict) -> dict:
        """Clear the pivot columns of the row, smallest first.

        A subtraction may bring in pivot columns above the one it clears, so
        they wait in a heap.  The remainder's values are unique: it is zero
        on every pivot column, the stored pivots are distinct, and it differs
        from the row by a member of the span.  Its order tags are not; they
        depend on the rows subtracted.
        """
        row = {k: v for k, v in row.items() if v}
        todo = [k for k in row if k in self.pivots]
        heapify(todo)
        # not _addto: a new key that is a pivot column must join the heap
        while todo:
            col = heappop(todo)
            c = row.get(col)
            if not c:
                continue
            neg = None  # -c, negated once per row, when a new key needs it
            for k, v in self.pivots[col].items():
                if k in row:
                    row[k] -= c * v
                    if not row[k]:
                        del row[k]
                else:
                    if neg is None:
                        neg = -c
                    row[k] = neg * v
                    if k in self.pivots:
                        heappush(todo, k)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        inv = 1 / row[col]
        self.pivots[col] = {k: v * inv for k, v in row.items()}
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def same_row_space(rows_a, rows_b) -> bool:
    """Whether two lists of {column_key: scalar} rows span one space."""
    span_a, span_b = SparseSpan(), SparseSpan()
    for row in rows_a:
        span_a.add(row)
    for row in rows_b:
        span_b.add(row)
    return span_a.rank == span_b.rank and all(span_a.contains(row) for row in rows_b)
