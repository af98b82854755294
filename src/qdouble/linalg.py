"""Exact linear algebra over any field with Python arithmetic.

Works for ``Fraction``, ``Cyc`` and the rational function field in
``poly``; zero testing is truthiness.  Matrices are lists of lists,
vectors are lists.

``SparseSpan.reduce`` is the one elimination.  ``rref`` is its dense view,
under the order-tag rule its docstring states, and ``rank``, ``nullspace``,
``solve`` and ``inverse`` all go through ``rref``; ``same_row_space``
compares sparse rows through ``SparseSpan`` directly.

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


def rref(matrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    The rows go into a ``SparseSpan``; then each stored row, from the last
    pivot up, is reduced against the rows already reduced, which is the
    back-substitution.  The elimination never touches a zero, so the order
    tag is set here: every ``Cyc`` entry returned, zeros included, is
    promoted to the lcm of the orders of the ``Cyc`` entries of the input.
    """
    span = SparseSpan()
    for row in matrix:
        span.add(dict(enumerate(row)))
    done = SparseSpan()
    for col in sorted(span.pivots, reverse=True):
        done.pivots[col] = done.reduce(span.pivots[col])
    pivots = sorted(done.pivots)
    if not pivots:
        return [], []
    reduced = [done.pivots[p] for p in pivots]
    zero = reduced[0][pivots[0]] - reduced[0][pivots[0]]
    orders = [x.order for row in matrix for x in row if x.__class__ is Cyc]
    if orders:
        tag = lcm(*orders)
        zero = zero.promote(tag)
        reduced = [{k: v.promote(tag) for k, v in row.items()} for row in reduced]
    return [[row.get(c, zero) for c in range(len(matrix[0]))] for row in reduced], pivots


def rank(matrix) -> int:
    return len(rref(matrix)[0])


def nullspace(matrix, ncols, one, zero):
    """Basis of the right kernel of a matrix with ncols columns (column
    vectors as lists); with no rows, the standard basis."""
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def solve(matrix, ncols, rhs, zero):
    """One solution of matrix @ x = rhs in ncols unknowns, free unknowns set
    to the field's zero, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    for row in rows:
        if not any(row[:ncols]) and row[ncols]:
            return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        if pc < ncols:
            x[pc] = rows[r][ncols]
    return x


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
