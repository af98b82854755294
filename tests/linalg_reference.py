"""Test-side reference: ``nullspace`` and ``solve`` on dense rows, read off
``linalg.rref`` as the package did before both took zero-free sparse rows.

A kernel vector is ``one`` at its free column, minus the reduced rows'
entries at the pivots, and ``zero`` at every other free column; a solution
sets every free unknown to ``zero``.  Both carry ``rref``'s order tags.
"""

from qdouble import linalg


def nullspace(matrix, ncols, one, zero):
    """Basis of the right kernel of a dense matrix with ncols columns, one
    dense vector per free column; with no rows, the standard basis."""
    rows, pivots = linalg.rref(matrix)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def solve(matrix, ncols, rhs, zero):
    """One solution of matrix @ x = rhs in ncols unknowns as a dense list,
    free unknowns ``zero``, or None if inconsistent."""
    rows, pivots = linalg.rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x
