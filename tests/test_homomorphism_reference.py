"""The column check ``reps.homomorphism_failure`` against the dense check it
replaced.

``reference_check_homomorphism`` is ``reps.check_homomorphism`` as it stood
before: |G| |S| dense products M(g) M(s), compared entry by entry with
M(gs).  Both must give the same verdict and the same message, hence the
same (g, s) witness, on every catalogue irrep of S3 and S4 and of their
centralizers, on every induced representation, on the gamma and rho actions
of Lambda^1 on every S3 and S4 block, and on corrupted copies of each.
"""

import random
import re

import pytest

from qdouble import linalg
from qdouble.calculus import fodc_group_algebra, lambda_basis
from qdouble.cyclotomic import ONE, ZERO
from qdouble.double import double_irreps
from qdouble.groups import FiniteGroup
from qdouble.reps import (
    check_homomorphism,
    homomorphism_failure,
    induced_matrices,
    induced_rep,
    irrep_catalog,
)


def reference_check_homomorphism(group, matrices, name):
    dim = len(matrices[0])
    if not linalg.mat_eq(matrices[0], linalg.identity(dim, ONE, ZERO)):
        raise ValueError(f"{name}: identity does not map to the identity matrix")
    for g in range(group.n):
        for s in group.generators:
            lhs = linalg.mat_mul(matrices[g], matrices[s])
            if not linalg.mat_eq(lhs, matrices[group.table[g][s]]):
                raise ValueError(f"{name}: not a homomorphism at ({g},{s})")


def _outcome(check, group, matrices):
    try:
        check(group, matrices, "case")
    except ValueError as exc:
        return str(exc)
    return None


def _cases(degree):
    """(label, group, matrices) of every action named in the module docstring."""
    group = FiniteGroup.symmetric(degree)
    out = [(f"irrep-{rep.name}", group, rep.matrices) for rep in irrep_catalog(group)]
    for ctx, pi in double_irreps(group):
        block = f"{group.labels[ctx.rep]}-{pi.name}"
        out.append((f"centralizer-{block}", ctx.centralizer, pi.matrices))
        out.append((f"induced-{block}", group, induced_matrices(ctx, pi)))
        if ctx.rep == 0 and pi.is_trivial():
            continue
        calc = fodc_group_algebra(induced_rep(ctx, pi))
        if calc.lambda_dim:
            basis = lambda_basis(calc)
            out.append((f"gamma-{block}", group, [basis.gamma(g) for g in range(group.n)]))
            out.append((f"rho-{block}", group, [basis.rho_matrix(g) for g in range(group.n)]))
    return out


def _corruptions(matrices, rng):
    """Copies with one entry changed: +1 at the identity, +1 at another
    element, and one nonzero entry of some element set to zero."""
    dim, n = len(matrices[0]), len(matrices)
    out = []
    for h, change in ((0, "add"), (rng.randrange(1, n), "add"), (rng.randrange(n), "zero")):
        bad = [[list(row) for row in m] for m in matrices]
        if change == "add":
            i, j = rng.randrange(dim), rng.randrange(dim)
            bad[h][i][j] = bad[h][i][j] + ONE
        else:
            i, j = rng.choice([(i, j) for i in range(dim) for j in range(dim) if bad[h][i][j]])
            bad[h][i][j] = bad[h][i][j] * 0
        out.append(bad)
    return out


@pytest.mark.parametrize("degree", [3, 4])
def test_column_check_agrees_with_the_dense_reference(degree):
    cases = _cases(degree)
    assert {label.split("-")[0] for label, _, _ in cases} == {"irrep", "centralizer", "induced", "gamma", "rho"}
    rng = random.Random(degree)
    for label, group, matrices in cases:
        assert _outcome(check_homomorphism, group, matrices) is None, label
        assert _outcome(reference_check_homomorphism, group, matrices) is None, label
        for bad in _corruptions(matrices, rng):
            want = _outcome(reference_check_homomorphism, group, bad)
            assert want is not None, label
            assert _outcome(check_homomorphism, group, bad) == want, label


def test_witness_names_the_first_failing_column():
    """The (g, s, j) witness: column j of g s differs from g applied to column
    j of s, and (g, s) is the pair the dense reference names first; a
    column j that e does not fix is named (0, None, j)."""
    group = FiniteGroup.symmetric(3)
    rep = next(r for r in irrep_catalog(group) if r.dim == 2)
    bad = [[list(row) for row in m] for m in rep.matrices]
    s = group.generators[-1]
    bad[s][1][0] = bad[s][1][0] + ONE
    action = [linalg._columns(m) for m in bad]
    g, t, j = homomorphism_failure(group, action)
    assert t in group.generators
    lhs = linalg.mat_mul(bad[g], bad[t])
    assert [row[j] for row in lhs] != [row[j] for row in bad[group.table[g][t]]]
    message = _outcome(reference_check_homomorphism, group, bad)
    assert tuple(map(int, re.search(r"\((\d+),(\d+)\)", message).groups())) == (g, t)
    bad[0][0][0] = bad[0][0][0] * 0
    assert homomorphism_failure(group, [linalg._columns(m) for m in bad]) == (0, None, 0)
