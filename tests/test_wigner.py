"""The Wigner construction ``reps.induced_matrices`` against the centralizer
cocycle formulas it replaced, on every block of the double of S3, S4 and C4.

Every structure on V_{C,pi} or End(V_{C,pi}) reads the induced action, so
each is compared here with its own zeta_c(g) formula from
``zeta_reference``, not with another reader of the same matrices.
"""

from itertools import product

import pytest

import zeta_reference as ref
from qdouble.braided import BlockRMatrices, lie_cpi
from qdouble.calculus import DoubleCalculus
from qdouble.cyclotomic import ONE, ZERO
from qdouble.double import build_VCpi, double_irreps
from qdouble.groups import FiniteGroup
from qdouble.reps import centralizer_character, check_homomorphism, induced_matrices, induced_rep
from qdouble.transfer import coact_E

GROUPS = {"S3": FiniteGroup.symmetric(3), "S4": FiniteGroup.symmetric(4), "C4": FiniteGroup.cyclic(4)}
BLOCKS = [(name, ctx, pi) for name, group in GROUPS.items() for ctx, pi in double_irreps(group)]
IDS = [f"{name}-{ctx.group.labels[ctx.rep]}-{pi.name}" for name, ctx, pi in BLOCKS]
# the pair (identity class, trivial irrep) defines no braided-Lie block and no calculus
NONTRIVIAL = [b for b in BLOCKS if not (b[1].rep == 0 and b[2].is_trivial())]
NONTRIVIAL_IDS = [i for b, i in zip(BLOCKS, IDS) if b in NONTRIVIAL]


def _v_labels(ctx, pi):
    return [(c, k) for c in ctx.cls for k in range(pi.dim)]


def test_the_blocks_are_all_45_irreducibles():
    assert [sum(1 for b in BLOCKS if b[0] == name) for name in GROUPS] == [8, 21, 16]


@pytest.mark.parametrize("name, ctx, pi", BLOCKS, ids=IDS)
def test_induced_matrices_are_the_zeta_action(name, ctx, pi):
    expected = ref.vcpi_action(ctx, pi)
    assert induced_matrices(ctx, pi) == expected
    assert induced_rep(ctx, pi).matrices == expected
    # V_{C,pi} stores column j of h's matrix as its nonzero entries in row
    # order, each with the order tag of the dense entry
    action = build_VCpi(ctx, pi).action
    assert [len(cols) for cols in action] == [len(m) for m in expected]
    for h, m in enumerate(induced_matrices(ctx, pi)):
        for j, col in enumerate(action[h]):
            dense = [(i, row[j]) for i, row in enumerate(m) if row[j]]
            assert [(i, c.order, c.coeffs) for i, c in col] == [(i, c.order, c.coeffs) for i, c in dense]


@pytest.mark.parametrize("name, ctx, pi", NONTRIVIAL, ids=NONTRIVIAL_IDS)
def test_end_action_and_bracket_are_the_zeta_formulas(name, ctx, pi):
    lie = lie_cpi(ctx, pi)
    group = ctx.group
    for g in range(group.n):
        for idx, (a, i, b, j) in enumerate(lie.basis):
            expected = {lie._pos[key]: c for key, c in ref.end_action(ctx, pi, g, a, i, b, j).items()}
            assert dict(lie.action[g][idx]) == expected
    # the bracket's coefficient pi(zeta_a(x))^{jj}_{ii}, x the inverse grade of
    # b^-1 |> E2 when it matches |E1||E2|
    for i, j in product(range(lie.dim), repeat=2):
        (a, ii, b, jj) = lie.basis[i]
        expected = {}
        for m, cm in lie.action[group.inv[b]][j]:
            (c2, _, d2, _) = lie.basis[m]
            grade = group.table[c2][group.inv[d2]]
            if grade == group.table[lie.grading[i]][lie.grading[j]]:
                coeff = ref.bracket_coefficient(ctx, pi, a, ii, jj, group.inv[grade])
                if coeff:
                    expected[m] = cm * coeff
        assert lie.bracket(i, j) == expected


def _rmatrix_mismatches(rm, ctx, pi):
    """Every quadruple where the stored R or Rinv (an absent key is zero)
    differs from the formulas, and every stored zero."""
    labels = _v_labels(ctx, pi)
    bad = [
        (name, *key) for name, stored in (("R", rm.R), ("Rinv", rm.Rinv)) for key, c in stored.items() if not c
    ]
    for ai, bj, ck, dl in product(labels, repeat=4):
        if rm.R.get((ai, bj, ck, dl), ZERO) != ref.R(ctx, pi, ai, bj, ck, dl):
            bad.append(("R", ai, bj, ck, dl))
        rinv = rm.Rinv.get((ai, bj, ck, dl), ZERO)
        if rinv != ref.Rinv(ctx, pi, ai, bj, ck, dl) or rinv != ref.Rhat(ctx, pi, ai, bj, ck, dl):
            bad.append(("Rinv", ai, bj, ck, dl))
    return bad


@pytest.mark.parametrize("name, ctx, pi", BLOCKS, ids=IDS)
def test_rmatrices_are_the_zeta_formulas(name, ctx, pi):
    """R and Rinv read the induced action; Rinv is also the second inverse Rhat."""
    assert _rmatrix_mismatches(BlockRMatrices(ctx, pi), ctx, pi) == []


@pytest.mark.parametrize("name, ctx, pi", NONTRIVIAL, ids=NONTRIVIAL_IDS)
def test_dual_action_of_the_calculus_is_the_zeta_formula(name, ctx, pi):
    calc = DoubleCalculus(ctx, pi)
    for h in range(ctx.group.n):
        for d, j in _v_labels(ctx, pi):
            assert calc._act_dual(h, d, j) == ref.act_dual(ctx, pi, h, d, j)


@pytest.mark.parametrize("name, ctx, pi", BLOCKS, ids=IDS)
def test_coaction_on_E_is_the_zeta_formula(name, ctx, pi):
    coaction = coact_E(ctx, pi)
    for key in _v_labels(ctx, pi):
        assert coaction(key) == ref.coact_E(ctx, pi, key)


def test_one_corrupted_induced_entry_fails_R_and_the_homomorphism_check(monkeypatch):
    """Negative control: one wrong entry of the induced action of the S3
    3-cycle block (j = 1) shows in R and fails check_homomorphism."""
    import qdouble.braided as braided

    group = GROUPS["S3"]
    ctx = next(ctx for name, ctx, _ in BLOCKS if name == "S3" and group.order_of(ctx.rep) == 3)
    pi = centralizer_character(ctx, 1)
    corrupted = induced_matrices(ctx, pi)
    # A(r) fixes (r, 0) with the nonzero coefficient pi(r)
    corrupted[ctx.rep][0][0] = corrupted[ctx.rep][0][0] + ONE
    monkeypatch.setattr(braided, "induced_matrices", lambda c, p: corrupted)
    assert _rmatrix_mismatches(BlockRMatrices(ctx, pi), ctx, pi) != []
    with pytest.raises(ValueError):
        check_homomorphism(group, corrupted, "corrupted")
