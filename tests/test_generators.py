"""Checks on a generating set against full-group oracles.

Every "for all g" verification in the package loops over
``FiniteGroup.generators``.  Here each such check is compared with the
plain |G|^2 or |G|^3 loop, on the catalogue data and on seeded corruptions
of one entry: both must accept and reject the same inputs.
"""

import random

import pytest

from qdouble.calculus import GroupAlgebraCalculus, lambda_basis
from qdouble.cyclotomic import Cyc
from qdouble.double import CrossedModule, build_VCpi, double_irreps
from qdouble.groups import FiniteGroup, class_context, parse_cycles
from qdouble.reps import Rep, induced_rep, irrep_catalog
import qdouble.linalg as la

ONE = Cyc.rational(1)
ZERO = Cyc.rational(0)

GROUPS = {
    "S3": FiniteGroup.s3_with_uvw_labels,
    "S4": lambda: FiniteGroup.symmetric(4),
    "D4": lambda: FiniteGroup.from_generators([[[1, 2, 3, 4]], [[1, 3]]]),
    "C4": lambda: FiniteGroup.cyclic(4),
}

# a loop of order 5: identity 0, every element its own inverse, and
# 1 (1 2) = 4 while (1 1) 2 = 2
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


@pytest.fixture(scope="module", params=sorted(GROUPS))
def group(request):
    return GROUPS[request.param]()


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


def _full_homomorphism(group, mats) -> bool:
    if not la.mat_eq(mats[0], la.identity(len(mats[0]), ONE, ZERO)):
        return False
    return all(
        la.mat_eq(la.mat_mul(mats[a], mats[b]), mats[group.table[a][b]])
        for a in range(group.n)
        for b in range(group.n)
    )


def _dense(columns):
    """The dense matrices of an action stored as columns (action[h][j] lists
    the nonzero (i, coeff) of column j of h's matrix)."""
    out = []
    for cols in columns:
        m = [[ZERO] * len(cols) for _ in cols]
        for j, col in enumerate(cols):
            for i, c in col:
                m[i][j] = c
        out.append(m)
    return out


def _columns(mats):
    """Dense matrices as the zero-free columns a CrossedModule stores."""
    return [[[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(len(m))] for m in mats]


def _full_module(group, action, grading) -> bool:
    """The all-pairs oracle on the dense matrices of the action."""
    if not _full_homomorphism(group, action):
        return False
    return all(
        not action[h][i][j] or grading[i] == group.conj(h, grading[j])
        for h in range(group.n)
        for i in range(len(grading))
        for j in range(len(grading))
    )


def _full_table(table) -> bool:
    n = len(table)
    inv = [row.index(0) for row in table]
    if any(table[0][i] != i or table[i][0] != i for i in range(n)):
        return False
    if any(table[inv[i]][i] != 0 for i in range(n)):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def _corrupt(mats, rng):
    """Copy of the matrices with one entry of one matrix changed."""
    out = [[list(row) for row in m] for m in mats]
    g = rng.randrange(len(out))
    i, j = rng.randrange(len(out[g])), rng.randrange(len(out[g]))
    out[g][i][j] = out[g][i][j] + ONE
    return out


def test_generators_generate(group):
    assert group.subgroup_generated(group.generators) == list(range(group.n))
    for cls_ in group.conjugacy_classes():
        sub = class_context(group, cls_[0]).centralizer
        assert sub.subgroup_generated(sub.generators) == list(range(sub.n))


def test_generators_are_greedy_and_minimal_in_order(group):
    gens = group.generators
    assert list(gens) == sorted(gens) and 0 not in gens
    for k, g in enumerate(gens):
        assert g not in group.subgroup_generated(gens[:k])


def test_rep_check_matches_full_loop(group):
    rng = random.Random(group.n)
    for rep in irrep_catalog(group):
        assert _full_homomorphism(group, rep.matrices)
        for _ in range(4):
            bad = _corrupt(rep.matrices, rng)
            assert _accepts(lambda: Rep(group, bad)) == _full_homomorphism(group, bad)


def test_rep_check_catches_a_corrupted_non_generator(group):
    rep = irrep_catalog(group)[-1]
    others = [g for g in range(1, group.n) if g not in group.generators]
    for g in others:
        bad = [[list(row) for row in m] for m in rep.matrices]
        bad[g][0][0] = bad[g][0][0] + ONE
        assert not _accepts(lambda: Rep(group, bad))
        assert not _full_homomorphism(group, bad)


def test_crossed_module_check_matches_full_loop(group):
    rng = random.Random(100 + group.n)
    pairs = double_irreps(group)
    if group.n > 8:
        # one module per class keeps the |G|^2 oracle short on S4
        pairs = list({ctx.rep: (ctx, pi) for ctx, pi in pairs}.values())
    for ctx, pi in pairs:
        module = build_VCpi(ctx, pi)
        dense = _dense(module.action)
        assert _columns(dense) == module.action
        assert _full_module(group, dense, module.grading)
        bad = _corrupt(dense, rng)
        assert _accepts(
            lambda: CrossedModule(group, module.basis, _columns(bad), module.grading)
        ) == _full_module(group, bad, module.grading)
        grading = list(module.grading)
        grading[rng.randrange(len(grading))] = rng.randrange(group.n)
        assert _accepts(
            lambda: CrossedModule(group, module.basis, module.action, grading)
        ) == _full_module(group, dense, grading)


def test_associativity_check_matches_full_loop(group):
    rng = random.Random(200 + group.n)
    assert _accepts(lambda: FiniteGroup(group.table))
    for _ in range(6):
        table = [list(row) for row in group.table]
        a = rng.randrange(1, group.n)
        b = rng.choice([x for x in range(1, group.n) if x != group.inv[a]])
        table[a][b] = rng.choice([x for x in range(1, group.n) if x != table[a][b]])
        assert _accepts(lambda: FiniteGroup(table)) == _full_table(table)


def test_non_associative_loop_rejected():
    assert not _full_table(LOOP5)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(LOOP5)


def test_light_test_runs_past_an_associative_generator():
    # C2 x LOOP5, (i, j) at index 2 j + i: the first greedy generator, index 1
    # = (1, 0), associates with everything, so only a later generator fails
    table = [
        [2 * LOOP5[j][l] + (i ^ k) for l in range(5) for k in range(2)]
        for j in range(5)
        for i in range(2)
    ]
    assert all(table[table[a][1]][c] == table[a][table[1][c]] for a in range(10) for c in range(10))
    assert not _full_table(table)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(table)


def test_cocycle_identity_holds_on_the_whole_group(group):
    for cls_ in group.conjugacy_classes():
        ctx = class_context(group, cls_[0])
        for c in ctx.cls:
            for g in range(group.n):
                for h in range(group.n):
                    rhs = group.table[ctx.zeta[group.conj(h, c)][g]][ctx.zeta[c][h]]
                    assert ctx.zeta[c][group.table[g][h]] == rhs


def test_is_abelian_matches_all_pairs(group):
    full = all(group.table[a][b] == group.table[b][a] for a in range(group.n) for b in range(group.n))
    assert group.is_abelian() == full


def test_real_orthogonal_matches_all_elements(group):
    for rep in irrep_catalog(group):
        ident = la.identity(rep.dim, ONE, ZERO)
        full = all(x.conj() == x for m in rep.matrices for row in m for x in row) and all(
            la.mat_eq(la.mat_mul(m, la.transpose(m)), ident) for m in rep.matrices
        )
        assert rep.is_real_orthogonal() == full


def test_inner_element_and_gamma_rho_hold_on_the_whole_group():
    s3 = GROUPS["S3"]()
    for ctx, pi in double_irreps(s3):
        calc = GroupAlgebraCalculus(induced_rep(ctx, pi))
        inner, theta = calc.is_inner()
        if inner:
            for g in range(s3.n):
                rho = calc.rho.matrices[g]
                lhs = la.mat_mul(theta, rho)
                assert all(
                    lhs[i][j] - theta[i][j] == calc.e_matrices[g][i][j]
                    for i in range(calc.rho.dim)
                    for j in range(calc.rho.dim)
                )
        if calc.lambda_dim:
            lb = lambda_basis(calc)
            assert lb.gamma_rho_commutation_holds()
            for g in range(s3.n):
                for k in range(s3.n):
                    lhs = la.mat_mul(lb.gamma(g), lb.rho_matrix(k))
                    rhs = la.mat_mul(lb.rho_matrix(k), lb.gamma(s3.conj(s3.inv[k], g)))
                    assert la.mat_eq(lhs, rhs)


def test_trivial_group_has_no_generators():
    one = FiniteGroup.from_generators([parse_cycles([[1]], 2)])
    assert one.n == 1 and one.generators == ()
    assert Rep(one, [[[ONE]]]).is_trivial()
