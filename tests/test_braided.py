import functools
import re
from fractions import Fraction
from itertools import product

import pytest

import braided_reference as braided_ref
from qdouble.cyclotomic import cyc
from qdouble.reps import centralizer_character
from qdouble.double import CrossedModule, DoubleElement
from qdouble.groups import FiniteGroup, class_context, orbit_representatives
from qdouble.braided import (
    lie_cpi,
    BlockBraidedLie,
    RegularBraidedLie,
    psit_via_rmatrix,
    BlockRMatrices,
    envelope,
    frt,
    covering_map_image,
    inclusion_element,
    killing_form,
    killing_trace_oracle,
    quotient_hopf,
    braided_antipode_preserves_relations,
    bdg_braided_checks,
)
from qdouble.quadalg import QuadAlg
from qdouble.regression import S3Data
import qdouble.linalg as la

ZERO, ONE = cyc(0), cyc(1)


@pytest.fixture(scope="module")
def data():
    return S3Data.get()


def test_printed_fundamental_braiding_case_ii(data):
    q = data.q
    for j in (0, 1, 2):
        lie = lie_cpi(data.ctx2, data.pi[j])
        for a in data.ctx2.cls:
            for b in data.ctx2.cls:
                for c in data.ctx2.cls:
                    for dd in data.ctx2.cls:
                        i1 = lie.index_of(0, a, 0, b, 0)
                        i2 = lie.index_of(0, c, 0, dd, 0)
                        coeff = q ** (j * ((a == c) + (b == c) - (a == dd) - (b == dd)))
                        assert lie.psit(i1, i2) == {(i2, i1): coeff}


def test_bracket_simplification_c_equals_d(data):
    G = data.G
    for ctx in (data.ctx2, data.ctx3):
        lie = lie_cpi(ctx, centralizer_character(ctx, 1))
        for a in ctx.cls:
            for b in ctx.cls:
                for c in ctx.cls:
                    got = lie.bracket(lie.index_of(0, a, 0, b, 0), lie.index_of(0, c, 0, c, 0))
                    if a == b:
                        tgt = G.conj(G.inv[b], c)
                        assert got == {lie.index_of(0, tgt, 0, tgt, 0): ONE}
                    else:
                        assert got == {}


def test_point_class_is_trivial_braided_algebra(data):
    from qdouble.double import centralizer_irreps

    two = [p for p in centralizer_irreps(data.ctx1) if p.dim == 2][0]
    lie = lie_cpi(data.ctx1, two)
    # flip braiding and bracket [E_i^j, E_k^l] = delta_i^j E_k^l
    for i1 in range(lie.dim):
        for i2 in range(lie.dim):
            assert lie.psit(i1, i2) == {(i2, i1): ONE}
            (_, a, i, b, j) = lie.basis[i1]
            expected = {i2: ONE} if i == j else {}
            assert lie.bracket(i1, i2) == expected


def test_axioms_all_s3_blocks(data):
    from qdouble.double import centralizer_irreps

    for ctx in (data.ctx1, data.ctx2, data.ctx3):
        for pi in centralizer_irreps(ctx):
            if ctx.rep == 0 and pi.dim == 1 and all(m[0][0] == ONE for m in pi.matrices):
                continue
            lie = lie_cpi(ctx, pi)
            assert lie.check_L1()
            assert lie.check_L2()
            assert lie.check_L3()
            assert lie.check_L4()
            assert lie.check_braid_relation()
            assert lie.is_regular()


def test_axiom_negative_control(data):
    lie = lie_cpi(data.ctx2, data.pi[1])
    # corrupt one bracket value
    key = next(k for k in ((i, j) for i in range(4) for j in range(4)) if lie.bracket(*k))
    lie._bracket_cache[key] = {k: v * cyc(2) for k, v in lie.bracket(*key).items()}
    lie._psit_cache.clear()
    assert not (lie.check_L1() and lie.check_L2() and lie.check_L3())
    assert not all(lie.axioms().values())


@pytest.mark.parametrize("block", ["case_ii_3_cycle", "point_class_two_dim"])
def test_regularity_negative_control(data, block):
    """Two basis pairs sent to the same target make the braiding singular."""
    from qdouble.double import centralizer_irreps

    if block == "case_ii_3_cycle":
        lie = lie_cpi(data.ctx2, data.pi[1])
    else:
        lie = lie_cpi(data.ctx1, next(p for p in centralizer_irreps(data.ctx1) if p.dim == 2))
    assert lie.is_regular()
    pairs = [(i, j) for i in range(lie.dim) for j in range(lie.dim)]
    lie._psit_cache[pairs[0]] = dict(lie.psit(*pairs[1]))
    assert not lie.is_regular()
    assert lie.axioms()["regular"] is False


# -- exhaustive references for the orbit decision ---------------------------------


def _L1_rhs(lie, x, y, z):
    """[[x1, y'], [x2', z]] with Psi between x2 and y."""
    rhs = {}
    for (x1, x2, c1) in lie.coproduct[x]:
        for ((yy, xx2), c2) in lie.psi(x2, y):
            for a, ca in lie.bracket(x1, yy).items():
                for b, cb in lie.bracket(xx2, z).items():
                    for l, cl in lie.bracket(a, b).items():
                        la._addto(rhs, l, c1 * c2 * ca * cb * cl)
    return rhs


def _reference_L1(lie):
    return all(
        lie._nested(x, y, z) == _L1_rhs(lie, x, y, z)
        for x in range(lie.dim)
        for y in range(lie.dim)
        for z in range(lie.dim)
    )


def _reference_L2(lie):
    for x in range(lie.dim):
        for y in range(lie.dim):
            for z in range(lie.dim):
                rhs = {}
                for (a, b), c in lie.psit(x, y).items():
                    for l, c2 in lie._nested(a, b, z).items():
                        la._addto(rhs, l, c * c2)
                if lie._nested(x, y, z) != rhs:
                    return False
    return True


def _reference_L3(lie):
    for x in range(lie.dim):
        for y in range(lie.dim):
            lhs = {}
            eps = ZERO
            for k, c in lie.bracket(x, y).items():
                for (a, b, c2) in lie.coproduct[k]:
                    la._addto(lhs, (a, b), c * c2)
                eps = eps + c * lie.counit[k]
            rhs = {}
            for (x1, x2, c1) in lie.coproduct[x]:
                for (y1, y2, c2) in lie.coproduct[y]:
                    for ((yy1, xx2), c3) in lie.psi(x2, y1):
                        for a, ca in lie.bracket(x1, yy1).items():
                            for b, cb in lie.bracket(xx2, y2).items():
                                la._addto(rhs, (a, b), c1 * c2 * c3 * ca * cb)
            if lhs != rhs or eps != lie.counit[x] * lie.counit[y]:
                return False
    return True


def _reference_braid(psi, n):
    """psi_12 psi_23 psi_12 = psi_23 psi_12 psi_23, tabulating A = psi_12 psi_23
    for one last index k at a time, since psi_12 keeps it."""
    for k in range(n):
        composed = {}
        for i in range(n):
            for j in range(n):
                out = composed[i, j] = {}
                for (a, b), c in psi(j, k).items():
                    for (x, y), c2 in psi(i, a).items():
                        la._addto(out, (x, y, b), c * c2)
        for (i, j), image in composed.items():
            lhs = {}
            for (a, b), c in psi(i, j).items():
                for t, c2 in composed[a, b].items():
                    la._addto(lhs, t, c * c2)
            rhs = {}
            for (x, y, z), c in image.items():
                for (a, b), c2 in psi(y, z).items():
                    la._addto(rhs, (x, a, b), c * c2)
            if lhs != rhs:
                return False
    return True


def _reference_axioms(lie):
    return {
        "L1": _reference_L1(lie),
        "L2": _reference_L2(lie),
        "L3": _reference_L3(lie),
        "L4": lie.check_L4(),
        "braid_relation": _reference_braid(lie.psit, lie.dim),
        "regular": lie.is_regular(),
    }


def _s4_blocks():
    """The S4 4-cycle block with j = 1 and the two 2-cycle blocks of criterion 11."""
    from qdouble.groups import FiniteGroup, class_context
    from qdouble.reps import abelian_characters

    S4 = FiniteGroup.symmetric(4)
    four = class_context(S4, "s1s2s3")
    two = class_context(S4, S4.element("s3"))
    s1 = two.centralizer.position[S4.element("s1")]
    pis = [p for p in abelian_characters(two.centralizer) if p.matrices[s1][0][0] == ONE]
    assert len(pis) == 2
    return [(four, centralizer_character(four, 1))] + [(two, p) for p in pis]


def _s4_dihedral_block():
    """The S4 double-transposition block with the 2-dim irrep ``dihedral2``
    of its centralizer, the dihedral group of order 8."""
    from qdouble.reps import dihedral_two_dim

    S4 = FiniteGroup.symmetric(4)
    ctx = class_context(S4, "s1s3")
    return ctx, dihedral_two_dim(ctx.centralizer)


def test_orbit_decision_matches_exhaustive_reference(data):
    """axioms() on orbit representatives equals the exhaustive loops on every
    S3 block and on the S4 blocks, whose monomial actions take the orbit path.
    The path follows the action, not dim pi: the S3 2-dim point block is not
    monomial, while the S4 ``dihedral2`` block is."""
    from qdouble.double import centralizer_irreps

    blocks = [
        (ctx, pi)
        for ctx in (data.ctx1, data.ctx2, data.ctx3)
        for pi in centralizer_irreps(ctx)
        if not (ctx.rep == 0 and pi.is_trivial())
    ]
    dihedral = _s4_dihedral_block()
    for ctx, pi in blocks + _s4_blocks() + [dihedral]:
        lie = lie_cpi(ctx, pi)
        assert lie.axioms() == _reference_axioms(lie_cpi(ctx, pi)), (ctx.rep, pi.name)
    s3_two = next(pi for pi in centralizer_irreps(data.ctx1) if pi.dim == 2)
    assert lie_cpi(data.ctx1, s3_two)._orbit_perms() == ()
    assert lie_cpi(*dihedral)._orbit_perms()


def test_orbit_representatives_equal_the_flood_fill_reference():
    """On all 27 nontrivial S3 and S4 blocks, at arity 2 and 3, the stabiliser
    chain over the image group gives the tuples of the flood fill over the
    generators' permutations, in the same order."""
    blocks = _nontrivial_blocks("S3") + _nontrivial_blocks("S4")
    assert len(blocks) == 27
    for ctx, pi in blocks:
        lie = lie_cpi(ctx, pi)
        for arity in (2, 3):
            reference = list(braided_ref.orbits(lie.dim, arity, lie._orbit_perms()))
            assert lie._orbit_representatives(arity) == reference, (ctx.rep, pi.name, arity)


def test_orbit_representatives_see_a_permutation_outside_the_group():
    """Negative control: a transposition of two basis indices that the image
    group does not contain merges orbits, so the representatives move."""
    ctx, pi = _s4_blocks()[0]
    lie = lie_cpi(ctx, pi)
    perms = [[col[0][0] for col in cols] for cols in lie.action]  # the image group
    swap = list(range(lie.dim))
    swap[0], swap[1] = 1, 0
    assert swap not in perms
    for arity in (2, 3):
        reference = list(braided_ref.orbits(lie.dim, arity, lie._orbit_perms()))
        assert list(orbit_representatives(lie.dim, arity, perms)) == reference
        assert list(orbit_representatives(lie.dim, arity, perms + [swap])) != reference


def test_orbit_representatives_partition_the_tuples():
    """On the S4 4-cycle block: 1,968 triple orbits and 60 pair orbits, each
    representative the least tuple of its orbit, the orbits disjoint and
    their sizes summing to dim^3 and dim^2."""
    ctx, pi = _s4_blocks()[0]
    lie = lie_cpi(ctx, pi)
    perms = lie._orbit_perms()
    assert len(perms) == len(ctx.group.generators)
    for arity, count in ((3, 1968), (2, 60)):
        reps = lie._orbit_representatives(arity)
        sizes = []
        covered = set()
        for rep in reps:
            orbit = {rep}
            frontier = [rep]
            while frontier:
                t = frontier.pop()
                for p in perms:
                    image = tuple(p[i] for i in t)
                    if image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            assert rep == min(orbit) and covered.isdisjoint(orbit)
            covered |= orbit
            sizes.append(len(orbit))
        assert len(reps) == count
        assert sum(sizes) == len(covered) == lie.dim**arity


def test_corrupted_bracket_outside_the_representatives_fails_the_precondition(data):
    """One bracket value doubled at a pair off the representatives, before the
    premise is decided, breaks the bracket's equivariance: the orbit path is
    refused and the exhaustive path gives the reference verdicts."""
    reps = set(lie_cpi(data.ctx2, data.pi[1])._orbit_representatives(2))
    lie = lie_cpi(data.ctx2, data.pi[1])
    key = next(
        (i, j) for i in range(lie.dim) for j in range(lie.dim) if (i, j) not in reps and lie.bracket(i, j)
    )
    lie._bracket_cache[key] = {k: v * cyc(2) for k, v in lie.bracket(*key).items()}
    assert lie._orbit_perms() == ()
    verdicts = lie.axioms()
    assert verdicts == _reference_axioms(lie)
    assert not all(verdicts.values())


def _corrupt(lie, part):
    if part == "action":  # no longer a permutation
        s = lie.group.generators[0]
        lie.action[s] = [lie.action[s][1]] + lie.action[s][1:]
    elif part == "counit":
        lie.counit[0] = lie.counit[0] + ONE
    else:
        lie.coproduct[0] = lie.coproduct[0][:-1]


@pytest.mark.parametrize("part", ["action", "counit", "coproduct"])
def test_corrupted_structure_takes_the_exhaustive_path(data, part):
    lie = lie_cpi(data.ctx2, data.pi[1])
    _corrupt(lie, part)
    assert lie._orbit_perms() == ()
    assert lie.axioms() == _reference_axioms(lie)


def test_orbit_premise_agrees_with_the_full_reference(data):
    """For every generator, the premise the verified crossed module leaves
    open (a monomial action with an equivariant counit, coproduct and
    bracket) gives the permutation of the full premise, which also checks
    bijectivity and compares Psi and PsiT, and None exactly where it does: on
    the 27 nontrivial S3 and S4 blocks, S4 ``dihedral2`` among them, the
    regular algebra on S3 and each corrupted block."""
    blocks = _nontrivial_blocks("S3") + _nontrivial_blocks("S4")
    assert len(blocks) == 27
    lies = [lie_cpi(ctx, pi) for ctx, pi in blocks] + [RegularBraidedLie(data.G)]
    for part in ("action", "counit", "coproduct"):
        lie = lie_cpi(data.ctx2, data.pi[1])
        _corrupt(lie, part)
        lies.append(lie)
    orbit_path = []
    for lie in lies:
        for s in lie.group.generators:
            assert lie._equivariant_perm(s) == braided_ref.equivariant_perm(lie, s), (lie.basis[0], s)
        orbit_path.append(bool(lie._orbit_perms()))
    dihedral = next(k for k, (ctx, pi) in enumerate(blocks) if pi.name == "dihedral2")
    assert orbit_path[dihedral] and orbit_path[27]  # and the regular algebra
    assert not all(orbit_path[:27])  # the S3 point block with dim pi = 2
    assert orbit_path[28:] == [False] * 3


def _four_cycle_block():
    S4 = FiniteGroup.symmetric(4)
    ctx = class_context(S4, "s1s2s3")
    return ctx, centralizer_character(ctx, 1)


def _dense(cols):
    m = [[ZERO] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, c in col:
            m[i][j] = c
    return m


def _is_witness(message, group, action, grading) -> bool:
    """Whether the (g, s, j) or (h, j) a rejection names is a generator
    position where the dense action breaks the homomorphism or the grading."""
    hom = re.fullmatch(r"action: not a homomorphism at \((\d+),(\d+),(\d+)\)", message)
    if hom:
        g, s, j = map(int, hom.groups())
        mg, ms, mgs = _dense(action[g]), _dense(action[s]), _dense(action[group.table[g][s]])
        column = [sum((mg[i][k] * ms[k][j] for k in range(len(ms))), ZERO) for i in range(len(mg))]
        return s in group.generators and column != [row[j] for row in mgs]
    grade = re.fullmatch(r"action does not intertwine the grading at \((\d+),(\d+)\)", message)
    if grade:
        h, j = map(int, grade.groups())
        target = group.conj(h, grading[j])
        return h in group.generators and any(grading[i] != target for i, _ in action[h][j])
    return False


@pytest.mark.parametrize("part", ["coefficient", "grade"])
@pytest.mark.parametrize("block", ["S3-uv", "S4-s1s2s3"])
def test_corrupted_block_module_is_refused_with_its_witness(data, monkeypatch, block, part):
    """A BlockBraidedLie whose End(V) action has one column coefficient
    doubled, or whose grading has one grade moved, is refused when it is
    built, and the message names a failing position."""
    ctx, pi = (data.ctx2, data.pi[1]) if block == "S3-uv" else _four_cycle_block()
    group = ctx.group
    h = max(set(range(1, group.n)) - set(group.generators))
    seen = {}
    build = CrossedModule.__init__

    def corrupted(self, group_, basis, action, grading):
        action = [[list(col) for col in cols] for cols in action]
        grading = list(grading)
        if part == "coefficient":
            i, c = action[h][0][0]
            action[h][0][0] = (i, c + c)
        else:
            grading[0] = group.table[grading[0]][1]
        seen.update(action=action, grading=grading)
        build(self, group_, basis, action, grading)

    lie_cpi(ctx, pi)  # the uncorrupted block is accepted
    monkeypatch.setattr(CrossedModule, "__init__", corrupted)
    with pytest.raises(ValueError) as err:
        lie_cpi(ctx, pi)
    assert _is_witness(str(err.value), group, seen["action"], seen["grading"]), str(err.value)


def test_two_dimensional_point_class_takes_the_exhaustive_path(data):
    from qdouble.double import centralizer_irreps

    two = next(p for p in centralizer_irreps(data.ctx1) if p.dim == 2)
    lie = lie_cpi(data.ctx1, two)
    assert lie._orbit_perms() == ()
    assert all(lie.axioms().values())


def _coassociative(lie) -> bool:
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every basis vector."""
    for x in range(lie.dim):
        left, right = {}, {}
        for (a, b, c) in lie.coproduct[x]:
            for (a1, a2, c2) in lie.coproduct[a]:
                la._addto(left, (a1, a2, b), c * c2)
            for (b1, b2, c2) in lie.coproduct[b]:
                la._addto(right, (a, b1, b2), c * c2)
        if left != right:
            return False
    return True


def test_every_block_coproduct_is_coassociative(data):
    """axioms() does not decide coassociativity, so it is checked here on
    every S3 block and on the S4 4-cycle block."""
    from qdouble.double import centralizer_irreps

    blocks = [
        (ctx, pi)
        for ctx in (data.ctx1, data.ctx2, data.ctx3)
        for pi in centralizer_irreps(ctx)
        if not (ctx.rep == 0 and pi.is_trivial())
    ]
    for ctx, pi in blocks + _s4_blocks()[:1]:
        assert _coassociative(lie_cpi(ctx, pi)), (ctx.rep, pi.name)


def test_dropped_coproduct_term_breaks_coassociativity(data):
    """The corruption that leaves every verdict of axioms() True."""
    lie = lie_cpi(data.ctx2, data.pi[1])
    _corrupt(lie, "coproduct")
    assert all(lie.axioms().values())
    assert not _coassociative(lie)


def _with_doubled_bracket(ctx, pi):
    """The block's algebra with its first nonzero bracket value doubled."""
    lie = lie_cpi(ctx, pi)
    key = next(k for k in ((i, j) for i in range(lie.dim) for j in range(lie.dim)) if lie.bracket(*k))
    lie._bracket_cache[key] = {k: v * cyc(2) for k, v in lie.bracket(*key).items()}
    return lie


def test_witness_names_a_failing_triple(data):
    """With one bracket value corrupted, the L1 witness is a triple on which
    the two sides, recomputed here, differ."""
    lie = _with_doubled_bracket(data.ctx2, data.pi[1])
    assert not lie.check_L1()
    axiom, (x, y, z), lhs, rhs = lie._first_failure("L1")
    assert axiom == "L1" and lhs != rhs
    assert (lhs, rhs) == (lie._nested(x, y, z), _L1_rhs(lie, x, y, z))
    assert lie._first_failure("L4") is None  # no unit


def test_cli_writes_the_witness_of_a_failed_axiom(monkeypatch, capsys):
    import json
    from qdouble import braided, cli

    # cmd_braided imports lie_cpi from its home module when it runs
    monkeypatch.setattr(braided, "lie_cpi", _with_doubled_bracket)
    assert cli.main(["braided"]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert sorted(report) == ["axioms", "dimension", "image", "subcommand"]
    failed = [name for name, ok in report["axioms"].items() if not ok]
    assert "L1" in failed
    witnesses = err.splitlines()
    assert [w.split()[1] for w in witnesses] == [n for n in failed if n != "regular"]
    assert witnesses[0].startswith("witness: L1 fails at (")


def test_action_table_is_conjugation_of_matrix_units(data):
    """lie.action[g][idx] = rho(g) E rho(g^-1) for E = |a,i><b,j| in V_{C,pi},
    on every non-trivial S3 block and the S4 4-cycle block, with rho the
    zeta_c(g) formula of the test-side reference, not the package's own
    induced matrices."""
    from qdouble.double import centralizer_irreps
    from qdouble.groups import FiniteGroup, class_context
    from zeta_reference import vcpi_action

    blocks = [
        (ctx, pi)
        for ctx in (data.ctx1, data.ctx2, data.ctx3)
        for pi in centralizer_irreps(ctx)
        if not (ctx.rep == 0 and pi.is_trivial())
    ]
    S4 = FiniteGroup.symmetric(4)
    ctx4 = class_context(S4, "s1s2s3")
    blocks.append((ctx4, centralizer_character(ctx4, 1)))
    for ctx, pi in blocks:
        lie = lie_cpi(ctx, pi)
        G = ctx.group
        rho = vcpi_action(ctx, pi)
        pos = {c: k for k, c in enumerate(ctx.cls)}
        dim = len(rho[0])
        for g in range(G.n):
            for idx, (_, a, i, b, j) in enumerate(lie.basis):
                # rho(g) |r><s| rho(g^-1) has entries rho(g)[x][r] rho(g^-1)[s][y]
                r, s = pos[a] * pi.dim + i, pos[b] * pi.dim + j
                expected = {}
                for x in range(dim):
                    for y in range(dim):
                        coeff = rho[g][x][r] * rho[G.inv[g]][s][y]
                        if coeff:
                            (a2, k), (b2, l) = divmod(x, pi.dim), divmod(y, pi.dim)
                            expected[lie.index_of(0, ctx.cls[a2], k, ctx.cls[b2], l)] = coeff
                assert dict(lie.action[g][idx]) == expected


def test_regular_braided_lie_on_double(data):
    lie = RegularBraidedLie(data.G)
    assert lie.check_L3()
    assert lie.check_L4()
    assert lie.is_regular()
    # bracket with a trivially graded first argument reduces to the action
    G = data.G
    for v in range(G.n):
        i = lie._posgh[(0, v)]
        for (g, h) in ((data.u, data.v), (data.uv, data.w)):
            j = lie._posgh[(g, h)]
            moved = (G.conj(v, g), G.conj(v, h))
            grade = G.commutator(G.inv[moved[0]], moved[1])
            expected = {lie._posgh[moved]: ONE} if grade == 0 else {}
            assert lie.bracket(i, j) == expected


def test_bdg_braided_structure(data):
    results = bdg_braided_checks(data.G)
    assert all(results.values()), results


def test_rmatrix_identities_all_blocks(data):
    from qdouble.double import centralizer_irreps

    for ctx in (data.ctx2, data.ctx3):
        for pi in centralizer_irreps(ctx):
            rm = BlockRMatrices((ctx, pi), (ctx, pi))
            assert rm.yang_baxter_holds()
            assert rm.second_inverse_holds()


def test_one_removed_r_entry_fails_the_second_inverse_and_the_route(data, monkeypatch):
    """Negative control: without one stored R entry the second-inverse
    identities fail and the R-matrix route leaves the direct braiding."""
    import qdouble.braided as braided

    block = (data.ctx2, data.pi[1])
    rm = BlockRMatrices(block, block)
    key = next(iter(rm.R))
    assert rm.second_inverse_holds()
    del rm.R[key]
    assert not rm.second_inverse_holds()

    class Dropped(BlockRMatrices):
        def __init__(self, block1, block2):
            super().__init__(block1, block2)
            del self.R[key]

    monkeypatch.setattr(braided, "BlockRMatrices", Dropped)
    lie = lie_cpi(*block)
    rt = psit_via_rmatrix(lie, 0, 0)
    assert any(rt[(i, j)] != lie.psit(i, j) for i in range(lie.dim) for j in range(lie.dim))


def test_route_agreement_direct_sum(data):
    lie = BlockBraidedLie([(data.ctx2, data.pi[1]), (data.ctx2, data.pi[2])])
    assert lie.dim == 8
    for t1 in (0, 1):
        for t2 in (0, 1):
            rt = psit_via_rmatrix(lie, t1, t2)
            for key, vec in rt.items():
                assert vec == lie.psit(*key)


@pytest.mark.parametrize("group", ["S3", "S4", "C4"])
def test_rmatrix_route_equals_the_direct_braiding_on_every_block(group):
    """psit_via_rmatrix = psit on every non-trivial block.  The first factor
    Rhat^j_v{}^s_k of the contraction has s = a^-1 k a for j = (a, i); the
    S4 3- and 4-cycle blocks are the ones where that differs from a k a^-1."""
    from qdouble.double import double_irreps
    from qdouble.groups import FiniteGroup

    G = {"S3": FiniteGroup.symmetric(3), "S4": FiniteGroup.symmetric(4), "C4": FiniteGroup.cyclic(4)}[group]
    for ctx, pi in double_irreps(G):
        if ctx.rep == 0 and pi.is_trivial():
            continue
        lie = lie_cpi(ctx, pi)
        rt = psit_via_rmatrix(lie, 0, 0)
        assert all(rt[(i, j)] == lie.psit(i, j) for i in range(lie.dim) for j in range(lie.dim))


def test_direct_sum_axioms(data):
    lie = BlockBraidedLie([(data.ctx2, data.pi[1]), (data.ctx2, data.pi[2])])
    assert lie.check_L3()
    assert lie.check_L2()
    assert lie.is_regular()


def test_envelope_dims_case_ii(data):
    for j in (0, 1, 2):
        lie = lie_cpi(data.ctx2, data.pi[j])
        env = envelope(lie)
        fa = frt([(data.ctx2, data.pi[j])])
        # j = 0: polynomial algebra on 4 generators; j = 1, 2: the four extra
        # vanishing products leave 6 = 16 - 6 - 4 independent degree-2 monomials
        expected_d2 = 10 if j == 0 else 6
        assert env.graded_dimension(2) == expected_d2
        assert env.hilbert_prefix(3) == fa.hilbert_prefix(3)


# P = 1 mod 6, so zeta_N -> W ** (6 // N) for N | 6 is a ring map from the
# P-integral part of Q(zeta_N) to F_P, compatible across the orders N.
P = 1_000_000_009
W = next(w for w in (pow(x, (P - 1) // 6, P) for x in range(2, 100)) if pow(w, 2, P) != 1 and pow(w, 3, P) != 1)


def _mod_p(x):
    assert 6 % x.order == 0
    w = pow(W, 6 // x.order, P)
    total = 0
    for i, c in enumerate(x.coeffs):
        c = Fraction(c)
        total += c.numerator * pow(c.denominator, -1, P) * pow(w, i, P)
    return total % P


def _rank_mod_p(rows):
    """Rank over F_P by leading-term reduction of int rows {key: value}."""
    pivots = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, P)
                pivots[col] = {k: v * inv % P for k, v in row.items()}
                break
            f = row[col]
            for k, v in pivots[col].items():
                v = (row.get(k, 0) - f * v) % P
                if v:
                    row[k] = v
                else:
                    del row[k]
    return len(pivots)


def _graded_dims_mod_p(alg, maxdeg):
    """n^d minus the rank mod P of the rows T^a (x) R (x) T^b, a + 2 + b = d."""
    rels = [{k: _mod_p(c) for k, c in r.items()} for r in alg._all_quadratic_parts()]
    return [
        alg.n**d
        - _rank_mod_p(
            {prefix + k + suffix: v for k, v in rel.items()}
            for rel in rels
            for a in range(d - 1)
            for prefix in product(range(alg.n), repeat=a)
            for suffix in product(range(alg.n), repeat=d - 2 - a)
        )
        for d in range(maxdeg + 1)
    ]


def test_graded_dims_match_rank_mod_p(data):
    """Rank mod P is at most the rank over Q(zeta_3), so equal graded dims of
    U(L) and of the FRT algebra are an independent witness of the exact ones."""
    from qdouble.double import centralizer_irreps

    blocks = 0
    for ctx in (data.ctx1, data.ctx2, data.ctx3):
        for pi in centralizer_irreps(ctx):
            if ctx.rep == 0 and pi.dim == 1 and all(m[0][0] == ONE for m in pi.matrices):
                continue
            for alg in (envelope(lie_cpi(ctx, pi)), frt([(ctx, pi)])):
                assert alg.hilbert_prefix(3) == _graded_dims_mod_p(alg, 3)
            blocks += 1
    assert blocks == 7


def _reference_graded_dims(alg, maxdeg):
    """The full loop that the degree-by-degree ideal replaced: n^d minus the
    rank of every row T^a (x) R (x) T^b, a + 2 + b = d, built from scratch."""
    dims = []
    for d in range(maxdeg + 1):
        span = la.SparseSpan()
        for rel in alg._all_quadratic_parts():
            for a in range(d - 1):
                for prefix in product(range(alg.n), repeat=a):
                    for suffix in product(range(alg.n), repeat=d - 2 - a):
                        span.add({prefix + k + suffix: c for k, c in rel.items()})
        dims.append(alg.n**d - span.rank)
    return dims


def _assert_echelon(alg):
    """The invariant of every stored degree-d span: each row is zero-free over
    words of length d and monic at its minimum key, which is its pivot, and
    each of its words has a tail that is its own remainder modulo I_(d-1)."""
    assert 2 in alg._spans
    for degree, span in alg._spans.items():
        for pivot, row in span.pivots.items():
            assert min(row) == pivot and row[pivot] == ONE
            assert all(row.values()) and all(len(k) == degree for k in row)
            assert all(alg._remainder(k[1:]) == {k[1:]: ONE} for k in row)


def test_degree_by_degree_ideal_matches_the_full_loop(data):
    from qdouble.double import centralizer_irreps

    blocks = [
        (ctx, pi)
        for ctx in (data.ctx1, data.ctx2, data.ctx3)
        for pi in centralizer_irreps(ctx)
        if not (ctx.rep == 0 and pi.is_trivial())
    ]
    assert len(blocks) == 7
    for maxdeg, block_list in ((4, blocks), (2, _s4_blocks()[:1])):
        for ctx, pi in block_list:
            for alg in (envelope(lie_cpi(ctx, pi)), frt([(ctx, pi)])):
                assert alg.hilbert_prefix(maxdeg) == _reference_graded_dims(alg, maxdeg)
                _assert_echelon(alg)


def test_graded_dimension_out_of_order_matches_in_order(data):
    """graded_dimension(4) first builds the spans of degrees 2 and 3 on the
    way; the prefix read afterwards equals the one built degree by degree."""
    block = (data.ctx3, centralizer_character(data.ctx3, 0))
    for build in (lambda: envelope(lie_cpi(*block)), lambda: frt([block])):
        first = build()
        top = first.graded_dimension(4)
        assert sorted(first._spans) == [1, 2, 3, 4]
        dims = first.hilbert_prefix(4)
        assert dims == build().hilbert_prefix(4) and dims[4] == top
        _assert_echelon(first)


def test_spans_store_only_the_rows_outside_v_tensor_the_lower_ideal(data):
    """At degree 4 the spans of s3_case_iii_plus hold 48 + 234 + 496 rows,
    where I_2, I_3 and I_4 stored whole would hold 48 + 666 + 6490."""
    block = (data.ctx3, centralizer_character(data.ctx3, 0))
    for alg in (envelope(lie_cpi(*block)), frt([block])):
        assert alg.hilbert_prefix(4) == [1, 9, 33, 63, 71]
        assert sum(span.rank for span in alg._spans.values()) == 778


def test_skipping_the_tail_step_disagrees_with_the_full_loop(data):
    """Negative control: without the tail step each degree-d span also counts
    the rows of V (x) I_(d-1) that n dim A_(d-1) has already removed."""

    class NoTailStep(QuadAlg):
        def _remainder(self, word):
            return {word: ONE}

    alg = envelope(lie_cpi(data.ctx3, centralizer_character(data.ctx3, 0)))
    skipped = NoTailStep(alg.generators, alg.relations).hilbert_prefix(4)
    assert skipped == [1, 9, 33, -135, -5103]
    assert skipped != _reference_graded_dims(alg, 4) == alg.hilbert_prefix(4)


def test_envelope_relations_case_ii(data):
    """For j = 1, 2 the extra relations kill the four mixed products."""
    lie = lie_cpi(data.ctx2, data.pi[1])
    env = envelope(lie)
    e11 = lie.index_of(0, data.uv, 0, data.uv, 0)
    e12 = lie.index_of(0, data.uv, 0, data.vu, 0)
    e21 = lie.index_of(0, data.vu, 0, data.uv, 0)
    e22 = lie.index_of(0, data.vu, 0, data.vu, 0)
    from qdouble.linalg import SparseSpan

    span = SparseSpan()
    for rel in env.relations:
        span.add(dict(rel))
    for key in ((e11, e12), (e11, e21), (e22, e12), (e22, e21)):
        assert span.contains({key: ONE})


def test_inclusion_elements_printed(data):
    G = data.G
    q = data.q
    for j in (0, 1, 2):
        pi = data.pi[j]
        r11 = inclusion_element(data.ctx2, pi, "uv", 0, "uv", 0)
        expected = DoubleElement(
            G,
            {
                (data.e, data.vu): ONE,
                (data.uv, data.vu): q ** (-j),
                (data.vu, data.vu): q ** j,
            },
        )
        assert r11 == expected


def test_inclusion_intertwines_brackets(data):
    """[r(x), r(y)] in the double equals r([x, y]) for the adjoint bracket."""
    G = data.G
    lie = lie_cpi(data.ctx3, data.pipm[1])

    def r_of(idx):
        (t, a, i, b, j) = lie.basis[idx]
        return inclusion_element(data.ctx3, data.pipm[1], a, i, b, j)

    for x in range(lie.dim):
        for y in range(lie.dim):
            # braided adjoint action in the transmuted double:
            # [X, Y] = sum X_1 (|X_2| |> Y) Sbar(X_2)
            X, Y = r_of(x), r_of(y)
            total = DoubleElement(G)
            for ((g1, h1), (g2, h2)), c in X.dvee_coproduct().items():
                a = DoubleElement.basis(G, g1, h1, c)
                mid = DoubleElement.basis(G, g2, h2)
                moved = Y.adjoint_act(mid.grading())
                total = total + a.dg_mul(moved).dg_mul(mid.braided_antipode())
            expected = DoubleElement(G)
            for k, cc in lie.bracket(x, y).items():
                expected = expected + r_of(k).scale(cc)
            assert total == expected


def test_inclusion_respects_grading(data):
    lie = lie_cpi(data.ctx3, data.pipm[0])
    for idx in range(lie.dim):
        (t, a, i, b, j) = lie.basis[idx]
        elt = inclusion_element(data.ctx3, data.pipm[0], a, i, b, j)
        for (g, h) in elt.terms:
            assert DoubleElement.basis(data.G, g, h).grading() == lie.grading[idx]


def test_covering_image_rejects_and_flags(data):
    img = covering_map_image([(data.ctx2, data.pi[0])])
    assert img == {"dimension": 6, "surjective": False, "classes_generate": False}


def test_covering_image_stops_once_the_span_is_the_whole_double(monkeypatch):
    """On the S4 4-cycle block the span is all 576 dimensions of D(S4) after
    18,949 products, before the 576 x 36 that closing every element takes."""
    calls = []
    dg_mul = DoubleElement.dg_mul
    monkeypatch.setattr(DoubleElement, "dg_mul", lambda self, other: calls.append(1) or dg_mul(self, other))
    img = covering_map_image(_s4_blocks()[:1])
    assert img == {"dimension": 576, "surjective": True, "classes_generate": True}
    assert 0 < len(calls) < 576 * 36


def test_killing_forms_match_for_plus(data):
    lie = lie_cpi(data.ctx3, data.pipm[0])
    K = killing_form(lie)
    T = killing_trace_oracle(lie)
    assert all(K[i][j] == T[i][j] for i in range(9) for j in range(9))


def test_killing_point_class(data):
    from qdouble.double import centralizer_irreps

    two = [p for p in centralizer_irreps(data.ctx1) if p.dim == 2][0]
    lie = lie_cpi(data.ctx1, two)
    K = killing_form(lie)
    for i1 in range(lie.dim):
        (_, _, i, _, j) = lie.basis[i1]
        for i2 in range(lie.dim):
            (_, _, k, _, l) = lie.basis[i2]
            expected = cyc(4) if (i == j and k == l) else ZERO
            assert K[i1][i2] == expected


def test_quotient_requires_real_orthogonal(data):
    with pytest.raises(ValueError):
        quotient_hopf(data.ctx2, data.pi[1])


def test_quotient_case_ii_pi0(data):
    H, B = quotient_hopf(data.ctx2, data.pi[0])
    assert H.graded_dimension(2) == B.graded_dimension(2) == 5
    # the antipode relation t_1^1 t_2^2 + t_1^2 t_2^1 = 1 is present
    lie = lie_cpi(data.ctx2, data.pi[0])
    t11 = lie.index_of(0, data.uv, 0, data.uv, 0)
    t12 = lie.index_of(0, data.uv, 0, data.vu, 0)
    t21 = lie.index_of(0, data.vu, 0, data.uv, 0)
    t22 = lie.index_of(0, data.vu, 0, data.vu, 0)
    wanted = {(t11, t22): ONE, (t12, t21): ONE}
    found = any(
        dict(q) == wanted and c == -ONE for q, c in H.inhomogeneous
    )
    assert found


def test_braided_antipode_preserves_relations(data):
    for pi in (data.pipm[0], data.pipm[1]):
        lie = lie_cpi(data.ctx3, pi)
        assert braided_antipode_preserves_relations(lie, envelope(lie).relations)


def test_braided_antipode_printed_form(data):
    """For the 2-cycle class with pi_+: Sbar E_a^b = E_{aba}^a."""
    from qdouble.braided import braided_antipode_on_generator

    G = data.G
    for a in data.ctx3.cls:
        for b in data.ctx3.cls:
            out = braided_antipode_on_generator(data.ctx3, data.pipm[0], a, 0, b, 0)
            target = G.word(a, G.inv[b], G.inv[a])
            assert out == {(target, 0, G.inv[a], 0): ONE}


@functools.cache
def _nontrivial_blocks(group: str):
    from qdouble.double import double_irreps
    from qdouble.groups import FiniteGroup

    G = FiniteGroup.symmetric(int(group[1]))
    return [(ctx, pi) for ctx, pi in double_irreps(G) if not (ctx.rep == 0 and pi.is_trivial())]


def _exact(relations):
    """Inhomogeneous relations with every scalar spelled out, order tag included."""
    return [
        ([(key, c.order, c.coeffs) for key, c in q.items()], const.order, const.coeffs)
        for q, const in relations
    ]


@pytest.mark.parametrize("group, accepted", [("S3", 4), ("S4", 12)])
def test_antipode_relations_match_the_two_loop_reference(group, accepted):
    """On every S3 and S4 block that ``quotient_hopf`` accepts, H's and B's
    relations equal the two-loop reference in order, keys, constants and
    order tags, and the antipode-preservation verdict equals the reference's.
    S4 has 13 blocks with a real orthogonal pi and an inversion-stable class;
    the 4-cycle block with j = 2 fails the preservation check and is refused."""
    seen = 0
    for ctx, pi in _nontrivial_blocks(group):
        try:
            H, B = quotient_hopf(ctx, pi)
        except ValueError:
            continue
        seen += 1
        lie = lie_cpi(ctx, pi)
        frt_rows, env_rows = braided_ref.quotient_relations(ctx, pi, lie._pos)
        assert _exact(H.inhomogeneous) == _exact(frt_rows)
        assert _exact(B.inhomogeneous) == _exact(env_rows)
        relations = envelope(lie).relations
        assert braided_antipode_preserves_relations(lie, relations) == braided_ref.preserves_relations(lie)
    assert seen == accepted


def test_quotient_refuses_an_antipode_that_breaks_the_relations():
    """On the S4 4-cycle class with the real character j = 2 the braided
    antipode does not map the enveloping relations into themselves."""
    from qdouble.groups import FiniteGroup, class_context

    ctx = class_context(FiniteGroup.symmetric(4), "s1s2s3")
    pi = centralizer_character(ctx, 2)
    lie = lie_cpi(ctx, pi)
    assert pi.is_real_orthogonal()
    assert not braided_ref.preserves_relations(lie)
    with pytest.raises(ValueError, match="braided antipode does not preserve"):
        quotient_hopf(ctx, pi)


def test_frt_antipode_without_inverses_fails_the_reference():
    """S t_{ai}^{bj} = t_{bj}^{ai}, the FRT antipode without its inverses,
    gives other relations on the 3-cycle block, whose elements are not
    involutions."""
    from qdouble.braided import _antipode_relations

    d = S3Data.get()
    ctx, pi = d.ctx2, d.pi[0]
    pos = lie_cpi(ctx, pi)._pos
    frt_rows, _ = braided_ref.quotient_relations(ctx, pi, pos)
    no_inverse = lambda ctx, pi, a, i, b, j: {(b, j, a, i): ONE}
    assert _exact(_antipode_relations(ctx, pi, pos, no_inverse)) != _exact(frt_rows)


def test_trace_oracle_matches_the_ev_reference_on_every_s3_block():
    for ctx, pi in _nontrivial_blocks("S3"):
        lie = lie_cpi(ctx, pi)
        K, ref_K = killing_trace_oracle(lie), braided_ref.trace_oracle(lie)
        assert [[(c.order, c.coeffs) for c in row] for row in K] == [
            [(c.order, c.coeffs) for c in row] for row in ref_K
        ]
