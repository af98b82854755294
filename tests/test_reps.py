import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

import qdouble.reps
from qdouble.cli import scenario_reader
from qdouble.cyclotomic import cyc, root_of_unity
from qdouble.double import CrossedModule, _inner, decompose_DG_module, double_characters
from qdouble.groups import ClassContext, FiniteGroup, class_context
from qdouble.reps import (
    Rep,
    _axial_distance,
    _order8_nonabelian_irreps,
    _partitions,
    _standard_tableaux,
    trivial_rep,
    sign_rep,
    cyclic_rep,
    seminormal_rep,
    product_rep,
    irrep_catalog,
    abelian_characters,
    group_projector,
    induced_rep,
    centralizer_character,
)
import qdouble.linalg as la
from qdouble.linalg import _columns


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.s3_with_uvw_labels()


@pytest.fixture(scope="module")
def ctx2(s3):
    return class_context(s3, "uv", q_override={"uv": "e", "vu": "u"})


def test_cyclic_character(s3):
    z3 = FiniteGroup.cyclic(3)
    rep = cyclic_rep(z3, 1)
    assert rep.matrices[z3.element("r")][0][0] == root_of_unity(3, 1)


def test_sign_rep(s3):
    rep = sign_rep(s3)
    assert rep.matrices[s3.element("u")][0][0] == cyc(-1)
    assert rep.character()[1] == cyc(-1)  # the 2-cycle class


def test_two_dim_characters(s3):
    two = seminormal_rep(s3, (2, 1))
    chi = two.character()
    # class order: {e}, {u,v,w}, {uv,vu}
    assert chi[0] == cyc(2)
    assert chi[1] == cyc(0)
    assert chi[2] == cyc(-1)
    norm = two.normalized_character()
    assert norm[0] == cyc(1)
    assert norm[2] == cyc(Fraction(-1, 2))


def test_trivial_character(s3):
    assert all(x == cyc(1) for x in trivial_rep(s3).character())


def test_user_rep_validation(s3):
    bad = [[[cyc(1)]] for _ in range(s3.n)]
    bad[s3.element("u")] = [[cyc(2)]]
    with pytest.raises(ValueError):
        Rep(s3, bad)


def test_non_homomorphism_rejected():
    z2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError):
        Rep(z2, [[[cyc(1)]], [[cyc(2)]]])


def test_group_projector_z3():
    z3 = FiniteGroup.cyclic(3)
    p0 = group_projector(z3, cyclic_rep(z3, 0))
    third = cyc(Fraction(1, 3))
    assert p0 == {0: third, 1: third, 2: third}
    p1 = group_projector(z3, cyclic_rep(z3, 1))
    z = root_of_unity(3, 1)
    assert p1[z3.element("r")] == z * z * third
    assert p1[z3.word(z3.element("r"), z3.element("r"))] == z * third


def test_group_projectors_orthogonal_idempotent():
    z3 = FiniteGroup.cyclic(3)
    reps = [cyclic_rep(z3, j) for j in range(3)]
    projectors = [group_projector(z3, r) for r in reps]

    def convolve(p, q):
        out = {}
        for a, ca in p.items():
            for b, cb in q.items():
                k = z3.table[a][b]
                out[k] = out.get(k, cyc(0)) + ca * cb
        return {k: v for k, v in out.items() if v}

    for i, p in enumerate(projectors):
        assert convolve(p, p) == p
        for j, q in enumerate(projectors):
            if i != j:
                assert convolve(p, q) == {}
    total = {}
    for p in projectors:
        for k, v in p.items():
            total[k] = total.get(k, cyc(0)) + v
    assert {k: v for k, v in total.items() if v} == {0: cyc(1)}


def test_reducible_rejected_by_projector(s3):
    ind = induced_rep(
        class_context(s3, "uv", q_override={"uv": "e", "vu": "u"}),
        centralizer_character(class_context(s3, "uv"), 0),
    )
    with pytest.raises(ValueError):
        group_projector(s3, ind)


def decompose_rep(rep):
    """Multiplicities of rep's irreducibles: ``decompose_DG_module`` on the
    trivially graded crossed module, whose labels all have class {e}."""
    module = CrossedModule(rep.group, range(rep.dim), [_columns(m) for m in rep.matrices], [0] * rep.dim)
    dec = decompose_DG_module(module)
    assert {label for label, _ in dec} == {rep.group.labels[0]}
    return {name: mult for (_, name), mult in dec.items()}


def test_induced_rep_decompositions(s3, ctx2):
    names = {r.dim: r.name for r in irrep_catalog(s3)}
    dec0 = decompose_rep(induced_rep(ctx2, centralizer_character(ctx2, 0)))
    assert sorted(dec0.values()) == [1, 1]
    assert names[2] not in dec0
    for j in (1, 2):
        dec = decompose_rep(induced_rep(ctx2, centralizer_character(ctx2, j)))
        assert dec == {names[2]: 1}


def test_induced_rep_case_iii(s3):
    ctx3 = class_context(s3, "v", q_override={"v": "e", "u": "w", "w": "u"})
    plus = decompose_rep(induced_rep(ctx3, centralizer_character(ctx3, 0)))
    names = {r.name: r for r in irrep_catalog(s3)}
    trivial = next(n for n, r in names.items() if r.dim == 1 and r.matrices[1][0][0] == cyc(1))
    assert plus[trivial] == 1 and sum(m * d for m, d in zip(plus.values(), [names[k].dim for k in plus])) == 3
    minus = decompose_rep(induced_rep(ctx3, centralizer_character(ctx3, 1)))
    assert trivial not in minus


def test_schur_orthogonality_s4():
    """The class-{e} labels of ``double_characters`` are the catalogue
    characters h -> chi_pi(h) at (e, h), orthonormal."""
    s4 = FiniteGroup.symmetric(4)
    irreps = irrep_catalog(s4)
    assert sorted(r.dim for r in irreps) == [1, 1, 2, 3, 3]
    table = double_characters(s4)
    chi = [table[("e", r.name)] for r in irreps]
    for r, c in zip(irreps, chi):
        assert c == {(0, h): r.trace(h) for h in range(s4.n) if r.trace(h)}
    for i, a in enumerate(irreps):
        for j, b in enumerate(irreps):
            inner = _inner(chi[i], chi[j], s4.n)
            assert inner == (cyc(1) if i == j else cyc(0))


def test_seminormal_rational_entries():
    s4 = FiniteGroup.symmetric(4)
    rep = seminormal_rep(s4, (2, 2))
    for m in rep.matrices:
        for row in m:
            for x in row:
                assert x.is_rational()


def test_product_rep_on_centralizer():
    s4 = FiniteGroup.symmetric(4)
    ctx = class_context(s4, s4.element("s3"))
    sub = ctx.centralizer
    # the centralizer of (34) is {e,(34)} x {e,(12)}
    a = [g for g in sub.embedding if g in (0, s4.element("s3"))]
    b = [g for g in sub.embedding if g in (0, s4.element("s1"))]
    za = FiniteGroup.cyclic(2)
    sign_z2 = cyclic_rep(za, 1)
    triv_z2 = cyclic_rep(za, 0)
    rep = product_rep(sub, sign_z2, [sub.position[x] for x in a], triv_z2, [sub.position[x] for x in b])
    assert rep.matrices[sub.position[s4.element("s3")]][0][0] == cyc(-1)
    assert rep.matrices[sub.position[s4.element("s1")]][0][0] == cyc(1)


def test_abelian_characters_complete():
    z6 = FiniteGroup.cyclic(6)
    chars = abelian_characters(z6)
    assert len(chars) == 6
    values = {tuple(c.matrices[g][0][0].to_complex().real for g in range(6)) for c in chars}
    assert len(values) == 6


def test_centralizer_character_pins_value(s3, ctx2):
    q = root_of_unity(3, 1)
    for j in range(3):
        pi = centralizer_character(ctx2, j)
        pos = ctx2.centralizer.position[ctx2.rep]
        assert pi.matrices[pos][0][0] == q ** j


# -- one construction path: test-side reference builders ----------------------
#
# Catalogue representations are extended from generator images by
# reps._extend_from_generators.  The references below build the same
# matrices other ways (words of adjacent transpositions, powers of a
# generator, a brute-force character table); entries are compared through
# to_json, so the order tag N is pinned as well as the value.


def _json_matrices(matrices):
    return [[[x.to_json() for x in row] for row in m] for m in matrices]


def _adjacent_word(p):
    """p as a product of adjacent transpositions s_k = (k, k+1), by bubble sort."""
    arr, word = list(p), []
    for _ in range(len(arr)):
        for j in range(len(arr) - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                word.append(j + 1)
    return word[::-1]


def _word_product_seminormal(group, partition):
    """Young's seminormal matrices of s_k, multiplied along each element's word."""
    tableaux = _standard_tableaux(partition)
    index = {frozenset(t.items()): i for i, t in enumerate(tableaux)}
    dim = len(tableaux)
    one, zero = cyc(1), cyc(0)

    def s(k):
        m = [[zero] * dim for _ in range(dim)]
        for i, t in enumerate(tableaux):
            dd = Fraction(1, _axial_distance(t, k))
            m[i][i] = cyc(dd)
            swapped = dict(t)
            swapped[k], swapped[k + 1] = t[k + 1], t[k]
            j = index.get(frozenset(swapped.items()))
            if j is not None and j > i:
                m[i][j] = cyc(1 - dd * dd)
                m[j][i] = cyc(1)
        return m

    n = len(group.perms[0])
    smat = {k: s(k) for k in range(1, n)}
    mats = []
    for p in group.perms:
        m = la.identity(dim, one, zero)
        for k in _adjacent_word(p):
            m = la.mat_mul(m, smat[k])
        mats.append(m)
    return mats


def _power_walk(group, j, generator):
    """g^k -> zeta_n^(jk), walking the powers of the generator."""
    n = group.n
    mats = [None] * n
    x = 0
    for k in range(n):
        mats[x] = [[root_of_unity(n, j * k)]]
        x = group.table[x][generator]
    assert None not in mats
    return mats


def _brute_force_characters(group):
    """Every assignment of roots of unity to the generators, in enumeration
    order, kept when it is multiplicative on all |G|^2 pairs.  An element
    g_1^m_1 ... g_r^m_r takes the product over the m_i > 0 only, so its tag is
    the lcm of the orders of the generators it needs."""
    gens = group.generators
    orders = [group.order_of(g) for g in gens]
    exponents = {}
    for ms in itertools.product(*(range(o) for o in orders)):
        x = 0
        for g, m in zip(gens, ms):
            for _ in range(m):
                x = group.table[x][g]
        exponents.setdefault(x, ms)
    assert len(exponents) == group.n
    table = []
    for exps in itertools.product(*(range(o) for o in orders)):
        values = []
        for x in range(group.n):
            v = cyc(1)
            for o, k, m in zip(orders, exps, exponents[x]):
                if m:
                    v = v * root_of_unity(o, k * m)
            values.append(v)
        t = group.table
        pairs = itertools.product(range(group.n), repeat=2)
        if all(values[t[a][b]] == values[a] * values[b] for a, b in pairs):
            table.append((f"chi{exps}", [[[v]] for v in values]))
    return table


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_seminormal_matches_word_products(degree):
    group = FiniteGroup.symmetric(degree)
    for partition in _partitions(degree):
        reference = _word_product_seminormal(group, partition)
        assert _json_matrices(seminormal_rep(group, partition).matrices) == _json_matrices(reference)


def test_seminormal_on_generators_other_than_transpositions():
    # S4 from a 4-cycle and a transposition: the greedy generators are not
    # the adjacent transpositions, which the builder finds by permutation
    group = FiniteGroup.from_generators([[[1, 2, 3, 4]], [[1, 2]]])
    for partition in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
        reference = _word_product_seminormal(group, partition)
        assert _json_matrices(seminormal_rep(group, partition).matrices) == _json_matrices(reference)


def test_seminormal_needs_the_full_symmetric_group():
    a4 = FiniteGroup.from_generators([[[1, 2, 3]], [[2, 3, 4]]])
    with pytest.raises(ValueError, match="full symmetric group"):
        seminormal_rep(a4, (3, 1))


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_rep_matches_power_walk(n):
    group = FiniteGroup.cyclic(n)
    generator = group.element("r") if n > 1 else 0
    for j in range(n):
        rep = cyclic_rep(group, j)
        assert _json_matrices(rep.matrices) == _json_matrices(_power_walk(group, j, generator))
        # pi(e) keeps the tag n: a printed N is the lcm of the operand orders
        assert rep.matrices[0][0][0].to_json()["N"] == n


def test_centralizer_character_matches_power_walk_on_scenarios():
    scenarios = Path(__file__).resolve().parent.parent / "src" / "qdouble" / "scenarios"
    contexts = []
    for path in sorted(scenarios.glob("*.json")):
        scenario = json.loads(path.read_text())
        if scenario.get("irrep", {}).get("kind") == "centralizer_character":
            contexts.append(scenario_reader(scenario)("class_rep"))
    s4 = FiniteGroup.symmetric(4)
    contexts.append(class_context(s4, "s1s2s3"))
    assert len(contexts) == 4
    for ctx in contexts:
        sub = ctx.centralizer
        for j in range(sub.n):
            reference = _power_walk(sub, j, sub.position[ctx.rep])
            assert _json_matrices(centralizer_character(ctx, j).matrices) == _json_matrices(reference)


@pytest.mark.parametrize(
    "generators",
    [
        [[[1, 2]], [[3, 4]]],
        [[[1, 2]], [[3, 4, 5, 6]]],
        [[[1, 2, 3]], [[4, 5, 6]]],
        [[[1, 2]], [[3, 4]], [[5, 6, 7]]],
    ],
    ids=["C2xC2", "C2xC4", "C3xC3", "C2xC2xC3"],
)
def test_abelian_characters_match_brute_force(generators):
    group = FiniteGroup.from_generators(generators)
    chars = abelian_characters(group)
    reference = _brute_force_characters(group)
    assert [c.name for c in chars] == [name for name, _ in reference]
    assert [_json_matrices(c.matrices) for c in chars] == [_json_matrices(m) for _, m in reference]


def test_subgroup_keeps_parent_permutations():
    s4 = FiniteGroup.symmetric(4)
    for cls_ in s4.conjugacy_classes():
        sub = class_context(s4, cls_[0]).centralizer
        assert sub.perms == [s4.perms[g] for g in sub.embedding]


@pytest.mark.parametrize("degree", [3, 4])
def test_centralizer_irreps_from_the_one_dispatcher(degree):
    """The dispatcher on a centralizer gives what the family constructors give
    on it, and on the whole-group centralizer what the whole group's
    catalogue gives, re-indexed along the embedding."""
    group = FiniteGroup.symmetric(degree)
    whole = irrep_catalog(group)
    for cls_ in group.conjugacy_classes():
        ctx = ClassContext(group, cls_[0])
        sub = ctx.centralizer
        if sub.n == group.n:
            restricted = [[r.matrices[g] for g in sub.embedding] for r in whole]
            expected = [(r.name, r.dim, _json_matrices(m)) for r, m in zip(whole, restricted)]
        else:
            family = abelian_characters if sub.is_abelian() else _order8_nonabelian_irreps
            expected = [(r.name, r.dim, _json_matrices(r.matrices)) for r in family(sub)]
        got = [(r.name, r.dim, _json_matrices(r.matrices)) for r in irrep_catalog(ctx.centralizer)]
        assert got == expected


def test_irrep_catalog_refuses_s6_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(qdouble.reps, "_extend_from_generators", refuse)
    monkeypatch.setattr(qdouble.reps, "seminormal_rep", refuse)
    with pytest.raises(ValueError, match="no irreducible catalogue"):
        irrep_catalog(FiniteGroup.symmetric(6))
