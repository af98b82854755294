import pytest

from qdouble.groups import FiniteGroup, class_context, parse_cycles


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.s3_with_uvw_labels()


def test_s3_from_two_transpositions(s3):
    assert s3.n == 6
    assert s3.labels == ["e", "u", "v", "uv", "vu", "w"]


def test_cyclic_from_single_generator():
    z3 = FiniteGroup.from_generators([parse_cycles([[1, 2, 3]])])
    assert z3.n == 3


def test_s4_order():
    g = FiniteGroup.from_generators(
        [parse_cycles([[1, 2]], 4), parse_cycles([[1, 2, 3, 4]])]
    )
    assert g.n == 24


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        FiniteGroup.from_generators([])


def test_default_generator_names_skip_the_identity_name():
    """The fifth of five unlabelled generators is named f, not e: on the
    adjacent transpositions of S6, e names the identity and nothing else."""
    s6 = FiniteGroup.from_generators([parse_cycles([[i, i + 1]], 6) for i in range(1, 6)])
    assert s6.n == 720
    assert s6.labels[:6] == ["e", "a", "b", "c", "d", "f"]
    assert s6.element("e") == 0


def test_inconsistent_degree_handled():
    # degrees are padded to the largest; an explicit too-small degree fails
    with pytest.raises(ValueError):
        FiniteGroup.from_generators([[[1, 5]]], degree=3)


def test_conjugacy_classes_s3(s3):
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_symmetric_group_of_degree_one_is_the_order_one_group():
    s1, c1 = FiniteGroup.symmetric(1), FiniteGroup.cyclic(1)
    assert (s1.n, s1.labels, s1.table, s1.perms) == (c1.n, c1.labels, c1.table, c1.perms) == (1, ["e"], [[0]], [(0,)])


def test_conjugacy_classes_abelian():
    z6 = FiniteGroup.cyclic(6)
    assert all(len(c) == 1 for c in z6.conjugacy_classes())


def test_conjugacy_classes_s4_brute_force():
    g = FiniteGroup.symmetric(4)
    # independent orbit enumeration
    orbits = set()
    for x in range(g.n):
        orbits.add(frozenset(g.conj(h, x) for h in range(g.n)))
    assert sorted(len(o) for o in orbits) == [1, 3, 6, 6, 8]
    assert sorted(len(c) for c in g.conjugacy_classes()) == [1, 3, 6, 6, 8]


def test_class_function_spreads_one_value_per_class(s3):
    values = s3.class_function({"e": 0, "w": 5, "vu": 7}, "eigenvalues")
    assert values == {g: {1: 0, 3: 5, 2: 7}[len(s3.class_of(g))] for g in range(s3.n)}


def test_class_function_names_each_class_without_a_key(s3):
    with pytest.raises(ValueError, match="^eigenvalues: no key names the class of 'uv'$"):
        s3.class_function({"e": 0, "v": 5}, "eigenvalues")
    with pytest.raises(ValueError, match="^lambdas: no key names the class of 'u', 'uv'$"):
        s3.class_function({"e": 0}, "lambdas")


def test_class_context_invariants(s3):
    ctx = class_context(s3, "uv", q_override={"uv": "e", "vu": "u"})
    for c in ctx.cls:
        assert s3.conj(ctx.q[c], ctx.rep) == c
    assert ctx.q[ctx.rep] == 0
    assert len(ctx.cls) * ctx.centralizer.n == s3.n


def test_invalid_q_override(s3):
    # e does not conjugate uv to vu
    with pytest.raises(ValueError):
        class_context(s3, "uv", q_override={"uv": "e", "vu": "e"})
    # q at the base point must be the identity
    with pytest.raises(ValueError):
        class_context(s3, "uv", q_override={"uv": "uv", "vu": "u"})


def test_point_class_cocycle_is_identity(s3):
    ctx = class_context(s3, "e")
    for g in range(s3.n):
        assert ctx.zeta[0][g] == g


def test_factorization(s3):
    ctx = class_context(s3, "uv", q_override={"uv": "e", "vu": "u"})
    qpart, npart = ctx.factorize(s3.element("v"))
    assert s3.labels[qpart] == "u"
    assert s3.labels[npart] == "uv"
    assert s3.table[qpart][npart] == s3.element("v")
    assert ctx.factorize(0) == (0, 0)
    for c in ctx.cls:
        assert ctx.factorize(ctx.q[c]) == (ctx.q[c], 0)


def test_factorization_unique_for_all_elements(s3):
    ctx = class_context(s3, "v", q_override={"v": "e", "u": "w", "w": "u"})
    for g in range(s3.n):
        qpart, npart = ctx.factorize(g)
        assert s3.table[qpart][npart] == g
        assert npart in ctx.centralizer.position


def test_q_override_changes_tables_not_structure(s3):
    default = class_context(s3, "uv")
    overridden = class_context(s3, "uv", q_override={"uv": "e", "vu": "u"})
    assert default.cls == overridden.cls
    assert default.centralizer.embedding == overridden.centralizer.embedding
    # zeta tables may differ
    for g in range(s3.n):
        qpart, npart = overridden.factorize(g)
        assert s3.table[qpart][npart] == g


def test_commutator(s3):
    u, v = s3.element("u"), s3.element("v")
    expected = s3.word(s3.inv[u], s3.inv[v], u, v)
    assert s3.commutator(u, v) == expected
