import functools
import random
from fractions import Fraction

import pytest

import hopf_reference as ref
from qdouble.cyclotomic import cyc, root_of_unity
from qdouble.groups import FiniteGroup, class_context
from qdouble.reps import centralizer_character
from qdouble.double import (
    CrossedModule,
    DoubleElement,
    build_VCpi,
    centralizer_irreps,
    bdg_crossed_module,
    regular_crossed_module,
    wedderburn_element,
    block_idempotent,
    double_irreps,
    decompose_DG_module,
    pairing,
    killing_Q,
    beta,
    quasi_R,
    hopf_failures,
)
import qdouble.linalg as la


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.s3_with_uvw_labels()


@pytest.fixture(scope="module")
def ctx2(s3):
    return class_context(s3, "uv", q_override={"uv": "e", "vu": "u"})


def test_cross_relation(s3):
    u, uv = s3.element("u"), s3.element("uv")
    lhs = DoubleElement.group_like(s3, u).dg_mul(DoubleElement.delta(s3, uv))
    rhs = DoubleElement.basis(s3, s3.conj(u, uv), u)
    assert lhs == rhs


def test_star_involutive_on_random_elements(s3):
    rng = random.Random(3)
    for _ in range(50):
        terms = {
            (rng.randrange(6), rng.randrange(6)): cyc(rng.randint(-3, 3))
            for _ in range(3)
        }
        x = DoubleElement(s3, terms)
        assert x.star().star() == x


def test_quantum_killing_form_formula(s3):
    for u in range(6):
        for v in range(6):
            for g in range(6):
                for h in range(6):
                    val = killing_Q(
                        DoubleElement.basis(s3, g, h), DoubleElement.basis(s3, u, v)
                    )
                    expected = cyc(1) if (g == s3.conj(u, v) and h == u) else cyc(0)
                    assert val == expected


def test_pairing_formula(s3):
    a = DoubleElement.basis(s3, s3.element("uv"), s3.element("u"))
    b = DoubleElement.basis(s3, s3.inv[s3.element("u")], s3.inv[s3.element("uv")])
    assert pairing(a, b) == cyc(1)


def test_factorisability_identity(s3):
    """The Killing pairing composed with the duality map is the identity."""
    n = s3.n
    for g in range(n):
        for h in range(n):
            x = DoubleElement.basis(s3, g, h)
            rebuilt = DoubleElement(s3)
            for gg in range(n):
                for hh in range(n):
                    c = killing_Q(
                        x, DoubleElement.basis(s3, gg, s3.conj(s3.inv[gg], hh))
                    )
                    if c:
                        rebuilt = rebuilt + DoubleElement.basis(s3, hh, gg, c)
            assert rebuilt == x


def test_quasi_R_shape(s3):
    r = quasi_R(s3)
    assert len(r) == s3.n
    total = DoubleElement(s3)
    for a, _ in r:
        total = total + a
    assert total == DoubleElement.unit(s3)


def test_beta_map(s3):
    g, h = s3.element("uv"), s3.element("u")
    image = beta(DoubleElement.basis(s3, g, h))
    assert image == DoubleElement.basis(s3, g, s3.conj(s3.inv[g], h))


def test_VCpi_action_case_ii(s3, ctx2):
    q = root_of_unity(3, 1)
    for j in (0, 1, 2):
        module = build_VCpi(ctx2, centralizer_character(ctx2, j))
        u, v = s3.element("u"), s3.element("v")
        uv, vu = s3.element("uv"), s3.element("vu")
        # basis vector 0 is uv (x) v_0, basis vector 1 is vu (x) v_0
        assert module.action[u][0] == [(1, cyc(1))]
        assert module.action[u][1] == [(0, cyc(1))]
        assert module.action[v][0] == [(1, q**j)]
        assert module.action[v][1] == [(0, q ** (-j))]
        # delta action picks the grading
        one, zero = cyc(1), cyc(0)
        assert module.double_matrix(DoubleElement.delta(s3, uv)) == [[one, zero], [zero, zero]]
        assert module.double_matrix(DoubleElement.delta(s3, vu)) == [[zero, zero], [zero, one]]


def test_dimension_sum(s3):
    pairs = double_irreps(s3)
    assert sum((len(c.cls) * p.dim) ** 2 for c, p in pairs) == 36


def test_wedderburn_multiplicativity(s3, ctx2):
    pi = centralizer_character(ctx2, 1)
    cls_ = ctx2.cls
    for c in cls_:
        for d in cls_:
            for c2 in cls_:
                for d2 in cls_:
                    prod = wedderburn_element(ctx2, pi, c, 0, d, 0).dg_mul(
                        wedderburn_element(ctx2, pi, c2, 0, d2, 0)
                    )
                    if d == c2:
                        assert prod == wedderburn_element(ctx2, pi, c, 0, d2, 0)
                    else:
                        assert not prod


def test_projector_action_on_blocks(s3):
    pairs = double_irreps(s3)
    for ctx, pi in pairs:
        p = block_idempotent(ctx, pi)
        module = build_VCpi(ctx, pi)
        assert module.double_matrix(p) == la.identity(module.dim, cyc(1), cyc(0))
        for ctx2_, pi2 in pairs:
            if ctx2_ is ctx and pi2 is pi:
                continue
            other = build_VCpi(ctx2_, pi2)
            assert not any(x for row in other.double_matrix(p) for x in row)


def test_decompose_self(s3, ctx2):
    pi = centralizer_character(ctx2, 1)
    module = build_VCpi(ctx2, pi)
    dec = decompose_DG_module(module)
    assert list(dec.values()) == [1]
    ((label, _),) = dec.keys()
    assert label == "uv"


def test_decompose_direct_sum(s3, ctx2):
    pi = centralizer_character(ctx2, 1)
    module = build_VCpi(ctx2, pi)
    doubled = module.direct_sum(module)
    dec = decompose_DG_module(doubled)
    assert list(dec.values()) == [2]
    ((label, _),) = dec.keys()
    assert label == "uv"


def test_decompose_regular_module(s3):
    reg = regular_crossed_module(s3)
    dec = decompose_DG_module(reg)
    for ctx, pi in double_irreps(s3):
        assert dec[(s3.labels[ctx.rep], pi.name)] == len(ctx.cls) * pi.dim


def test_crossed_module_compatibility(s3):
    for ctx, pi in double_irreps(s3):
        module = build_VCpi(ctx, pi)
        module.verify()
    bdg_crossed_module(s3).verify()
    regular_crossed_module(s3).verify()


def test_crossed_module_refuses_a_column_not_in_stored_form(s3):
    """Columns are zero-free and in increasing index order: a column of the
    S3 point-class 2-dim module reversed, with a stored zero, or with one
    entry split in two halves is refused, though its dense matrix is right."""
    ctx = class_context(s3, "e")
    pi = next(p for p in centralizer_irreps(ctx) if p.dim == 2)
    module = build_VCpi(ctx, pi)
    u, v = s3.element("u"), s3.element("v")
    assert module.action[u][0] == [(0, cyc(1))]
    (i0, a), (i1, b) = module.action[v][0]
    half = a * cyc(Fraction(1, 2))
    for h, col in (
        (v, [(i1, b), (i0, a)]),
        (u, [(0, cyc(1)), (1, cyc(0))]),
        (v, [(i0, half), (i0, half), (i1, b)]),
    ):
        action = [list(cols) for cols in module.action]
        action[h] = [col] + action[h][1:]
        with pytest.raises(ValueError, match="not a homomorphism"):
            CrossedModule(s3, module.basis, action, module.grading)


def test_double_modules_of_S4_build_and_verify():
    """The regular and adjoint modules of D(S4), dimension 576, are stored as
    columns: f |> (g, h) is the one basis vector (f g f^-1, f h) or
    (f g f^-1, f h f^-1)."""
    S4 = FiniteGroup.symmetric(4)
    for module, moved in (
        (regular_crossed_module(S4), lambda f, g, h: (S4.conj(f, g), S4.table[f][h])),
        (bdg_crossed_module(S4), lambda f, g, h: (S4.conj(f, g), S4.conj(f, h))),
    ):
        module.verify()
        assert module.dim == 576
        pos = {b: i for i, b in enumerate(module.basis)}
        for f in range(S4.n):
            assert module.action[f] == [[(pos[moved(f, g, h)], cyc(1))] for g, h in module.basis]


def test_braiding_braid_relation(s3, ctx2):
    module = build_VCpi(ctx2, centralizer_character(ctx2, 1))
    psi = module.braiding_with(module)

    def ap12(vec):
        out = {}
        for (i, j, k), c in vec.items():
            for (a, b), c2 in psi(i, j):
                out[(a, b, k)] = out.get((a, b, k), cyc(0)) + c * c2
        return {k: v for k, v in out.items() if v}

    def ap23(vec):
        out = {}
        for (i, j, k), c in vec.items():
            for (a, b), c2 in psi(j, k):
                out[(i, a, b)] = out.get((i, a, b), cyc(0)) + c * c2
        return {k: v for k, v in out.items() if v}

    for i in range(module.dim):
        for j in range(module.dim):
            for k in range(module.dim):
                start = {(i, j, k): cyc(1)}
                assert ap12(ap23(ap12(start))) == ap23(ap12(ap23(start)))


def test_braiding_invertible(s3, ctx2):
    module = build_VCpi(ctx2, centralizer_character(ctx2, 2))
    m = module.braiding_matrix(module)
    assert la.rank(m) == module.dim * module.dim


def test_shared_hopf_checkers_and_negative_controls(s3):
    D = DoubleElement
    holds = dict.fromkeys(("coassociativity", "counit", "antipode", "bialgebra"))
    assert hopf_failures(s3, D.dg_coproduct, D.dg_mul, D.dg_antipode) == holds
    assert hopf_failures(s3, D.dvee_coproduct, D.dvee_mul, D.dvee_antipode) == holds
    found = hopf_failures(s3, D.dg_coproduct, D.dg_mul, D.dvee_antipode)
    assert found["antipode"] is not None
    want = ref.first_failures(s3, D.dg_coproduct, D.dg_mul, D.dvee_antipode)["antipode"]
    x, lhs, rhs = found["antipode"]
    left, right = ref.antipode_sides(s3, D.dg_coproduct, D.dg_mul, D.dvee_antipode, x)
    assert (x, lhs, rhs) == (want, left.terms, right.terms)
    # BD(G) needs the crossed-module braiding between the middle factors
    assert hopf_failures(s3, D.dvee_coproduct, D.dg_mul, D.braided_antipode)["bialgebra"] is not None


def _adjoint_braid(a2, b1):
    """The crossed-module braiding of the transmuted double: b1 moved past a2."""
    return b1.adjoint_act(a2.grading())


def _dihedral_8():
    return FiniteGroup.from_generators([[[1, 2, 3, 4]], [[1, 3]]], degree=4)


D = DoubleElement
PAIRINGS = {  # (coproduct, product, antipode, braid) of D(G), its dual and BD(G)
    "dg": (D.dg_coproduct, D.dg_mul, D.dg_antipode, None),
    "dvee": (D.dvee_coproduct, D.dvee_mul, D.dvee_antipode, None),
    "bdg": (D.dvee_coproduct, D.dg_mul, D.braided_antipode, _adjoint_braid),
}
FALSE_ON_S3 = {
    "bdg_under_the_flip": (D.dvee_coproduct, D.dg_mul, D.braided_antipode, None),
    "dg_under_the_crossed_module_braid": (D.dg_coproduct, D.dg_mul, D.dg_antipode, _adjoint_braid),
}


def _agrees_with_the_reference(group, structure):
    """hopf_failures and the reference find the same first failing key (or
    pair) for every axiom; returns the package's witnesses."""
    found = hopf_failures(group, *structure)
    assert {axiom: w and w[0] for axiom, w in found.items()} == ref.first_failures(group, *structure)
    return found


def _dropping(product, a, b):
    """product with the basis product of a and b (keys) sent to zero."""

    @functools.wraps(product)
    def dropped(x, y):
        if set(x.terms) == {a} and set(y.terms) == {b}:
            return DoubleElement(x.group)
        return product(x, y)

    return dropped


def _changing_term(coproduct, x, term, scale):
    """coproduct with the given term of the coproduct of the basis key x
    multiplied by scale (dropped when scale is 0)."""

    @functools.wraps(coproduct)
    def changed(y):
        out = coproduct(y)
        if set(y.terms) == {x}:
            out = dict(out)
            out[term] = out[term] * cyc(scale)
            if not scale:
                del out[term]
        return out

    return changed


@pytest.mark.parametrize("name", sorted(PAIRINGS))
def test_bialgebra_check_agrees_with_the_reference_on_s3(s3, name):
    found = _agrees_with_the_reference(s3, PAIRINGS[name])
    assert not any(found.values())


@pytest.mark.parametrize("name", sorted(FALSE_ON_S3))
def test_bialgebra_check_agrees_with_the_reference_on_known_false_pairings(s3, name):
    found = _agrees_with_the_reference(s3, FALSE_ON_S3[name])
    assert found["bialgebra"] is not None


@pytest.mark.parametrize("name", sorted(PAIRINGS))
def test_bialgebra_check_agrees_with_the_reference_on_d8(name):
    d8 = _dihedral_8()
    assert d8.n == 8 and not d8.is_abelian()
    found = _agrees_with_the_reference(d8, PAIRINGS[name])
    assert not any(found.values())


@pytest.mark.parametrize(
    "group, name",
    [("C4", name) for name in sorted({**PAIRINGS, **FALSE_ON_S3})]
    + [("D8", name) for name in sorted(FALSE_ON_S3)],
)
def test_hopf_failures_agree_with_the_reference_axiom_by_axiom(group, name):
    G = FiniteGroup.cyclic(4) if group == "C4" else _dihedral_8()
    _agrees_with_the_reference(G, {**PAIRINGS, **FALSE_ON_S3}[name])


def test_dropped_coproduct_term_fails_coassociativity_at_the_reference_key(s3):
    u, v = s3.element("u"), s3.element("v")
    x = (u, 0)
    term = ((v, 0), (s3.table[s3.inv[v]][u], 0))
    corrupted = _changing_term(D.dg_coproduct, x, term, 0)
    assert len(corrupted(D.basis(s3, *x))) == len(D.basis(s3, *x).dg_coproduct()) - 1
    found = _agrees_with_the_reference(s3, (corrupted, D.dg_mul, D.dg_antipode))
    at, lhs, rhs = found["coassociativity"]
    assert (lhs, rhs) == ref.coassociativity_sides(s3, corrupted, at)


def test_scaled_coproduct_term_fails_the_counit(s3):
    x = (s3.element("u"), 0)
    corrupted = _changing_term(D.dvee_coproduct, x, ((0, 0), x), 2)
    found = _agrees_with_the_reference(s3, (corrupted, D.dvee_mul, D.dvee_antipode))
    at, lhs, rhs = found["counit"]
    left, right = ref.counit_sides(s3, corrupted, at)
    assert at == x and (lhs, rhs) == (left.terms, right.terms) and lhs != {x: cyc(1)}


@pytest.mark.parametrize("name", ["dg", "bdg"])
def test_dropped_product_term_fails_both_bialgebra_checks(s3, name):
    coproduct, product, antipode, braid = PAIRINGS[name]
    u = (s3.element("u"), 0)
    assert len(product(D.basis(s3, *u), D.basis(s3, *u)).terms) == 1
    corrupted = _dropping(product, u, u)
    assert hopf_failures(s3, coproduct, corrupted, antipode, braid)["bialgebra"] is not None
    assert not ref.bialgebra_axiom_holds(s3, coproduct, corrupted, braid)


def test_bialgebra_witness_is_the_first_failing_pair_of_the_reference(s3):
    u = (s3.element("u"), 0)
    corrupted = _dropping(D.dg_mul, u, u)
    (a, b), lhs, rhs = hopf_failures(s3, D.dg_coproduct, corrupted, D.dg_antipode)["bialgebra"]
    assert lhs != rhs
    pairs = ref.basis_pairs(s3)
    sides = [ref.pair_sides(s3, D.dg_coproduct, corrupted, None, *p) for p in pairs]
    first = next(i for i, (l, r) in enumerate(sides) if l != r)
    assert (pairs[first], sides[first]) == ((a, b), (lhs, rhs))


def _c15(name):
    from qdouble import regression

    return {check: (ok, detail) for check, ok, detail in regression.criterion_15()}[name]


def _c15_group():
    from qdouble import regression

    return regression.S3Data.get().G


def test_c15_names_the_first_failing_pair(monkeypatch):
    G = _c15_group()
    u = (G.element("u"), 0)
    corrupted = _dropping(DoubleElement.dg_mul, u, u)
    ((g, h), (x, y)), _, _ = hopf_failures(G, D.dg_coproduct, corrupted, D.dg_antipode)["bialgebra"]
    monkeypatch.setattr(DoubleElement, "dg_mul", corrupted)
    L = G.labels
    assert _c15("c15 bialgebra compatibility on all S3 pairs") == (
        False,
        f"dg_mul fails at a = d_{L[g]}|{L[h]}, b = d_{L[x]}|{L[y]}",
    )


HOPF_LINE = "c15 Hopf axioms for both structures on the full S3 basis"


def test_c15_hopf_axioms_line_passes_with_an_empty_detail():
    assert _c15(HOPF_LINE) == (True, "")


@pytest.mark.parametrize("axiom", ["coassociativity", "antipode"])
def test_c15_hopf_axioms_line_names_the_failing_axiom_and_key(monkeypatch, axiom):
    s3 = _c15_group()
    if axiom == "antipode":
        attr, corrupted = "dg_antipode", D.dvee_antipode
        structure = (D.dg_coproduct, D.dg_mul, corrupted)
    else:
        u, v = s3.element("u"), s3.element("v")
        term = ((v, 0), (s3.table[s3.inv[v]][u], 0))
        attr, corrupted = "dg_coproduct", _changing_term(D.dg_coproduct, (u, 0), term, 0)
        structure = (corrupted, D.dg_mul, D.dg_antipode)
    g, h = ref.first_failures(s3, *structure)[axiom]
    monkeypatch.setattr(DoubleElement, attr, corrupted)
    L = s3.labels
    assert _c15(HOPF_LINE) == (False, f"{axiom} fails for dg_coproduct at d_{L[g]}|{L[h]}")


def test_double_irreps_fails_before_building_any_catalogue(monkeypatch):
    import qdouble.double

    def refuse(group):
        raise AssertionError("a catalogue was built")

    monkeypatch.setattr(qdouble.double, "irrep_catalog", refuse)
    with pytest.raises(ValueError, match="no centralizer irreducible catalogue for this class"):
        double_irreps(FiniteGroup.symmetric(5))


@pytest.mark.parametrize(
    "name, group, count",
    [
        ("S3", lambda: FiniteGroup.symmetric(3), 8),
        ("S4", lambda: FiniteGroup.symmetric(4), 21),
        ("C4", lambda: FiniteGroup.cyclic(4), 16),
        ("C6", lambda: FiniteGroup.cyclic(6), 36),
        ("D8", _dihedral_8, 22),
    ],
)
def test_double_irreps_count_the_orbits_of_commuting_pairs(name, group, count):
    """As many labels as conjugation orbits of commuting pairs (a, b), each
    orbit counted here as the set of its members."""
    G = group()
    orbits = {
        frozenset((G.conj(g, a), G.conj(g, b)) for g in range(G.n))
        for a in range(G.n)
        for b in G.centralizer(a)
    }
    assert len(double_irreps(G)) == len(orbits) == count


def test_double_irreps_refuses_a_missing_irrep(monkeypatch):
    """Negative control: with one centralizer irrep dropped, the labels fall
    one short of the orbits of commuting pairs."""
    import qdouble.double

    original = qdouble.double.centralizer_irreps
    dropped = []

    def one_short(ctx):
        irreps = original(ctx)
        if dropped:
            return irreps
        dropped.append(irreps[-1])
        return irreps[:-1]

    monkeypatch.setattr(qdouble.double, "centralizer_irreps", one_short)
    with pytest.raises(RuntimeError, match="20 irreducible labels for 21 orbits of commuting pairs"):
        double_irreps(FiniteGroup.symmetric(4))
    assert len(dropped) == 1
