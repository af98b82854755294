import pytest

from qdouble.cyclotomic import cyc
from qdouble.reps import irrep_catalog
from qdouble.double import build_VCpi
from qdouble.dualgeometry import (
    dual_operator,
    peter_weyl_blocks,
    is_bicovariant_operator,
    DualInnerProduct,
    dual_constraints,
    second_order_check,
    freefield_solutions,
    _bidirectional,
)
from qdouble.groups import FiniteGroup
from qdouble.poly import Poly
from qdouble.regression import S3Data


@pytest.fixture(scope="module")
def data():
    return S3Data.get()


def _names(data):
    irreps = irrep_catalog(data.G)
    triv = next(
        r for r in irreps if r.dim == 1 and all(m[0][0] == cyc(1) for m in r.matrices)
    )
    sign = next(r for r in irreps if r.dim == 1 and r is not triv)
    two = next(r for r in irreps if r.dim == 2)
    return triv, sign, two


def test_peter_weyl_reassembles_delta(data):
    G = data.G
    for g in range(G.n):
        blocks = peter_weyl_blocks(G, g)
        total = [cyc(0)] * G.n
        for vec in blocks.values():
            total = [a + b for a, b in zip(total, vec)]
        expected = [cyc(1) if h == g else cyc(0) for h in range(G.n)]
        assert total == expected


def test_dual_operator_eigenfunctions(data):
    G = data.G
    triv, sign, two = _names(data)
    lam = {triv.name: cyc(0), sign.name: cyc(5), two.name: cyc(7)}
    mat = dual_operator(G, lam)
    # matrix coefficients of each irrep are eigenfunctions
    for rho, value in ((triv, cyc(0)), (sign, cyc(5)), (two, cyc(7))):
        for i in range(rho.dim):
            for j in range(rho.dim):
                fun = [rho.matrices[g][i][j] for g in range(G.n)]
                out = [
                    sum((mat[f][g] * fun[g] for g in range(G.n)), cyc(0))
                    for f in range(G.n)
                ]
                expected = [value * x for x in fun]
                assert out == expected


def test_dual_operator_bicovariance_and_negative_control(data):
    G = data.G
    triv, sign, two = _names(data)
    lam = {triv.name: cyc(0), sign.name: cyc(2), two.name: cyc(3)}
    mat = dual_operator(G, lam)
    assert is_bicovariant_operator(G, mat)
    corrupted = [row[:] for row in mat]
    corrupted[0][0] = corrupted[0][0] + cyc(1)
    assert not is_bicovariant_operator(G, corrupted)


def test_trivial_eigenvalue_on_constants(data):
    G = data.G
    triv, sign, two = _names(data)
    lam = {triv.name: cyc(11), sign.name: cyc(0), two.name: cyc(0)}
    mat = dual_operator(G, lam)
    ones = [cyc(1)] * G.n
    out = [sum((mat[f][g] * ones[g] for g in range(G.n)), cyc(0)) for f in range(G.n)]
    assert out == [cyc(11)] * G.n


def test_dual_inner_product_star(data):
    from qdouble.cyclotomic import root_of_unity

    G = data.G
    dip = DualInnerProduct(G, [G.element(x) for x in ("u", "v", "w")], {"u": 3})
    assert dip.star_compatible()
    assert dip.pair(G.element("u"), G.element("u")) == Poly.constant(3)
    assert dip.pair(G.element("u"), G.element("v")).is_zero()
    imag = Poly.constant(root_of_unity(4, 1))
    dip2 = DualInnerProduct(G, [G.element(x) for x in ("u", "v", "w")], {"u": imag})
    assert not dip2.star_compatible()


def test_dual_inner_product_refuses_two_weights_in_one_class(data):
    G = data.G
    with pytest.raises(ValueError, match="^weights: 'u' and 'v' name one conjugacy class$"):
        DualInnerProduct(G, [G.element(x) for x in ("u", "v", "w")], {"u": 1, "v": 5})


def _reference_bidirectional(group, subset):
    """The walk ``dual_constraints`` made before ``_bidirectional``."""
    for c in subset:
        if any(x not in subset for x in group.class_of(c)):
            raise ValueError("subset must be a union of conjugacy classes")
        if c == 0:
            raise ValueError("the identity cannot appear in the subset")
    classes = [cls_ for cls_ in group.conjugacy_classes() if cls_[0] in {group.class_of(c)[0] for c in subset}]
    return [cls_ for cls_ in classes if group.class_inverse(cls_)[0] in {c[0] for c in classes}]


@pytest.mark.parametrize(
    "group",
    [
        FiniteGroup.s3_with_uvw_labels(),
        FiniteGroup.symmetric(4),
        # classes that are not their own inverse: C5, and A4's two 3-cycle classes
        FiniteGroup.cyclic(5),
        FiniteGroup.from_generators([[[1, 2, 3]], [[1, 2], [3, 4]]]),
    ],
    ids=["S3", "S4", "C5", "A4"],
)
def test_bidirectional_matches_the_old_walk(group):
    """Every union of non-identity classes, in the same class order; the
    inner product's flattened part is the same classes."""
    classes = group.conjugacy_classes()[1:]
    for mask in range(1 << len(classes)):
        subset = sorted(g for k, c in enumerate(classes) if mask >> k & 1 for g in c)
        expected = _reference_bidirectional(group, subset)
        assert _bidirectional(group, subset) == expected
        assert DualInnerProduct(group, subset, {}).bidirectional == [g for c in expected for g in c]


def test_second_order_check(data):
    G = data.G
    triv, sign, two = _names(data)
    V = ("w2",)
    w2 = Poly.variable("w2", V)
    lam = {triv.name: Poly.constant(0, V), sign.name: w2 * 12, two.name: w2 * 6}
    mat = dual_operator(G, lam)
    dip = DualInnerProduct(G, [G.element(x) for x in ("u", "v", "w")], {"u": w2}, V)
    assert second_order_check(G, mat, dip)
    bad = dict(lam)
    bad[sign.name] = w2 * 11
    assert not second_order_check(G, dual_operator(G, bad), dip)


def test_dual_constraints_regularity(data):
    G = data.G
    triv, sign, two = _names(data)
    lam_names = {triv.name: None, sign.name: "a1", two.name: "a2"}
    cons, closed = dual_constraints(
        G, ["u", "v", "w"], {data.u: "w2"}, lam_names
    )
    # substituting the closed form back kills every constraint
    sub = {"a1": closed[sign.name], "a2": closed[two.name]}
    assert all(not c.substitute(sub) for c in cons)


def test_dual_constraints_reject_bad_subsets(data):
    G = data.G
    triv, sign, two = _names(data)
    lam_names = {triv.name: None, sign.name: "a1", two.name: "a2"}
    with pytest.raises(ValueError, match="^subset must be a union of conjugacy classes$"):
        dual_constraints(G, ["u"], {data.u: "w"}, lam_names)
    with pytest.raises(ValueError, match="^the identity cannot appear in the subset$"):
        dual_constraints(G, ["e"], {0: "w"}, lam_names)


def test_freefield_solutions_match_transfer(data):
    from qdouble.transfer import transfer_to_group_algebra
    import qdouble.linalg as la

    ctx, pi = data.ctx2, data.pi[1]
    module = build_VCpi(ctx, pi)
    sols = freefield_solutions(ctx, pi, module, {"e": 0, "u": 1, "uv": 2})
    assert len(sols) == 2
    cols = transfer_to_group_algebra(ctx, pi, module)
    assert la.same_row_space(list(cols.values()), sols)


def test_freefield_degenerate_spectrum_rejected(data):
    module = build_VCpi(data.ctx2, data.pi[1])
    with pytest.raises(ValueError):
        freefield_solutions(data.ctx2, data.pi[1], module, {"e": 0, "u": 3, "uv": 3})
    with pytest.raises(ValueError):
        freefield_solutions(data.ctx2, data.pi[1], module, {"e": 1, "u": 3, "uv": 4})


def test_freefield_refuses_two_keys_in_one_class(data):
    module = build_VCpi(data.ctx2, data.pi[1])
    with pytest.raises(ValueError, match="eigenvalues: 'u' and 'w' name one conjugacy class"):
        freefield_solutions(data.ctx2, data.pi[1], module, {"e": 0, "u": 1, "w": 3, "uv": 2})


def test_freefield_solution_form(data):
    """Solutions are sums of f(c) c^-1 (x) (c (x) v)."""
    ctx, pi = data.ctx2, data.pi[1]
    module = build_VCpi(ctx, pi)
    sols = freefield_solutions(ctx, pi, module, {"e": 0, "u": 1, "uv": 2})
    pos = {c: k for k, c in enumerate(ctx.cls)}
    for s in sols:
        for g, widx in s:
            c = ctx.group.inv[g]
            assert widx // pi.dim == pos[c]
