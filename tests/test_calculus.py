import pytest

from qdouble.cyclotomic import cyc
from qdouble.groups import FiniteGroup, class_context
from qdouble.reps import centralizer_character, induced_rep, sign_rep
from qdouble.calculus import (
    DoubleCalculus,
    FunctionCalculus,
    GroupAlgebraCalculus,
    lambda_basis,
    base_calculus_group_algebra,
    base_calculus_functions,
)
import qdouble.linalg as la

ZERO, ONE = cyc(0), cyc(1)


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.s3_with_uvw_labels()


@pytest.fixture(scope="module")
def ctx2(s3):
    return class_context(s3, "uv", q_override={"uv": "e", "vu": "u"})


@pytest.fixture(scope="module")
def ctx3(s3):
    return class_context(s3, "v", q_override={"v": "e", "u": "w", "w": "u"})


def test_function_calculus_connectivity(s3):
    assert FunctionCalculus(s3, ["u", "v", "w"]).is_connected()
    assert not FunctionCalculus(s3, ["uv", "vu"]).is_connected()


def test_function_calculus_requires_ad_stable(s3):
    with pytest.raises(ValueError):
        FunctionCalculus(s3, ["u"])
    with pytest.raises(ValueError):
        FunctionCalculus(s3, ["e", "u", "v", "w"])


def test_function_calculus_d_formula(s3):
    calc = FunctionCalculus(s3, ["u", "v", "w"])
    fun = [ONE] + [ZERO] * 5
    out = calc.d(fun)
    for c in calc.subset:
        assert out[(s3.inv[c], c)] == ONE
        assert out[(0, c)] == -ONE
    assert len(out) == 6


def test_function_calculus_properties(s3):
    for subset in (["u", "v", "w"], ["uv", "vu"]):
        calc = FunctionCalculus(s3, subset)
        assert calc.leibniz_holds()
        assert calc.is_inner()
        assert calc.right_coaction_check()


def test_group_algebra_calculus_sign(s3):
    calc = GroupAlgebraCalculus(sign_rep(s3))
    assert calc.lambda_dim == 1
    assert calc.e_matrices[s3.element("u")][0][0] == cyc(-2)
    assert calc.e_matrices[s3.element("uv")][0][0] == ZERO
    assert not calc.is_connected()
    inner, theta = calc.is_inner()
    assert inner


def test_group_algebra_calculus_end2(s3, ctx2):
    calc = GroupAlgebraCalculus(induced_rep(ctx2, centralizer_character(ctx2, 1)))
    assert calc.lambda_dim == 4
    assert calc.is_connected()
    inner, theta = calc.is_inner()
    assert inner
    # theta = identity matrix: e^u + e^v + e^w = -3 theta
    assert la.mat_eq(theta, la.identity(2, ONE, ZERO))


def test_lambda_basis_selection(s3, ctx2):
    calc = GroupAlgebraCalculus(induced_rep(ctx2, centralizer_character(ctx2, 1)))
    lb = lambda_basis(calc)  # greedy
    assert lb.dim == 4
    preferred = lambda_basis(calc, preferred=["u", "v", "uv", "vu"])
    assert [s3.labels[g] for g in preferred.basis] == ["u", "v", "uv", "vu"]
    with pytest.raises(ValueError):
        lambda_basis(calc, preferred=["u", "u", "v", "uv"])  # repeat: dependent
    with pytest.raises(ValueError, match="dependent at 'e'"):
        lambda_basis(calc, preferred=["e", "u", "v", "uv", "vu"])  # e^e = 0
    with pytest.raises(ValueError):
        lambda_basis(calc, preferred=["u", "v"])  # does not span


def test_partials_vanish_on_identity(s3, ctx2):
    calc = GroupAlgebraCalculus(induced_rep(ctx2, centralizer_character(ctx2, 1)))
    lb = lambda_basis(calc, preferred=["u", "v", "uv", "vu"])
    assert all(not x for x in lb.coords(0))
    alpha_w = lb.coords(s3.element("w"))
    assert [x for x in alpha_w] == [cyc(-1), cyc(-1), ONE, ONE]


def test_case_ii_matrices_print_order_3(s3, ctx2):
    """The s3_case_ii report: all 64 gamma and rho entries are rational and
    print N = 3, the lcm of the orders that fed them."""
    calc = GroupAlgebraCalculus(induced_rep(ctx2, centralizer_character(ctx2, 1)))
    lb = lambda_basis(calc, preferred=["u", "v", "uv", "vu"])
    for g in (s3.element("u"), s3.element("v")):
        for m in (lb.gamma(g), lb.rho_matrix(g)):
            assert [x.to_json()["N"] for row in m for x in row] == [3] * 16


def test_sign_case_gamma_rho(s3, ctx2):
    calc = GroupAlgebraCalculus(induced_rep(ctx2, centralizer_character(ctx2, 0)))
    assert calc.lambda_dim == 1
    lb = lambda_basis(calc, preferred=["u"])
    for g in range(s3.n):
        sgn = sign_rep(s3).matrices[g][0][0]
        assert lb.rho_matrix(g) == [[ONE]]
        assert lb.gamma(g) == [[sgn]]


def test_double_calculus(s3, ctx2, ctx3):
    for ctx, j in ((ctx2, 1), (ctx3, 1)):
        calc = DoubleCalculus(ctx, centralizer_character(ctx, j))
        assert calc.inner_check()
        assert calc.leibniz_check()
        for (c, i, d, jj) in calc.form_indices():
            assert calc.grading(c, i, d, jj) == s3.table[c][s3.inv[d]]
        # the exterior derivative of delta_g matches the displayed formula
        g = s3.element("u")
        dd = calc.d_delta(g)
        for c in ctx.cls:
            assert dd[((s3.table[g][s3.inv[c]], 0), (c, 0, c, 0))] == ONE
            assert dd[((g, 0), (c, 0, c, 0))] == -ONE


def test_double_calculus_rejects_trivial_pair(s3):
    ctx1 = class_context(s3, "e")
    from qdouble.reps import irrep_catalog

    trivial = [
        p
        for p in irrep_catalog(ctx1.centralizer)
        if p.dim == 1 and all(m[0][0] == ONE for m in p.matrices)
    ][0]
    with pytest.raises(ValueError):
        DoubleCalculus(ctx1, trivial)


def test_base_calculus_possibilities(s3, ctx2, ctx3):
    # the three possible invariant-form spaces: End(sign), End(2), their sum
    base0, structure0, ver0 = base_calculus_group_algebra(ctx2, centralizer_character(ctx2, 0))
    assert base0.lambda_dim == 1 and ver0 is False and structure0 is not None
    base1, structure1, ver1 = base_calculus_group_algebra(ctx2, centralizer_character(ctx2, 1))
    assert base1.lambda_dim == 4 and ver1 is True and structure1 is None
    basem, _, _ = base_calculus_group_algebra(ctx3, centralizer_character(ctx3, 1))
    assert basem.lambda_dim == 5  # End(sign) + End(2)
    basep, _, _ = base_calculus_group_algebra(ctx3, centralizer_character(ctx3, 0))
    assert basep.lambda_dim == 4


def test_base_calculus_functions(s3, ctx2, ctx3):
    calc, arrows = base_calculus_functions(ctx3, centralizer_character(ctx3, 0))
    vertices = set(ctx3.cls)
    assert calc is not None
    expected = {(a, b) for a in vertices for b in vertices if a != b}
    assert set(arrows) == expected  # the complete graph on three vertices
    calc2, arrows2 = base_calculus_functions(ctx2, centralizer_character(ctx2, 1))
    assert arrows2 == []  # abelian class: quotient graph has no arrows
    ctx1 = class_context(s3, "e")
    from qdouble.reps import irrep_catalog

    calc3, arrows3 = base_calculus_functions(ctx1, irrep_catalog(ctx1.centralizer)[0])
    assert calc3 is None and arrows3 == []


def test_pushforward_dims(s3, ctx2, ctx3):
    calc = DoubleCalculus(ctx2, centralizer_character(ctx2, 1))
    assert calc.pushforward_dims() == (0, 0)
    calc0 = DoubleCalculus(ctx2, centralizer_character(ctx2, 0))
    assert calc0.pushforward_dims() == (2, 0)
    ctx1 = class_context(s3, "e")
    from qdouble.reps import irrep_catalog

    two = [p for p in irrep_catalog(ctx1.centralizer) if p.dim == 2][0]
    calc_e = DoubleCalculus(ctx1, two)
    assert calc_e.pushforward_dims() == (0, 4)


@pytest.mark.parametrize("corrupted", ["u", "v", "w"])
def test_gamma_well_defined_sees_one_corrupted_gamma(s3, ctx2, corrupted, monkeypatch):
    """On the sign block e^u = e^v = e^w, so a gamma changed at any one of
    them must make the check fail."""
    lb = lambda_basis(GroupAlgebraCalculus(induced_rep(ctx2, centralizer_character(ctx2, 0))))
    u, v, w = (s3.element(x) for x in "uvw")
    forms = lb.calculus.e_matrices
    assert la.mat_eq(forms[u], forms[v]) and la.mat_eq(forms[u], forms[w])
    assert lb.gamma_well_defined()
    gamma, bad = lb.gamma, s3.element(corrupted)

    def corrupt(g):
        return [[x + ONE for x in row] for row in gamma(g)] if g == bad else gamma(g)

    monkeypatch.setattr(lb, "gamma", corrupt)
    assert not lb.gamma_well_defined()


def test_gamma_well_defined_s4():
    s4 = FiniteGroup.symmetric(4)
    ctx = class_context(s4, s4.element("s3"))
    from qdouble.reps import irrep_catalog

    for pi in irrep_catalog(ctx.centralizer):
        calc = GroupAlgebraCalculus(induced_rep(ctx, pi))
        lb = lambda_basis(calc)
        assert lb.gamma_well_defined()
        assert lb.gamma_rho_commutation_holds()
