import re

import pytest

from qdouble.cyclotomic import cyc
from qdouble.groups import FiniteGroup, class_context
from qdouble.double import centralizer_irreps
from qdouble.reps import induced_rep
from qdouble.calculus import fodc_group_algebra, lambda_basis
from qdouble.poly import Poly, groebner, normal_form
from qdouble.geometry import (
    InnerProduct,
    ip_from_lengths,
    covariant_operator,
    operator_is_covariant,
    is_second_order,
    ip_from_laplacian,
    connection_solve,
    residuals_vanish,
    metric_compat_residuals,
    strip_monomial_content,
    geometric_laplacian,
)
from qdouble.regression import S3Data, printed_wqlc_matrices


@pytest.fixture(scope="module")
def data():
    return S3Data.get()


def test_lengths_must_cover_classes(data):
    with pytest.raises(ValueError):
        ip_from_lengths(data.basis_end2(), {"u": 1})


@pytest.mark.parametrize(
    "lengths, message",
    [
        ({"u": 1, "uv": 2, "w": 1}, "lengths: 'u' and 'w' name one conjugacy class"),
        ({"e": 0, "u": 1, "uv": 2}, "lengths: 'e' is the identity"),
    ],
    ids=["one-class-twice", "identity"],
)
def test_lengths_name_each_nonidentity_class_once(data, lengths, message):
    """A second key in one class is refused even with an equal value, and the
    identity's length is fixed at 0, so neither can be given."""
    with pytest.raises(ValueError, match=re.escape(message)):
        InnerProduct(data.basis_end2(), lengths)


def test_lengths_agree_on_inverse_classes(data):
    # uv and vu lie in the same class here; a different value under the same
    # class key is caught when both are given
    ip = ip_from_lengths(data.basis_end2(), {"u": 2, "uv": 3})
    assert ip.length_of(data.uv) == ip.length_of(data.vu)


def test_zero_lengths_degenerate(data):
    ip = ip_from_lengths(data.basis_end2(), {"u": 0, "uv": 0})
    assert all(not x for row in ip.matrix for x in row)
    assert ip.det().is_zero()


def _metric_conditions_on_all_triples(ip):
    """Reference: the translation and conjugation identities for every u in G."""
    group = ip.group
    for g in range(group.n):
        for h in range(group.n):
            base = ip.pair_elements(g, h)
            for u in range(group.n):
                gu, hu = group.table[g][u], group.table[h][u]
                rhs = (
                    ip.pair_elements(gu, hu)
                    - ip.pair_elements(gu, u)
                    - ip.pair_elements(u, hu)
                    + ip.pair_elements(u, u)
                )
                if base != rhs:
                    return False
                if base != ip.pair_elements(
                    group.conj(group.inv[u], g), group.conj(group.inv[u], h)
                ):
                    return False
    return True


def _generic_s3_inner_product(data):
    V = ("l1", "l2")
    return InnerProduct(
        data.basis_end2(), {"u": Poly.variable("l1", V), "uv": Poly.variable("l2", V)}, V
    )


def _generic_s4_inner_product():
    s4 = FiniteGroup.symmetric(4)
    ctx = class_context(s4, s4.element("s3"))
    basis = lambda_basis(fodc_group_algebra(induced_rep(ctx, centralizer_irreps(ctx)[0])))
    reps = [c[0] for c in s4.conjugacy_classes() if c[0]]
    V = tuple(f"l{k}" for k in range(len(reps)))
    return InnerProduct(basis, {g: Poly.variable(v, V) for g, v in zip(reps, V)}, V)


def test_metric_conditions_on_generators_agree_with_all_triples(data):
    for ip in (_generic_s3_inner_product(data), _generic_s4_inner_product()):
        assert ip.metric_conditions_hold()
        assert _metric_conditions_on_all_triples(ip)


def test_nonzero_identity_length_fails_the_metric_conditions(data):
    ip = _generic_s3_inner_product(data)
    ip.lengths[0] = Poly.constant(1, ip.vars)
    assert not ip.metric_conditions_hold()
    assert not _metric_conditions_on_all_triples(ip)


def test_sign_calculus_single_length(data):
    calc = fodc_group_algebra(induced_rep(data.ctx2, data.pi[0]))
    lb = lambda_basis(calc, preferred=["u"])
    V = ("l",)
    ip = ip_from_lengths(lb, {"u": Poly.variable("l", V), "uv": 0}, V)
    assert ip.matrix == [[Poly.variable("l", V)]]
    assert not ip.is_regular_candidate()


def test_covariant_operator_refuses_two_keys_in_one_class(data):
    with pytest.raises(ValueError, match="eigenvalues: 'u' and 'w' name one conjugacy class"):
        covariant_operator(data.G, {"e": 0, "u": 5, "w": 6, "uv": 7})


def test_covariant_operator_and_checks(data):
    s3 = data.G
    lam = covariant_operator(s3, {"e": 0, "u": 5, "uv": 7})
    matrix = [[cyc(lam[g]) if g == h else cyc(0) for g in range(6)] for h in range(6)]
    assert operator_is_covariant(s3, matrix)
    bad = [row[:] for row in matrix]
    bad[1][1] = cyc(99)  # breaks class constancy
    assert not operator_is_covariant(s3, bad)
    bad2 = [row[:] for row in matrix]
    bad2[0][1] = cyc(1)  # off-diagonal
    assert not operator_is_covariant(s3, bad2)


def test_second_order_and_mass_length(data):
    V = ("l1", "l2")
    ip = data.ip_generic()
    lam = {
        "e": Poly.constant(0, V),
        "u": Poly.variable("l1", V),
        "uv": Poly.variable("l2", V),
    }
    assert is_second_order(data.G, lam, ip)
    bad = dict(lam)
    bad["u"] = Poly.variable("l1", V) + Poly.constant(1, V)
    assert not is_second_order(data.G, bad, ip)


def test_ip_from_laplacian_roundtrip(data):
    V = ("a", "b")
    lam = {"e": 0, "u": Poly.variable("a", V), "uv": Poly.variable("b", V)}
    ip = ip_from_laplacian(data.basis_end2(), lam, V)
    # real class-symmetric eigenvalues: lengths equal the eigenvalues
    assert ip.length_of(data.u) == Poly.variable("a", V)
    assert ip.length_of(data.uv) == Poly.variable("b", V)
    with pytest.raises(ValueError):
        ip_from_laplacian(data.basis_end2(), {"e": 1, "u": 1, "uv": 1})


def test_box_of_identity_is_zero(data):
    fam = data.printed_wqlc_slice()
    geo = geometric_laplacian(fam, data.ip_stratum())
    assert not geo[0]


def test_wqlc_dimensions_true_values(data):
    assert data.wqlc_family().n_params() == 4
    gen = connection_solve(
        data.basis_end2(), data.ip_generic(), ["covariant", "torsion_free", "cotorsion_free"]
    )
    assert gen.n_params() == 2


def test_paper_family_is_the_x0_slice(data):
    paper = printed_wqlc_matrices()
    slice3 = data.printed_wqlc_slice()
    for key, value in paper.items():
        assert slice3.gamma[key] == value


def test_covariant_only_space_is_11_dimensional(data):
    fam = connection_solve(data.basis_end2(), None, ["covariant"])
    assert fam.n_params() == 11


def test_covariant_torsion_space_is_7_dimensional(data):
    fam = connection_solve(data.basis_end2(), None, ["covariant", "torsion_free"])
    assert fam.n_params() == 7


def test_unknown_flag_rejected(data):
    with pytest.raises(ValueError):
        connection_solve(data.basis_end2(), None, ["covariant", "bogus"])


def test_metric_compat_solution_is_zero_connection(data):
    fam = data.wqlc_family()
    res = metric_compat_residuals(fam, data.ip_stratum())
    assert residuals_vanish(res, {"r": 0, "s": 0, "f": 0, "x": 0})
    P4 = ("r", "s", "f", "x")
    basis = groebner([strip_monomial_content(r, keep=P4) for r in res])
    for t in P4:
        assert not normal_form(Poly.variable(t, P4), basis)


def test_maurer_cartan_connection(data):
    """Gamma = 0: flat, torsion free with Grassmann forms, eigenvalues the
    lengths."""
    fam = data.wqlc_family().substitute({"r": 0, "s": 0, "f": 0, "x": 0})
    from qdouble.geometry import curvature

    assert all(not x for x in curvature(fam).values())
    geo = geometric_laplacian(fam, data.ip_stratum())
    for g in range(6):
        assert geo[g] == data.ip_stratum().length_of(g)
