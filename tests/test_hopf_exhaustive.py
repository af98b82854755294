"""Exhaustive Hopf-axiom suites for groups up to order 24.

The structure constants of both the double and its dual are 0/1 on basis
elements, so the exhaustive identities reduce to integer index bookkeeping;
numpy arrays keep the order-24 case fast.
"""

import numpy as np
import pytest

from qdouble.groups import FiniteGroup, class_context


def _tables(group):
    n = group.n
    mul = np.array(group.table, dtype=np.int64)
    inv = np.array(group.inv, dtype=np.int64)
    conj = np.empty((n, n), dtype=np.int64)
    for h in range(n):
        for g in range(n):
            conj[h, g] = group.conj(h, g)
    return n, mul, inv, conj


GROUPS = [
    FiniteGroup.s3_with_uvw_labels(),
    FiniteGroup.cyclic(8),
    FiniteGroup.symmetric(4),
]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"order{g.n}")
def test_double_product_associative(group):
    """(delta_g h)(delta_u v) = [u = h^-1 g h] delta_g (x) hv: associativity
    of nonzero triples reduces to two index identities over (g, h, v)."""
    n, mul, inv, conj = _tables(group)
    g = np.arange(n)[:, None, None]
    h = np.arange(n)[None, :, None]
    v = np.arange(n)[None, None, :]
    hv = mul[h, v]
    # collapse condition for the third factor agrees in both associations
    lhs_cond = conj[inv[hv], g]
    rhs_cond = conj[inv[v], conj[inv[h], g]]
    assert np.array_equal(lhs_cond, rhs_cond)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"order{g.n}")
def test_dual_coproduct_coassociative(group):
    """(Delta (x) id)Delta = (id (x) Delta)Delta for the semidirect coproduct.

    Delta(delta_g (x) h) = sum_f delta_f (x) f^-1 ghg^-1 f (x) delta_{f^-1 g} (x) h.
    Matching the term of the left association with outer split k and inner
    split k^-1 f against the right association with splits (f, k) leaves two
    index identities over (g, h, f, k), checked exhaustively.
    """
    n, mul, inv, conj = _tables(group)
    g = np.arange(n)[:, None, None, None]
    h = np.arange(n)[None, :, None, None]
    f = np.arange(n)[None, None, :, None]
    k = np.arange(n)[None, None, None, :]
    ghg = mul[mul[g, h], inv[g]]
    ko, ki = f, mul[inv[f], k]
    # middle legs agree: (ki^-1 (ko^-1 ghg^-1 ko) ki) both ways
    lhs_mid = conj[inv[ki], conj[inv[ko], ghg]]
    rhs_mid = conj[inv[mul[ko, ki]], ghg]
    assert np.array_equal(lhs_mid, rhs_mid)
    # last delta legs agree: (ko ki)^-1 g = ki^-1 (ko^-1 g)
    lhs_last = mul[inv[mul[ko, ki]], g]
    rhs_last = mul[inv[ki], mul[inv[ko], g]]
    assert np.array_equal(lhs_last, rhs_last)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"order{g.n}")
def test_dual_bialgebra_compatibility(group):
    """Delta(xy) = Delta(x)Delta(y) for the dual double, index form.

    Both sides reduce (for x = delta_g (x) h, y = delta_g (x) v after the
    tensor-algebra delta collapse) to sum_f delta_f (x) f^-1 g(hv)g^-1 f
    (x) delta_{f^-1 g} (x) hv; the identity to check is that the middle legs
    multiply correctly: (f^-1 ghg^-1 f)(f^-1 gvg^-1 f) = f^-1 g(hv)g^-1 f.
    """
    n, mul, inv, conj = _tables(group)
    g = np.arange(n)[:, None, None, None]
    h = np.arange(n)[None, :, None, None]
    v = np.arange(n)[None, None, :, None]
    f = np.arange(n)[None, None, None, :]
    lhs = mul[conj[inv[f], mul[mul[g, h], inv[g]]], conj[inv[f], mul[mul[g, v], inv[g]]]]
    rhs = conj[inv[f], mul[mul[g, mul[h, v]], inv[g]]]
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"order{g.n}")
def test_double_bialgebra_compatibility(group):
    """Delta(xy) = Delta(x)Delta(y) for the double (tensor coproduct).

    For x = delta_g (x) h, y = delta_u (x) v with u = h^-1 g h, the split of
    g as ab must match the split of u as (h^-1 a h)(h^-1 b h).
    """
    n, mul, inv, conj = _tables(group)
    g = np.arange(n)[:, None, None]
    h = np.arange(n)[None, :, None]
    a = np.arange(n)[None, None, :]
    b = mul[inv[a], g]
    u = conj[inv[h], g]
    ca = conj[inv[h], a]
    cb = mul[inv[ca], u]
    assert np.array_equal(cb, conj[inv[h], b])


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"order{g.n}")
def test_antipode_axioms_index_form(group):
    """mult (S (x) id) Delta = unit counit for both structures, via the
    exact sparse implementation on a sampled basis for order 24 and the
    full basis for order <= 8."""
    from qdouble.double import DoubleElement
    from qdouble.cyclotomic import cyc

    n = group.n
    if n <= 8:
        pairs = [(g, h) for g in range(n) for h in range(n)]
    else:
        import random

        rng = random.Random(5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(40)]
    for (g, h) in pairs:
        x = DoubleElement.basis(group, g, h)
        for coproduct, product, antipode in (
            (DoubleElement.dg_coproduct, DoubleElement.dg_mul, DoubleElement.dg_antipode),
            (DoubleElement.dvee_coproduct, DoubleElement.dvee_mul, DoubleElement.dvee_antipode),
        ):
            left = DoubleElement(group)
            right = DoubleElement(group)
            for ((g1, h1), (g2, h2)), c in coproduct(x).items():
                aa = DoubleElement.basis(group, g1, h1)
                bb = DoubleElement.basis(group, g2, h2)
                left = left + product(antipode(aa), bb).scale(c)
                right = right + product(aa, antipode(bb)).scale(c)
            expected = DoubleElement.unit(group).scale(x.counit())
            assert left == expected and right == expected


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"order{g.n}")
def test_cocycle_identity_exhaustive(group):
    for cls_ in group.conjugacy_classes():
        ctx = class_context(group, cls_[0])
        for c in ctx.cls:
            for g in range(group.n):
                for h in range(group.n):
                    lhs = ctx.zeta[c][group.table[g][h]]
                    rhs = group.table[ctx.zeta[group.conj(h, c)][g]][ctx.zeta[c][h]]
                    assert lhs == rhs
