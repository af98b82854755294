"""The compatibility residuals against the loops they replaced.

``reference_residuals`` is the Riemann loop, kept verbatim in its
arithmetic: it forms the antisymmetrized QQ[a,b,l,p] - QQ[a,b,p,l] again
inside the innermost loop, for every h, i, j, k, m, and rebuilds each
residual with ``Poly`` subtraction term by term.  The package computes the
antisymmetrized tensor once, conjugates it by the generators only and sums
each residual in one sparse map; it must return the reference's list over
the generators, index by index, with the same ``Cyc`` order on every
coefficient, and the reference over every h != e must generate the same
ideal: the same reduced Groebner basis.

``reference_metric_residuals`` and ``reference_star_residuals`` keep the
metric and star loops as they were before the gamma(p^-1) Gamma gamma(p)
gamma(p) conjugation went through ``_contract_leg``: each writes that
conjugation as a six-deep loop of ``Poly`` sums.  The package must return
the same lists in the same way.
"""

import pytest

from qdouble.geometry import (
    LINEAR_FLAGS,
    _dedupe,
    connection_solve,
    metric_compat_residuals,
    riemann_compat_residuals,
    star_compat_residuals,
)
from qdouble.poly import groebner
from qdouble.regression import S3Data


def reference_residuals(family, elements=None, antisymmetrize=True):
    """The residual loop as written before the antisymmetrization was hoisted,
    over the h in ``elements``, by default every h != e.

    With ``antisymmetrize=False`` it uses QQ[a,b,l,p] where the Grassmann
    choice needs QQ[a,b,l,p] - QQ[a,b,p,l]: the negative control."""
    dim = family.dim
    basis = family.basis
    group = basis.group
    if elements is None:
        elements = range(1, group.n)
    G = family.gamma
    out = []

    QQ = {}
    for a in range(dim):
        for b in range(dim):
            for l in range(dim):
                for p in range(dim):
                    total = None
                    for n in range(dim):
                        t = G[(a, l, n)] * G[(n, p, b)]
                        total = t if total is None else total + t
                    QQ[(a, b, l, p)] = total

    def wedge(a, b, l, p):
        return QQ[(a, b, l, p)] - QQ[(a, b, p, l)] if antisymmetrize else QQ[(a, b, l, p)]

    for h in elements:
        gh = basis.gamma(h)
        ghinv = basis.gamma(group.inv[h])
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for m in range(k + 1, dim):
                        res = wedge(i, j, k, m)
                        for a in range(dim):
                            if not ghinv[i][a]:
                                continue
                            for b in range(dim):
                                if not gh[b][j]:
                                    continue
                                outer = ghinv[i][a] * gh[b][j]
                                for l in range(dim):
                                    if not gh[l][k]:
                                        continue
                                    for p in range(dim):
                                        if not gh[p][m]:
                                            continue
                                        scal = outer * gh[l][k] * gh[p][m]
                                        diff = wedge(a, b, l, p)
                                        if diff:
                                            res = res - diff * scal
                        if res:
                            out.append(res)
    return _dedupe(out)


def reference_metric_residuals(family, ip):
    """The metric-compatibility loop with the conjugation written out."""
    dim = family.dim
    basis = family.basis
    adj = ip.adjugate()
    G = family.gamma
    gam = {p: basis.gamma(p) for p in basis.basis}
    gaminv = {p: basis.gamma(basis.group.inv[p]) for p in basis.basis}

    def conjugated(p):
        # T^l_ij = gamma(p^-1)^l_a Gamma^a_bc gamma(p)^b_i gamma(p)^c_j
        gp, gpin = gam[p], gaminv[p]
        T = {}
        for l in range(dim):
            for i in range(dim):
                for j in range(dim):
                    total = None
                    for a in range(dim):
                        if not gpin[l][a]:
                            continue
                        for b in range(dim):
                            if not gp[b][i]:
                                continue
                            for c_ in range(dim):
                                if not gp[c_][j]:
                                    continue
                                t = G[(a, b, c_)] * (gpin[l][a] * gp[b][i] * gp[c_][j])
                                total = t if total is None else total + t
                    T[(l, i, j)] = total
        return T

    T = {p: conjugated(p) for p in basis.basis}
    W = {}
    for l in range(dim):
        for pidx in range(dim):
            for k in range(dim):
                total = None
                for m in range(dim):
                    if adj[l][m]:
                        t = adj[l][m] * G[(m, pidx, k)]
                        total = t if total is None else total + t
                W[(l, pidx, k)] = total
    out = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                total = None
                for l in range(dim):
                    t1 = adj[l][k] * G[(l, i, j)] + adj[j][l] * G[(l, i, k)]
                    total = t1 if total is None else total + t1
                for pidx, p in enumerate(basis.basis):
                    for l in range(dim):
                        w = W[(l, pidx, k)]
                        if w is None:
                            continue
                        diff = T[p][(l, i, j)]
                        diff = (diff - G[(l, i, j)]) if diff is not None else -G[(l, i, j)]
                        if diff:
                            total = total + w * diff
                if total:
                    out.append(total)
    return _dedupe(out)


def reference_star_residuals(family):
    """The star-compatibility loop with the conjugation written out."""
    dim = family.dim
    basis = family.basis
    G = family.gamma
    conjG = family.conjugated()
    gam = {p: basis.gamma(p) for p in basis.basis}
    gaminv = {p: basis.gamma(basis.group.inv[p]) for p in basis.basis}
    bracket = {}
    for uidx, u in enumerate(basis.basis):
        for v in range(dim):
            for j in range(dim):
                for k in range(dim):
                    inner = None
                    for l in range(dim):
                        cl = gaminv[u][v][l]
                        if not cl:
                            continue
                        for pidx in range(dim):
                            gp = gam[u][pidx][j]
                            if not gp:
                                continue
                            for m in range(dim):
                                gm = gam[u][m][k]
                                if not gm:
                                    continue
                                t = G[(l, pidx, m)] * (cl * gp * gm)
                                inner = t if inner is None else inner + t
                    val = G[(v, j, k)]
                    if inner is not None:
                        val = val - inner
                    bracket[(uidx, v, j, k)] = val
    out = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                res = G[(i, j, k)] + conjG[(i, j, k)]
                for uidx in range(dim):
                    for v in range(dim):
                        cstar = conjG[(i, uidx, v)]
                        if not cstar:
                            continue
                        b = bracket[(uidx, v, j, k)]
                        if b:
                            res = res - cstar * b
                if res:
                    out.append(res)
    return _dedupe(out)


def _tagged(polys):
    """Each polynomial as (vars, sorted (exponent, order, coefficients))."""
    return [
        (p.vars, sorted((e, c.order, c.coeffs) for e, c in p.terms.items())) for p in polys
    ]


FAMILIES = {
    "printed_wqlc_slice": lambda d: d.printed_wqlc_slice(),
    "wqlc_rsfx": lambda d: d.wqlc_family(),
    "ip_generic": lambda d: connection_solve(
        d.basis_end2(), d.ip_generic(), ["covariant", "torsion_free", "cotorsion_free"]
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_residuals_equal_the_reference_loop_with_order_tags(name):
    family = FAMILIES[name](S3Data.get())
    got = riemann_compat_residuals(family)
    assert got
    _assert_same_with_tags(got, reference_residuals(family, family.basis.group.generators))


@pytest.mark.parametrize("name", sorted(FAMILIES) + ["s3_all_residuals"])
def test_generators_give_the_ideal_of_every_element(name):
    """The scenario ``tests/scenarios/s3_all_residuals.json`` solves the
    three linear flags on the stratum inner product: 12 residuals over every
    h != e, 10 over the generators."""
    d = S3Data.get()
    if name in FAMILIES:
        family = FAMILIES[name](d)
    else:
        family = connection_solve(d.basis_end2(), d.ip_stratum(), LINEAR_FLAGS)
    got = riemann_compat_residuals(family)
    every = reference_residuals(family)
    if name == "s3_all_residuals":
        assert (len(got), len(every)) == (10, 12)
    assert groebner(got) == groebner(every)


def test_reference_without_antisymmetrization_differs():
    family = S3Data.get().printed_wqlc_slice()
    got = riemann_compat_residuals(family)
    generators = family.basis.group.generators
    assert _tagged(reference_residuals(family, generators, antisymmetrize=False)) != _tagged(got)


def _assert_same_with_tags(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
    assert _tagged(got) == _tagged(want)


@pytest.mark.parametrize("ip", ["ip_generic", "ip_stratum"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_metric_residuals_equal_the_reference_loop_with_order_tags(name, ip):
    d = S3Data.get()
    family = FAMILIES[name](d)
    inner = getattr(d, ip)()
    got = metric_compat_residuals(family, inner)
    assert got
    _assert_same_with_tags(got, reference_metric_residuals(family, inner))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_star_residuals_equal_the_reference_loop_with_order_tags(name):
    family = FAMILIES[name](S3Data.get()).complex_split()
    got = star_compat_residuals(family)
    assert got
    _assert_same_with_tags(got, reference_star_residuals(family))
