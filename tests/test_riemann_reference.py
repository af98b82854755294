"""``riemann_compat_residuals`` against the loop it replaced.

``reference_residuals`` is that loop, kept verbatim in its arithmetic: it
forms the antisymmetrized QQ[a,b,l,p] - QQ[a,b,p,l] again inside the
innermost loop, for every h, i, j, k, m, and rebuilds each residual with
``Poly`` subtraction term by term.  The package computes the antisymmetrized
tensor once and sums each residual in one sparse map; it must return the
same list, index by index, with the same ``Cyc`` order on every coefficient.
"""

import pytest

from qdouble.geometry import _dedupe, connection_solve, riemann_compat_residuals
from qdouble.regression import S3Data


def reference_residuals(family, antisymmetrize=True):
    """The residual loop as written before the antisymmetrization was hoisted.

    With ``antisymmetrize=False`` it uses QQ[a,b,l,p] where the Grassmann
    choice needs QQ[a,b,l,p] - QQ[a,b,p,l]: the negative control."""
    dim = family.dim
    basis = family.basis
    group = basis.group
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

    for h in range(1, group.n):
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
    want = reference_residuals(family)
    assert got
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
    assert _tagged(got) == _tagged(want)


def test_reference_without_antisymmetrization_differs():
    family = S3Data.get().printed_wqlc_slice()
    got = riemann_compat_residuals(family)
    assert _tagged(reference_residuals(family, antisymmetrize=False)) != _tagged(got)
