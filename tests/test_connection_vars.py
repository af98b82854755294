"""A connection family carries exactly the variables that occur in it.

``ConnectionFamily`` re-expresses every entry over one tuple ``fam.vars``:
the variables that occur in some entry, in the order the entries list them.
Retired parameters and unused metric lengths are dropped, and the
compatibility residuals must not depend on whether they are there.
"""

import copy

import pytest

from qdouble.calculus import GroupAlgebraCalculus, lambda_basis
from qdouble.geometry import (
    ConnectionFamily,
    connection_solve,
    metric_compat_residuals,
    riemann_compat_residuals,
    star_compat_residuals,
)
from qdouble.poly import Poly
from qdouble.reps import induced_rep
from qdouble.regression import S3Data

LINEAR = ["covariant", "torsion_free", "cotorsion_free"]

# (family, inner product, the tuple its entries were built over when every
# retired parameter and every metric length stayed in it)
FAMILIES = {
    "wqlc": (
        lambda d: d.wqlc_family(),
        "stratum",
        ("l2", "p0", "p1", "p2", "p3", "r", "s", "f", "x"),
    ),
    "printed_slice": (
        lambda d: d.printed_wqlc_slice(),
        "stratum",
        ("l2", "p0", "p1", "p2", "p3", "r", "s", "f", "x"),
    ),
    "complex_split": (
        lambda d: d.printed_wqlc_slice().complex_split(),
        "stratum",
        ("l2", "p0", "p1", "p2", "p3", "r", "s", "f", "x")
        + ("r_re", "r_im", "s_re", "s_im", "f_re", "f_im"),
    ),
    "substitute_x0": (
        lambda d: d.wqlc_family().substitute({"x": 0}),
        "stratum",
        ("l2", "p0", "p1", "p2", "p3", "r", "s", "f", "x"),
    ),
    "generic": (
        lambda d: connection_solve(d.basis_end2(), d.ip_generic(), LINEAR),
        "generic",
        ("l1", "l2", "p0", "p1"),
    ),
}


def _family(name):
    d = S3Data.get()
    build, ip_name, _ = FAMILIES[name]
    ip = d.ip_stratum() if ip_name == "stratum" else d.ip_generic()
    return build(d), ip


def _occurring(poly):
    return {v for exp in poly.terms for v, e in zip(poly.vars, exp) if e}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_vars_are_exactly_the_occurring_variables(name):
    fam, _ = _family(name)
    occurring = set().union(*(_occurring(p) for p in fam.gamma.values()))
    assert set(fam.vars) == occurring
    assert len(fam.vars) == len(occurring)
    assert all(p.vars == fam.vars for p in fam.gamma.values())


def test_a_hand_built_family_keeps_only_its_occurring_variable():
    d = S3Data.get()
    lb1 = lambda_basis(GroupAlgebraCalculus(induced_rep(d.ctx2, d.pi[0])), preferred=["u"])
    W = ("l", "g0")
    fam = ConnectionFamily(lb1, {(0, 0, 0): Poly.variable("g0", W)}, ("g0",))
    assert fam.vars == ("g0",)
    assert fam.gamma[(0, 0, 0)].vars == ("g0",)
    assert fam.gamma[(0, 0, 0)] == Poly.variable("g0", W)


def test_extend_drops_only_variables_that_do_not_occur():
    V = ("x", "y", "z")
    p = Poly.variable("x", V) * Poly.variable("z", V) + 3
    narrow = p.extend(("z", "x"))
    assert narrow.vars == ("z", "x") and narrow == p
    with pytest.raises(ValueError):
        p.extend(("x", "y"))


def _padded(fam, wider):
    """A copy of ``fam`` whose entries carry the dead variables of ``wider``,
    made without the constructor, which would drop them again."""
    out = copy.copy(fam)
    out.vars = wider
    out.gamma = {k: v.extend(wider) for k, v in fam.gamma.items()}
    return out


def _tagged(polys):
    """Each polynomial as its sorted terms, each exponent named by variable,
    with the ``Cyc`` order and coefficients: equal over any variable tuple."""
    return [
        sorted(
            (tuple((v, e) for v, e in zip(p.vars, exp) if e), c.order, c.coeffs)
            for exp, c in p.terms.items()
        )
        for p in polys
    ]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_residuals_do_not_depend_on_dead_variables(name):
    fam, ip = _family(name)
    wider = FAMILIES[name][2]
    assert set(fam.vars) < set(wider)
    pad = _padded(fam, wider)
    assert all(p.vars == wider for p in pad.gamma.values())
    for residuals in (
        lambda f: metric_compat_residuals(f, ip),
        star_compat_residuals,
        riemann_compat_residuals,
    ):
        got, want = residuals(fam), residuals(pad)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w
        assert _tagged(got) == _tagged(want)
