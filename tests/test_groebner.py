"""The Gröbner-basis engine against the devices it replaced and against sympy.

``membership_certificate`` is the degree-bounded Macaulay certificate the
regression suite used before ``groebner`` and ``normal_form``, kept here as
a reference: whatever it certifies, the engine must certify.  Its span is
built once per residual set and degree (``certificate_span``) and serves
every target.
"""

import functools
import itertools
import random

import sympy

from qdouble import linalg
from qdouble.linalg import _addto
from qdouble.calculus import GroupAlgebraCalculus, lambda_basis
from qdouble.dualgeometry import dual_constraints
from qdouble.geometry import (
    ConnectionFamily,
    ip_from_lengths,
    laplacian_consistency_residuals,
    metric_compat_residuals,
    riemann_compat_residuals,
    star_compat_residuals,
    strip_monomial_content,
)
from qdouble.poly import Poly, RatFunc, groebner, normal_form
from qdouble.regression import S3Data
from qdouble.reps import induced_rep, irrep_catalog


def _monomials_upto(variables, degree):
    out = [()]
    for d in range(1, degree + 1):
        out.extend(itertools.combinations_with_replacement(variables, d))
    return out


def membership_certificate(residuals, target: Poly, params, degree: int = 1) -> bool:
    """Decide whether target = sum h_i R_i with deg(h_i) <= degree in the
    parameters, by exact linear algebra over the remaining variables' field.

    A positive answer certifies that target vanishes on every common zero of
    the residuals (for generic values of the non-parameter coefficients).
    """
    residuals = [strip_monomial_content(r, keep=params) for r in residuals if r]
    if not residuals:
        return not target
    allvars = tuple(dict.fromkeys(sum((r.vars for r in residuals), target.vars)))
    params = tuple(p for p in params if p in allvars)
    base = tuple(v for v in allvars if v not in params)
    scalar_field = not any(
        r.degree(b) > 0 for r in residuals for b in base
    ) and not any(target.degree(b) > 0 for b in base if b in target.vars)
    span = certificate_span(tuple(residuals), allvars, params, scalar_field, degree)
    return span.contains(_split(target.extend(allvars), params, scalar_field))


def _split(poly, params, scalar_field):
    """Sparse row keyed by param-monomials; Cyc or RatFunc coefficients."""
    pidx = [poly.vars.index(p) for p in params]
    bidx = [i for i, v in enumerate(poly.vars) if v not in params]
    out = {}
    for exp, c in poly.terms.items():
        key = tuple(exp[i] for i in pidx)
        if scalar_field:
            _addto(out, key, c)
        else:
            rest = [0] * len(poly.vars)
            for i in bidx:
                rest[i] = exp[i]
            bucket = out.setdefault(key, {})
            bucket[tuple(rest)] = c
    if scalar_field:
        return out
    return {
        k: RatFunc(Poly(poly.vars, v))
        for k, v in out.items()
        if any(bool(c) for c in v.values())
    }


@functools.cache
def certificate_span(residuals, allvars, params, scalar_field, degree):
    """The span of m R_i over the residuals R_i and the parameter monomials m
    of degree <= degree, built once per argument tuple: ``contains`` reduces
    a copy of its row, so the span serves every target."""
    span = linalg.SparseSpan()
    for r in residuals:
        r = r.extend(allvars)
        for mono in _monomials_upto(params, degree):
            m = r
            for v in mono:
                m = m * Poly.variable(v, allvars)
            span.add(_split(m, params, scalar_field))
    return span


P3 = ("r", "s", "f")
P4 = ("r", "s", "f", "x")


def _metric_residuals():
    d = S3Data.get()
    return metric_compat_residuals(d.wqlc_family(), d.ip_stratum())


def _riemann_slice(s):
    rres = riemann_compat_residuals(S3Data.get().printed_wqlc_slice())
    return [x for x in (p.substitute({"s": s}) for p in rres) if x]


def _star_cases():
    """(residuals, params, target, multiplier degree) for criterion 6's star
    targets: each t at degree 1, and t^2 at degree 2, where the old suite
    escalated to certify the last of them."""
    cfam = S3Data.get().printed_wqlc_slice().complex_split()
    sres = star_compat_residuals(cfam)
    P6 = cfam.params

    def pv(n):
        return Poly.variable(n, P6)

    targets = [pv("s_re"), pv("s_im"), pv("f_re"), pv("r_re"), pv("r_im") - pv("f_im")]
    return [(sres, P6, t, 1) for t in targets] + [(sres, P6, t * t, 2) for t in targets]


def _laplacian_case():
    """Criterion 8: the sign calculus forces lambda_2 = 0."""
    d = S3Data.get()
    lb1 = lambda_basis(GroupAlgebraCalculus(induced_rep(d.ctx2, d.pi[0])), preferred=["u"])
    W = ("l", "g0", "lam1", "lam2")
    ip1 = ip_from_lengths(lb1, {"u": Poly.variable("l", W), "uv": 0}, W)
    fam1 = ConnectionFamily(lb1, {(0, 0, 0): Poly.variable("g0", W)}, ("g0",))
    res1 = laplacian_consistency_residuals(
        fam1, ip1, {"e": 0, "u": Poly.variable("lam1", W), "uv": Poly.variable("lam2", W)}
    )
    return res1, ("g0", "lam1", "lam2"), Poly.variable("lam2", W), 1


def _dual_case():
    """Criterion 9, S = {uv, vu}: the constraints force lambda*_sign = 0."""
    d = S3Data.get()
    irreps = irrep_catalog(d.G)
    triv = [r for r in irreps if r.is_trivial()][0]
    sign = [r for r in irreps if r.dim == 1 and r is not triv][0]
    two = [r for r in irreps if r.dim == 2][0]
    names = {triv.name: None, sign.name: "a1", two.name: "a2"}
    cons, _ = dual_constraints(d.G, ["uv", "vu"], {d.uv: "w1"}, names)
    return cons, ("a1", "a2"), Poly.variable("a1", cons[0].vars), 1


def _stripped_metric_residuals():
    return [strip_monomial_content(r, keep=P4) for r in _metric_residuals()]


def test_every_certificate_positive_is_an_engine_positive():
    """On the targets of criteria 6, 8 and 9, each on the ideal the suite uses."""
    mres = _stripped_metric_residuals()
    cases = [(mres, P4, Poly.variable(t, P4), 1) for t in P4]
    cases += _star_cases() + [_laplacian_case(), _dual_case()]
    positives = 0
    for residuals, params, target, degree in cases:
        if membership_certificate(residuals, target, params, degree=degree):
            positives += 1
            assert not normal_form(target, groebner(residuals)), target
    # r, s, f, x; s_re and the five squares; lambda_2; lambda*_sign
    assert positives == 12


def test_engine_decides_membership_past_any_degree_bound():
    V = ("x", "y")
    x, y = Poly.variable("x", V), Poly.variable("y", V)
    ideal = [x - y * y, y ** 4]
    assert not membership_certificate(ideal, x ** 3, V, degree=2)
    assert not normal_form(x ** 3, groebner(ideal))
    assert normal_form(x ** 2 - y, groebner(ideal))


def test_s_is_not_forced_by_riemann_compatibility():
    rres = riemann_compat_residuals(S3Data.get().printed_wqlc_slice())
    assert normal_form(Poly.variable("s", P3), groebner(rres))


def _to_sympy(p: Poly, gens):
    sym = dict(zip(p.vars, gens))
    return sympy.expand(
        sum(
            sympy.Rational(c.as_rational())
            * sympy.Mul(*(sym[v] ** e for v, e in zip(p.vars, exp)))
            for exp, c in p.terms.items()
        )
    )


def test_reduced_basis_matches_sympy_on_rational_systems():
    for polys in (_stripped_metric_residuals(), _riemann_slice(0), _riemann_slice(1)):
        basis = groebner(polys)
        gens = sympy.symbols(basis[0].vars)
        reference = sympy.groebner(
            [_to_sympy(p, sympy.symbols(p.vars)) for p in polys], *gens, order="grevlex", domain="QQ"
        )
        assert {_to_sympy(g, gens) for g in basis} == set(reference.exprs)


def _seeded_random_systems():
    """Up to three polynomials in x, y, z with small integer coefficients;
    these reach the pair criteria in ways the regression systems do not."""
    rng = random.Random(1)
    V = ("x", "y", "z")
    xs = [Poly.variable(v, V) for v in V]
    for _ in range(100):
        polys = []
        for _ in range(rng.randint(1, 3)):
            p = Poly.constant(0, V)
            for _ in range(rng.randint(1, 4)):
                m = Poly.constant(rng.randint(-3, 3), V)
                for x in xs:
                    m = m * x ** rng.randint(0, 2)
                p = p + m
            polys.append(p)
        yield polys


def test_reduced_basis_matches_sympy_on_seeded_random_systems():
    gens = sympy.symbols(("x", "y", "z"))
    for polys in _seeded_random_systems():
        basis = groebner(polys)
        reference = sympy.groebner(
            [_to_sympy(p, gens) for p in polys], *gens, order="grevlex", domain="QQ"
        )
        assert {_to_sympy(g, sympy.symbols(g.vars)) for g in basis} == set(reference.exprs)


def test_reduced_basis_does_not_depend_on_the_input_order():
    """Shuffled generators give the same reduced basis, in the same order."""
    star = star_compat_residuals(S3Data.get().printed_wqlc_slice().complex_split())
    systems = [_stripped_metric_residuals(), star, _riemann_slice(0), _riemann_slice(1)]
    rng = random.Random(7)
    for polys in systems + list(_seeded_random_systems()):
        basis = groebner(polys)
        for _ in range(3):
            shuffled = list(polys)
            rng.shuffle(shuffled)
            again = groebner(shuffled)
            assert [g.vars for g in again] == [g.vars for g in basis]
            assert again == basis
