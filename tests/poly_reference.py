"""Reference routes that ``poly`` and ``geometry`` replaced, kept for the tests.

``reference_exact_div`` is the main-variable recursion ``Poly.exact_div``
used before it became leading-term division: the first variable that occurs
in the divisor is the main one, and each step divides leading coefficients
in it recursively.  ``reference_reparameterize`` is
``ConnectionFamily.reparameterize`` as it was, inverting the functional
matrix over ``RatFunc``.
"""

from qdouble import linalg
from qdouble.cyclotomic import cyc
from qdouble.geometry import ConnectionFamily
from qdouble.poly import Poly, RatFunc


def _divmod_multivar(a: Poly, b: Poly):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    main = None
    for i, v in enumerate(b.vars):
        if any(e[i] for e in b.terms):
            main = v
            break
    if main is None:
        inv = b.constant_term().inverse()
        return Poly._make(a.vars, {e: c * inv for e, c in a.terms.items()}), Poly._make(a.vars, {})
    q = Poly.constant(0, a.vars)
    r = a
    db = b.degree(main)
    lead_b = b.coeff_of(main, db)
    while r and r.degree(main) >= db:
        dr = r.degree(main)
        lead_r = r.coeff_of(main, dr)
        try:
            factor = reference_exact_div(lead_r, lead_b)
        except ValueError:
            break
        shift = Poly.variable(main, a.vars) ** (dr - db)
        q = q + factor * shift
        r = r - factor * shift * b
        if r and r.degree(main) == dr:
            break
    return q, r


def reference_exact_div(a: Poly, b: Poly) -> Poly:
    a, b = a._align(b)
    q, r = _divmod_multivar(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def reference_reparameterize(fam: ConnectionFamily, functionals) -> ConnectionFamily:
    old = list(fam.params)
    names = tuple(n for n, _ in functionals)
    mat = []
    const = []
    for name, spec in functionals:
        combo = Poly.constant(0, fam.vars)
        for key, coeff in spec.items():
            combo = combo + fam.gamma[key] * cyc(coeff)
        mat.append([combo.coeff_of(p, 1) for p in old])
        const.append(combo.substitute({p: 0 for p in old}))
    inv = linalg.inverse([[RatFunc(x) for x in row] for row in mat])
    bindings = {}
    for b, p in enumerate(old):
        expr = RatFunc(Poly.constant(0, names))
        for a, name in enumerate(names):
            expr = expr + inv[b][a] * RatFunc(Poly.variable(name, names) - const[a])
        bindings[p] = expr.as_poly()
    out = {k: v.substitute(bindings) for k, v in fam.gamma.items()}
    return ConnectionFamily(fam.basis, out, names)
