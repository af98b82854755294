"""Reference routes that ``poly`` and ``geometry`` replaced, kept for the tests.

``reference_exact_div`` is the main-variable recursion ``Poly.exact_div``
used before it became leading-term division: the first variable that occurs
in the divisor is the main one, and each step divides leading coefficients
in it recursively.  ``reference_reparameterize`` is
``ConnectionFamily.reparameterize`` as it was, inverting the functional
matrix over ``RatFunc``.  ``reference_det`` is the Bareiss determinant
elimination and ``reference_adjugate`` the cofactor loop, one ``reference_det``
per (n-1)-minor, that ``InnerProduct.det`` and ``InnerProduct.adjugate`` ran
before one Gauss-Jordan pass gave both.
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


def reference_det(rows: list[list[Poly]]) -> Poly:
    n = len(rows)
    rows = [list(r) for r in rows]
    vars_ = rows[0][0].vars
    prev = Poly.constant(1, vars_)
    sign = 1
    for k in range(n - 1):
        if not rows[k][k]:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return Poly.constant(0, vars_)
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                rows[i][j] = num.exact_div(prev)
            rows[i][k] = Poly.constant(0, vars_)
        prev = rows[k][k]
    d = rows[n - 1][n - 1]
    return d if sign > 0 else -d


def reference_adjugate(matrix: list[list[Poly]], variables) -> list[list[Poly]]:
    """adj with adj @ matrix = det * id, each entry a signed minor."""
    n = len(matrix)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            d = reference_det(minor) if minor else Poly.constant(1, variables)
            adj[i][j] = d if (i + j) % 2 == 0 else -d
    return adj
