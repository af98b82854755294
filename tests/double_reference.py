"""Test-side reference: the twelve structure maps of D(G), D~(G) and BD(G)
as closed formulas, one loop per map, as the package wrote them before they
went through ``DoubleElement``'s four shared rules (product, coproduct,
relabel, contraction).

Each unary or binary map returns the zero-free terms {(g, h): Cyc} (a
coproduct, {((g, h), (g', h')): Cyc}); the two forms return a Cyc.  The
terms of each argument are read in their stored order and every sum is
made in the same order, so a coefficient's order tag is comparable too.
"""

from qdouble.cyclotomic import ZERO
from qdouble.linalg import _accumulate, _addto


def dg_mul(x, y):
    g_ = x.group
    out = {}
    for (g, h), a in x.terms.items():
        for (u, v), b in y.terms.items():
            if g == g_.conj(h, u):
                _addto(out, (g, g_.table[h][v]), a * b)
    return out


def dvee_mul(x, y):
    g_ = x.group
    out = {}
    for (g, h), a in x.terms.items():
        for (u, v), b in y.terms.items():
            if g == u:
                _addto(out, (g, g_.table[h][v]), a * b)
    return out


def dg_coproduct(x):
    g_ = x.group
    return _accumulate(
        (((a, h), (g_.table[g_.inv[a]][g], h)), coeff) for (g, h), coeff in x.terms.items() for a in range(g_.n)
    )


def dvee_coproduct(x):
    g_ = x.group
    out = {}
    for (g, h), coeff in x.terms.items():
        ghg = g_.word(g, h, g_.inv[g])
        for f in range(g_.n):
            _addto(out, ((f, g_.conj(g_.inv[f], ghg)), (g_.table[g_.inv[f]][g], h)), coeff)
    return out


def dg_antipode(x):
    g_ = x.group
    return _accumulate(((g_.conj(g_.inv[h], g_.inv[g]), g_.inv[h]), c) for (g, h), c in x.terms.items())


def dvee_antipode(x):
    g_ = x.group
    return _accumulate(((g_.inv[g], g_.word(g, g_.inv[h], g_.inv[g])), c) for (g, h), c in x.terms.items())


def star(x):
    g_ = x.group
    return _accumulate(((g_.conj(g_.inv[h], g), g_.inv[h]), c.conj()) for (g, h), c in x.terms.items())


def braided_antipode(x):
    g_ = x.group
    out = {}
    for (g, h), c in x.terms.items():
        comm = g_.commutator(g_.inv[g], h)
        _addto(out, (g_.table[comm][g_.inv[g]], g_.word(g, g_.inv[h], g_.inv[g])), c)
    return out


def adjoint_act(x, f):
    g_ = x.group
    return _accumulate(((g_.conj(f, g), g_.conj(f, h)), c) for (g, h), c in x.terms.items())


def beta(x):
    g_ = x.group
    return _accumulate(((g, g_.conj(g_.inv[g], h)), c) for (g, h), c in x.terms.items())


def pairing(a, b):
    g_ = a.group
    total = ZERO
    for (g, h), ca in a.terms.items():
        cb = b.terms.get((g_.inv[h], g_.inv[g]))
        if cb:
            total = total + ca * cb
    return total


def killing_Q(a, b):
    g_ = a.group
    total = ZERO
    for (u, v), cb in b.terms.items():
        ca = a.terms.get((g_.conj(u, v), u))
        if ca:
            total = total + ca * cb
    return total
