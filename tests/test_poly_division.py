"""Leading-term ``Poly.exact_div``, ``RatFunc`` negation and the ``Cyc``
route of ``ConnectionFamily.reparameterize``, against the reference routes
in ``poly_reference.py``: the same values and the same ``Cyc`` order tags.
"""

import random
from fractions import Fraction

import pytest

from qdouble.cyclotomic import Cyc, _phi
from qdouble.geometry import ConnectionFamily, connection_solve
from qdouble.poly import Poly, RatFunc
from qdouble.regression import S3Data
from poly_reference import reference_exact_div, reference_reparameterize

ORDERS = (1, 3, 4, 12)


def _tagged(p: Poly):
    """The terms with each coefficient's order tag, so equal values at
    different orders compare unequal."""
    return p.vars, {e: (c.order, c.coeffs) for e, c in p.terms.items()}


def _random_cyc(rng):
    n = rng.choice(ORDERS)
    while True:
        c = Cyc(n, [rng.randint(-3, 3) for _ in range(_phi(n))])
        if c:
            return c


def _random_pairs(seed=21, count=300):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        V = ("x", "y", "z")[: rng.randint(1, 3)]
        a, b = (
            Poly(V, {
                tuple(rng.randint(0, 2) for _ in V): _random_cyc(rng)
                for _ in range(rng.randint(1, 4))
            })
            for _ in range(2)
        )
        out.append((a, b))
    return out


def test_exact_div_recovers_the_factor_with_the_reference_tags():
    for a, b in _random_pairs():
        ab = a * b
        q = ab.exact_div(b)
        assert q == a
        assert _tagged(q) == _tagged(reference_exact_div(ab, b))


def test_exact_div_raises_on_a_remainder_and_on_zero():
    nonconstant = 0
    for a, b in _random_pairs(count=60):
        if b.degree() > 0:
            nonconstant += 1
            with pytest.raises(ValueError, match="inexact"):
                (a * b + 1).exact_div(b)
        with pytest.raises(ZeroDivisionError):
            a.exact_div(Poly.constant(0, a.vars))
    assert nonconstant > 40


def _c6_raw_family():
    d = S3Data.get()
    return connection_solve(
        d.basis_end2(), d.ip_stratum(), ["covariant", "torsion_free", "cotorsion_free"]
    )


C6_FUNCTIONALS = [
    ("r", {(3, 2, 2): 1, (3, 3, 3): 1, (3, 0, 0): Fraction(1, 3)}),
    ("s", {(3, 0, 0): Fraction(-1, 6)}),
    ("f", {(3, 3, 3): 1}),
    ("x", {(0, 3, 3): 1}),
]


def test_reparameterize_over_cyc_matches_the_ratfunc_route_on_c6():
    raw = _c6_raw_family()
    new = raw.reparameterize(C6_FUNCTIONALS)
    ref = reference_reparameterize(raw, C6_FUNCTIONALS)
    assert (new.vars, new.params) == (ref.vars, ref.params) == (("r", "s", "f", "x"),) * 2
    assert new.gamma.keys() == ref.gamma.keys()
    for key in ref.gamma:
        assert _tagged(new.gamma[key]) == _tagged(ref.gamma[key]), key
    assert any(c.order > 1 for p in new.gamma.values() for c in p.terms.values())


def test_reparameterize_rejects_a_nonlinear_family():
    V = ("p", "q")
    p, q = (Poly.variable(v, V) for v in V)
    fam = ConnectionFamily(S3Data.get().basis_end2(), {(0, 0, 0): p + p * q, (1, 1, 1): q}, V)
    with pytest.raises(ValueError, match="not constant"):
        fam.reparameterize([("a", {(0, 0, 0): 1}), ("b", {(1, 1, 1): 1})])


def test_ratfunc_negation_keeps_the_reduced_fraction():
    V = ("x", "y")
    x, y = (Poly.variable(v, V) for v in V)
    f = RatFunc(x * x + y * Cyc.zeta(3), (x - y) * (x + 1))
    g = -f
    assert _tagged(g.num) == _tagged(-f.num)
    assert _tagged(g.den) == _tagged(f.den)
    assert g + f == 0
