"""``poly.dot`` is the chain a1*b1 + a2*b2 + ... started from
``Poly.constant(0, variables)``: the same variables, the same terms in the
same order, and every coefficient with the same (order, num, den)."""

import random
from fractions import Fraction
from operator import add

from qdouble.cyclotomic import Cyc
from qdouble.linalg import _addto
from qdouble.poly import Poly, dot

NAMES = ("x", "y", "z")
ORDERS = (1, 3, 4, 12)


def _exact(p: Poly):
    return p.vars, [(e, (c.order, c.num, c.den)) for e, c in p.terms.items()]


def _chain(pairs, variables=()):
    total = Poly.constant(0, variables)
    for a, b in pairs:
        total = total + a * b
    return total


def _random_cyc(rng):
    order = rng.choice(ORDERS)
    coeffs = [rng.choice((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))) for _ in range(rng.randint(1, 4))]
    return Cyc(order, coeffs)


def _random_poly(rng):
    variables = tuple(rng.sample(NAMES, rng.randint(1, 3)))
    terms = {}
    for _ in range(rng.randint(0, 4)):  # no term: the zero polynomial
        terms[tuple(rng.randint(0, 2) for _ in variables)] = _random_cyc(rng)
    return Poly(variables, terms)


def _random_operand(rng):
    kind = rng.random()
    if kind < 0.2:
        return _random_cyc(rng)
    if kind < 0.3:
        return rng.choice((0, 1, -3))
    return _random_poly(rng)


def _random_pairs(rng):
    pairs = []
    for _ in range(rng.randint(0, 6)):  # no pair: the empty sum
        a = _random_poly(rng)
        b = _random_operand(rng)
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    return pairs


def _random_cases():
    rng = random.Random(35)
    for _ in range(400):
        yield _random_pairs(rng), tuple(rng.sample(NAMES, rng.randint(0, 2)))


def test_dot_is_the_left_to_right_chain():
    for pairs, variables in _random_cases():
        assert _exact(dot(pairs, variables)) == _exact(_chain(pairs, variables)), pairs
        assert _exact(dot(iter(pairs))) == _exact(_chain(pairs))


def test_dot_of_nothing_is_zero_over_the_seed():
    assert _exact(dot([])) == ((), [])
    assert _exact(dot([], ("y", "x"))) == (("y", "x"), [])
    x = Poly.variable("x", ("x",))
    assert _exact(dot([(x, 0), (Poly(("z",)), x)], ("y",))) == (("y", "x", "z"), [])


def _termwise_dot(pairs, variables=()):
    """Negative control: each term product added on its own, so a term that
    cancels inside one product still leaves its order tag in the sum."""
    out = {}
    for a, b in pairs:
        a, b = (p if isinstance(p, Poly) else Poly.constant(p) for p in (a, b))
        merged = tuple(dict.fromkeys(variables + a.vars + b.vars))
        out = Poly._make(variables, out).extend(merged).terms
        variables = merged
        for e1, c1 in a.extend(variables).terms.items():
            for e2, c2 in b.extend(variables).terms.items():
                _addto(out, tuple(map(add, e1, e2)), c1 * c2)
    return Poly._make(variables, out)


def test_a_termwise_sum_fails_the_order_tag_check():
    V = ("x", "y")
    x, y = Poly.variable("x", V), Poly.variable("y", V)
    z3 = Cyc.zeta(3)
    # a rational xy, then a product whose xy terms cancel inside it
    pairs = [(x, y), (x + y * z3, x - y * z3)]
    want = _chain(pairs)
    assert _exact(dot(pairs)) == _exact(want)
    control = _termwise_dot(pairs)
    assert control == want
    assert _exact(control) != _exact(want)
    assert want.terms[(1, 1)].order == 1 and control.terms[(1, 1)].order == 3
