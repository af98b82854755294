"""The twelve structure maps of the double, each stated through one of
``DoubleElement``'s four rules, against the closed formulas of
``double_reference``: entry by entry, with each coefficient's order tag,
numerators and denominator, on every basis key of S3 and S4 (every basis
pair for the two products and the two forms) and on random sparse elements
whose coefficients are rationals and roots of unity of orders 3, 4 and 12."""

import random

import pytest

import double_reference as ref
from qdouble.cyclotomic import Cyc, cyc, root_of_unity
from qdouble.double import DoubleElement, beta, killing_Q, pairing
from qdouble.groups import FiniteGroup

GROUPS = {"S3": FiniteGroup.s3_with_uvw_labels, "S4": lambda: FiniteGroup.symmetric(4)}

UNARY = {
    "dg_coproduct": (DoubleElement.dg_coproduct, ref.dg_coproduct),
    "dvee_coproduct": (DoubleElement.dvee_coproduct, ref.dvee_coproduct),
    "dg_antipode": (DoubleElement.dg_antipode, ref.dg_antipode),
    "dvee_antipode": (DoubleElement.dvee_antipode, ref.dvee_antipode),
    "star": (DoubleElement.star, ref.star),
    "braided_antipode": (DoubleElement.braided_antipode, ref.braided_antipode),
    "beta": (beta, ref.beta),
}

BINARY = {
    "dg_mul": (DoubleElement.dg_mul, ref.dg_mul),
    "dvee_mul": (DoubleElement.dvee_mul, ref.dvee_mul),
    "pairing": (pairing, ref.pairing),
    "killing_Q": (killing_Q, ref.killing_Q),
}


def _exact(value):
    """A Cyc as (order tag, numerators, denominator); the terms of an element
    or a coproduct as the list of (key, that triple) in their stored order."""
    if isinstance(value, Cyc):
        return value.order, value.num, value.den
    terms = value.terms if isinstance(value, DoubleElement) else value
    return [(key, _exact(c)) for key, c in terms.items()]


def _basis(group):
    return [DoubleElement.basis(group, g, h) for g in range(group.n) for h in range(group.n)]


def _random_element(group, rng):
    """A few terms, each a small integer times a root of unity of order 1,
    3, 4 or 12, so that products collide, cancel and mix order tags."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        order = rng.choice((1, 3, 4, 12))
        key = (rng.randrange(group.n), rng.randrange(group.n))
        terms[key] = cyc(rng.choice((-2, -1, 1, 2))) * root_of_unity(order, rng.randrange(order))
    return DoubleElement(group, terms)


@pytest.fixture(scope="module", params=sorted(GROUPS))
def group(request):
    return GROUPS[request.param]()


@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_map_on_every_basis_key(group, name):
    package, closed = UNARY[name]
    bad = [x for x in _basis(group) if _exact(package(x)) != _exact(closed(x))]
    assert not bad, bad[:3]


def test_adjoint_action_on_every_basis_key_and_group_element(group):
    bad = [
        (x, f)
        for x in _basis(group)
        for f in range(group.n)
        if _exact(x.adjoint_act(f)) != _exact(ref.adjoint_act(x, f))
    ]
    assert not bad, bad[:3]


@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_map_on_every_basis_pair(group, name):
    package, closed = BINARY[name]
    basis = _basis(group)
    bad = [(x, y) for x in basis for y in basis if _exact(package(x, y)) != _exact(closed(x, y))]
    assert not bad, bad[:3]


def test_every_map_on_random_sparse_elements(group):
    rng = random.Random(38)
    orders = set()
    for _ in range(60):
        x, y = _random_element(group, rng), _random_element(group, rng)
        orders.update(c.order for c in x.terms.values())
        for name, (package, closed) in UNARY.items():
            assert _exact(package(x)) == _exact(closed(x)), (name, x)
        f = rng.randrange(group.n)
        assert _exact(x.adjoint_act(f)) == _exact(ref.adjoint_act(x, f)), ("adjoint_act", x, f)
        for name, (package, closed) in BINARY.items():
            assert _exact(package(x, y)) == _exact(closed(x, y)), (name, x, y)
    assert orders == {1, 3, 4, 12}


def test_a_wrong_conjugation_in_the_reference_product_is_caught(group):
    """Negative control: a D(G) product that tests g = u h u^-1, the
    conjugation the wrong way round, disagrees with the package on some pair."""

    def flipped(x, y):
        g_ = x.group
        out = {}
        for (g, h), a in x.terms.items():
            for (u, v), b in y.terms.items():
                if g == g_.conj(u, h):
                    out[g, g_.table[h][v]] = out.get((g, g_.table[h][v]), cyc(0)) + a * b
        return out

    basis = _basis(group)
    assert any(_exact(x.dg_mul(y)) != _exact(flipped(x, y)) for x in basis for y in basis)
