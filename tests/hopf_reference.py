"""Test-side reference: the Hopf-axiom checks as the package wrote them
before one routine expanded every axiom through tables of basis products.

Each check builds fresh ``DoubleElement`` factors and calls ``coproduct``,
``product``, ``antipode`` and ``braid`` on them term by term, so it relies
on no linearity of any of them.  ``first_failures`` gives, for each axiom,
the first basis key (or pair) on which the two sides differ, in the order
the package decides them.
"""

from qdouble.double import DoubleElement
from qdouble.linalg import _accumulate, _addto


def basis_keys(group):
    return [(g, h) for g in range(group.n) for h in range(group.n)]


def basis_pairs(group):
    """Every pair of basis keys (g, h), in the order the package decides them."""
    keys = basis_keys(group)
    return [(a, b) for a in keys for b in keys]


def coassociativity_sides(group, coproduct, x):
    """(Delta (x) id)Delta x and (id (x) Delta)Delta x at the basis key x, as
    {(key1, key2, key3): coeff}."""
    left, right = {}, {}
    for (x1, x2), c in coproduct(DoubleElement.basis(group, *x)).items():
        for (x3, x4), c2 in coproduct(DoubleElement.basis(group, *x1)).items():
            _addto(left, (x3, x4, x2), c * c2)
        for (x3, x4), c2 in coproduct(DoubleElement.basis(group, *x2)).items():
            _addto(right, (x1, x3, x4), c * c2)
    return left, right


def counit_sides(group, coproduct, x):
    """(eps (x) id)Delta x and (id (x) eps)Delta x at the basis key x, with
    eps(delta_g (x) h) = [g = e]."""
    c_left = DoubleElement(group)
    c_right = DoubleElement(group)
    for ((g1, h1), (g2, h2)), c in coproduct(DoubleElement.basis(group, *x)).items():
        if g1 == 0:
            c_left = c_left + DoubleElement.basis(group, g2, h2, c)
        if g2 == 0:
            c_right = c_right + DoubleElement.basis(group, g1, h1, c)
    return c_left, c_right


def antipode_sides(group, coproduct, product, antipode, x):
    """m(S (x) id)Delta x and m(id (x) S)Delta x at the basis key x."""
    left = DoubleElement(group)
    right = DoubleElement(group)
    for (x1, x2), c in coproduct(DoubleElement.basis(group, *x)).items():
        a = DoubleElement.basis(group, *x1, c)
        b = DoubleElement.basis(group, *x2)
        left = left + product(antipode(a), b)
        right = right + product(a, antipode(b))
    return left, right


def pair_sides(group, coproduct, product, braid, a, b):
    """Delta(ab) and a1 b1' (x) a2 b2 at the basis keys a and b, where
    b1' = braid(a2, b1) is b1 moved past a2 (b1 itself when braid is None:
    the flip)."""
    split = [
        [
            (DoubleElement.basis(group, *x1), DoubleElement.basis(group, *x2), c)
            for (x1, x2), c in coproduct(DoubleElement.basis(group, *x)).items()
        ]
        for x in (a, b)
    ]
    rhs = _accumulate(
        ((k1, k2), c1 * c2 * c3 * c4)
        for a1, a2, c1 in split[0]
        for b1, b2, c2 in split[1]
        for k1, c3 in product(a1, b1 if braid is None else braid(a2, b1)).terms.items()
        for k2, c4 in product(a2, b2).terms.items()
    )
    return coproduct(product(DoubleElement.basis(group, *a), DoubleElement.basis(group, *b))), rhs


def _counit_holds(group, coproduct, x):
    left, right = counit_sides(group, coproduct, x)
    return left == right == DoubleElement.basis(group, *x)


def _antipode_holds(group, coproduct, product, antipode, x):
    left, right = antipode_sides(group, coproduct, product, antipode, x)
    expected = DoubleElement.unit(group).scale(DoubleElement.basis(group, *x).counit())
    return left == right == expected


def _differ(sides):
    lhs, rhs = sides
    return lhs != rhs


def first_failures(group, coproduct, product, antipode, braid=None) -> dict:
    """For each axiom, the first basis key (pair, for the bialgebra) on which
    it fails, or None."""
    keys = basis_keys(group)
    failing = {
        "coassociativity": (x for x in keys if _differ(coassociativity_sides(group, coproduct, x))),
        "counit": (x for x in keys if not _counit_holds(group, coproduct, x)),
        "antipode": (x for x in keys if not _antipode_holds(group, coproduct, product, antipode, x)),
        "bialgebra": (
            p for p in basis_pairs(group) if _differ(pair_sides(group, coproduct, product, braid, *p))
        ),
    }
    return {axiom: next(found, None) for axiom, found in failing.items()}


def bialgebra_axiom_holds(group, coproduct, product, braid=None) -> bool:
    return all(
        lhs == rhs
        for lhs, rhs in (
            pair_sides(group, coproduct, product, braid, a, b) for a, b in basis_pairs(group)
        )
    )
