"""Test-side reference: the bialgebra check as the package wrote it before
it expanded both sides through tables of basis products.

For every pair (a, b) it builds fresh ``DoubleElement`` factors and calls
``coproduct``, ``product`` and ``braid`` on them for every pair of
coproduct terms, so it relies on no linearity of any of them.
"""

from qdouble.double import DoubleElement
from qdouble.linalg import _accumulate


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


def basis_pairs(group):
    """Every pair of basis keys (g, h), in the order the package decides them."""
    keys = [(g, h) for g in range(group.n) for h in range(group.n)]
    return [(a, b) for a in keys for b in keys]


def bialgebra_axiom_holds(group, coproduct, product, braid=None) -> bool:
    return all(
        lhs == rhs
        for lhs, rhs in (
            pair_sides(group, coproduct, product, braid, a, b) for a, b in basis_pairs(group)
        )
    )
