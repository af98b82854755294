import operator
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdouble.cyclotomic import Cyc, _reduce, cyc, root_of_unity


def test_cube_root_relation():
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == cyc(-1)


def test_i_squared():
    assert root_of_unity(4, 1) ** 2 == cyc(-1)


def test_to_complex_cube_root():
    z = root_of_unity(3, 1).to_complex()
    assert abs(z.real + 0.5) < 1e-10
    assert abs(z.imag - 0.8660254037844386) < 1e-10


def test_inverse_of_i():
    assert root_of_unity(4, 1).inverse() == root_of_unity(4, 3)


def test_conj_cube_root():
    assert root_of_unity(3, 1).conj() == root_of_unity(3, 2)


def test_promotion_embeds():
    assert Cyc.zeta(2, 1).promote(6) == root_of_unity(6, 3)
    assert root_of_unity(6, 3) == cyc(-1)


def test_root_of_unity_zero_power():
    assert root_of_unity(5, 0) == cyc(1)
    assert root_of_unity(1, 3) == cyc(1)


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        Cyc.zeta(0, 1)
    with pytest.raises(ValueError):
        Cyc(-3, (Fraction(1),))


def test_division_by_zero_distinct():
    with pytest.raises(ZeroDivisionError):
        cyc(0).inverse()


def _random_cyc(rng):
    order = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(order)]
    return Cyc(order, coeffs)


def test_field_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (_random_cyc(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        if a:
            assert a * a.inverse() == cyc(1)
            assert a.inverse().order == a.order


def test_reduction_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        a = _random_cyc(rng)
        again = Cyc(a.order, a.coeffs)
        assert again.coeffs == a.coeffs


def test_to_complex_multiplicative():
    rng = random.Random(13)
    for _ in range(200):
        a, b = _random_cyc(rng), _random_cyc(rng)
        lhs = (a * b).to_complex()
        rhs = a.to_complex() * b.to_complex()
        assert abs(lhs - rhs) < 1e-9


def test_conj_involution():
    rng = random.Random(17)
    for _ in range(200):
        a = _random_cyc(rng)
        assert a.conj().conj() == a


def test_mixed_order_arithmetic():
    a = root_of_unity(3, 1)
    b = root_of_unity(4, 1)
    prod = a * b
    assert prod == root_of_unity(12, 7)
    assert prod / b == a


def test_json_round_trip():
    a = root_of_unity(12, 5) + cyc(Fraction(2, 7))
    assert Cyc.from_json(a.to_json()) == a


def test_real_and_imaginary_parts():
    i = root_of_unity(4, 1)
    z = cyc(3) + i * cyc(2)
    assert (z + z.conj()) * cyc(Fraction(1, 2)) == cyc(3)
    assert (z - z.conj()) / (i + i) == cyc(2)


def test_hash_agrees_with_eq_across_orders():
    z3 = root_of_unity(3, 1)
    assert z3 == z3.promote(6)
    assert len({z3, z3.promote(6), z3.promote(12)}) == 1
    rng = random.Random(19)
    for _ in range(200):
        a = _random_cyc(rng)
        for factor in (2, 3, 4):
            assert hash(a.promote(a.order * factor)) == hash(a)
    # a rational hashes as the Fraction it equals
    for value in (0, -3, Fraction(2, 7)):
        assert hash(cyc(value).promote(12)) == hash(Fraction(value))


def test_non_rational_coefficients_rejected():
    for bad in (0.1, 1.0, 1j, "1/2", None):
        with pytest.raises(TypeError):
            Cyc(3, [bad, 0])
        with pytest.raises(TypeError):
            Cyc.rational(bad)
    # a whole number is held as an int, whichever exact form it came in
    assert Cyc(3, [Fraction(4, 2), True]).coeffs == (2, 1)
    assert type(Cyc.rational(Fraction(6, 3)).coeffs[0]) is int


# -- property tests ------------------------------------------------------------

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)
COEFFICIENT = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


@st.composite
def cycs(draw):
    """A value at one of ORDERS: half of them rationals written at that order."""
    order = draw(st.sampled_from(ORDERS))
    if draw(st.booleans()):
        return Cyc(order, [draw(COEFFICIENT)] + [0] * (len(Cyc.zeta(order).coeffs) - 1))
    return Cyc(order, draw(st.lists(COEFFICIENT, min_size=order, max_size=order)))


def _is_canonical(a: Cyc) -> bool:
    """Every coefficient an int, or a Fraction that is not a whole number."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in a.coeffs
    )


def _fraction_form(a: Cyc) -> Cyc:
    """The same value, every coefficient given to the constructor as a Fraction."""
    return Cyc(a.order, [Fraction(c) for c in a.coeffs])


def _reference(op, a: Cyc, b: Cyc):
    """op on both operands promoted to the lcm order: zip for + and -,
    schoolbook product and reduction for *, coefficient tuples for ==."""
    order = lcm(a.order, b.order)
    x, y = a.promote(order).coeffs, b.promote(order).coeffs
    if op is operator.eq:
        return x == y
    if op is operator.mul:
        prod = [0] * (2 * len(x) - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] += u * v
        return order, _reduce(order, prod)
    return order, tuple(op(u, v) for u, v in zip(x, y))


@PROPERTY
@given(cycs(), cycs(), cycs())
def test_field_axioms(a, b, c):
    zero, one = cyc(0), cyc(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    if a:
        assert a * a.inverse() == one
        assert (b / a) * a == b


@PROPERTY
@given(cycs(), cycs())
# rationals at two orders whose sum, difference or product is a whole number
@example(cyc(Fraction(1, 2)), Cyc(3, [Fraction(1, 2), 0]))
@example(Cyc(2, [Fraction(3, 2)]), Cyc(3, [Fraction(1, 2), 0]))
@example(Cyc(4, [Fraction(2, 3), 0]), Cyc(3, [Fraction(3, 2), 0]))
def test_order_is_the_lcm_tag(a, b):
    order = lcm(a.order, b.order)
    results = [a + b, a - b, a * b]
    if b:
        results.append(a / b)
    assert [r.order for r in results] == [order] * len(results)
    assert (-a).order == a.order
    if a:
        assert a.inverse().order == a.order
        results.append(a.inverse())
    results += [-a, a.conj(), (a + a.conj()) * cyc(Fraction(1, 2))]
    assert all(_is_canonical(r) for r in results + [a, b])


@PROPERTY
@given(cycs(), cycs(), st.sampled_from(ORDERS))
def test_eq_implies_equal_hash(a, b, k):
    one_at_k = root_of_unity(k, 0)
    for same in (a * one_at_k, a + cyc(0) * one_at_k, _fraction_form(a), a.promote(a.order * k)):
        assert same == a and hash(same) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


@PROPERTY
@given(cycs())
def test_json_is_the_same_for_int_and_fraction_forms(a):
    assert _fraction_form(a).to_json() == a.to_json()
    back = Cyc.from_json(a.to_json())
    assert (back.order, back.coeffs) == (a.order, a.coeffs)
    for pair in a.to_json()["coeffs"]:
        assert [type(x) for x in pair] == [int, int]


@PROPERTY
@given(cycs(), cycs())
def test_fast_paths_match_the_promoting_reference(a, b):
    for op in (operator.add, operator.sub, operator.mul):
        result = op(a, b)
        assert (result.order, result.coeffs) == _reference(op, a, b)
    assert (a == b) == _reference(operator.eq, a, b)


@PROPERTY
@given(cycs(), cycs())
def test_to_complex_is_a_ring_homomorphism(a, b):
    def evaluate(x: Cyc) -> complex:
        return np.polynomial.polynomial.polyval(
            np.exp(2j * np.pi / x.order), np.array([float(c) for c in x.coeffs])
        )

    for x in (a, b):
        assert np.isclose(x.to_complex(), evaluate(x), atol=1e-9)
    assert np.isclose(evaluate(a + b), evaluate(a) + evaluate(b), atol=1e-9)
    assert np.isclose(evaluate(a * b), evaluate(a) * evaluate(b), atol=1e-9)
