import operator
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyclotomic_reference as ref
from qdouble import cyclotomic
from qdouble.cyclotomic import Cyc, _phi, cyc, root_of_unity


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


@pytest.mark.parametrize("order, coeffs", [(3, [0] * 6 + [1]), (1, [1, -2, 0, 5]), (4, [0, 0, 0, 0, 1])])
def test_constructor_reads_exponents_past_the_reduction_table(order, coeffs):
    """Cyc(N, c) is sum c_e zeta_N^e for any number of coefficients, also past
    the max(2 phi(N), N) powers that the reduction table holds."""
    value = Cyc(order, coeffs)
    expected = sum((Cyc.zeta(order, e) * c for e, c in enumerate(coeffs)), Cyc(order, []))
    assert (value.order, value.num, value.den) == (expected.order, expected.num, expected.den)


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
    x, y = (ref.Cyc(v.order, v.coeffs).promote(order).coeffs for v in (a, b))
    if op is operator.eq:
        return x == y
    if op is operator.mul:
        prod = [0] * (2 * len(x) - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] += u * v
        return order, ref._reduce(order, prod)
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


# -- the fraction-free form against the int-or-Fraction reference ---------------


def _invariant_holds(x: Cyc) -> bool:
    """num: ints, no trailing zero, at most phi(N) of them; den > 0 and
    prime to the numerators."""
    num, den = x.num, x.den
    return (
        type(num) is tuple
        and 1 <= len(num) <= _phi(x.order)
        and all(type(c) is int for c in num)
        and (len(num) == 1 or num[-1] != 0)
        and type(den) is int
        and den > 0
        and gcd(den, *num) == 1
    )


def _agrees(x: Cyc, r: ref.Cyc) -> bool:
    """Same order tag, coefficient values and types, JSON and hash."""
    return (
        _invariant_holds(x)
        and x.order == r.order
        and [(type(c), c) for c in x.coeffs] == [(type(c), c) for c in r.coeffs]
        and x.to_json() == r.to_json()
        and hash(x) == hash(r)
        and repr(x) == repr(r)
    )


@st.composite
def pairs(draw):
    """The same value as a package Cyc and as a reference Cyc, at one of
    ORDERS, from int and Fraction coefficients; a third are rationals."""
    order = draw(st.sampled_from(ORDERS))
    if draw(st.integers(0, 2)) == 0:
        coeffs = [draw(COEFFICIENT)]
    else:
        coeffs = draw(st.lists(COEFFICIENT, min_size=1, max_size=order))
    return Cyc(order, coeffs), ref.Cyc(order, coeffs)


@PROPERTY
@given(pairs(), pairs(), st.sampled_from((1, 2, 3, 4)))
# a +-1 at an order that does not divide the other operand's: no shortcut
@example((cyc(-1) * Cyc.zeta(4, 0), ref.Cyc(4, [-1])), (Cyc.zeta(3), ref.Cyc(3, [0, 1])), 1)
# a content that only the final gcd cancels
@example(
    (Cyc(3, [Fraction(1, 2), Fraction(3, 2)]), ref.Cyc(3, [Fraction(1, 2), Fraction(3, 2)])),
    (Cyc(3, [Fraction(3, 2), Fraction(1, 2)]), ref.Cyc(3, [Fraction(3, 2), Fraction(1, 2)])),
    2,
)
def test_every_operation_agrees_with_the_reference(p, q, factor):
    (a, ra), (b, rb) = p, q
    assert _agrees(a, ra) and _agrees(b, rb)
    for op in (operator.add, operator.sub, operator.mul):
        assert _agrees(op(a, b), op(ra, rb))
    assert _agrees(-a, -ra) and _agrees(a.conj(), ra.conj())
    assert _agrees(a.promote(a.order * factor), ra.promote(ra.order * factor))
    for k in range(1, a.order):
        if gcd(k, a.order) == 1:
            assert _agrees(a.galois(k), ra.galois(k))
    if b:
        assert _agrees(a / b, ra / rb) and _agrees(b.inverse(), rb.inverse())
    assert (a == b) == (ra == rb)
    assert a.is_rational() == ra.is_rational()
    if a.is_rational():
        value = a.as_rational()
        assert type(value) is Fraction and value == ra.as_rational()
    back = Cyc.from_json(ra.to_json())
    assert _agrees(back, ra) and (back.num, back.den) == (a.num, a.den)


def test_invariant_check_catches_a_missing_gcd(monkeypatch):
    """Negative control: with the final gcd skipped, a sum whose content
    the gcd would cancel breaks the invariant."""
    half = Cyc(3, [Fraction(1, 2), Fraction(1, 2)])
    assert _invariant_holds(half + half) and (half + half).den == 1
    monkeypatch.setattr(cyclotomic, "gcd", lambda *args: 1)
    unreduced = half + half
    assert (unreduced.num, unreduced.den) == ((2, 2), 2)
    assert not _invariant_holds(unreduced)


class _NoFraction:
    def __new__(cls, *args, **kwargs):
        raise AssertionError("Fraction built on the arithmetic path")


def test_arithmetic_builds_no_fraction(monkeypatch):
    """The ring operations, promote, galois, conj, == and bool run on ints
    alone; only the constructor, coeffs, JSON, as_rational and the hash of a
    non-integer may build a Fraction."""
    values = [
        Cyc(n, coeffs[:n])
        for n in (1, 3, 4, 12)
        for coeffs in ([3], [Fraction(-2, 3)], [1, -2, 0, 5], [Fraction(1, 2), Fraction(-3, 4), 2, 0])
    ]

    def run():
        out = []
        for a in values:
            out += [-a, a.promote(a.order * 2), a.galois(a.order - 1), a.conj(), bool(a)]
            if a:
                out.append(a.inverse())
            for b in values:
                out += [a + b, a - b, a * b, a == b, a + 2, 3 - a, a * -1]
        return [(x.order, x.num, x.den) if isinstance(x, Cyc) else x for x in out]

    expected = run()
    monkeypatch.setattr(cyclotomic, "Fraction", _NoFraction)
    assert run() == expected
    with pytest.raises(AssertionError):
        values[1].as_rational()
