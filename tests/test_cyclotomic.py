import random
from fractions import Fraction

import pytest

from qdouble.cyclotomic import Cyc, cyc, root_of_unity


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
    assert z.real_part() == cyc(3)
    assert z.imag_part() == cyc(2)


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
