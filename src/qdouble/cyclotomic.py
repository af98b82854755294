"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every scalar in this package is a ``Cyc``: a vector of rationals in the
power basis {1, z, ..., z^(phi(N)-1)} of Q(zeta_N), reduced modulo the N-th
cyclotomic polynomial, held as integer numerators ``num`` over one ``den``
(Cohen, GTM 138, 4.2).  ``num`` drops its trailing zeros (zero is ``(0,)``),
den > 0 and gcd(den, *num) = 1, so a value is rational exactly when
``len(num) == 1``.  Operations run on ints and end with one gcd; no float
enters.  ``coeffs`` is the phi(N) coefficients, int or non-whole Fraction.

The order N is a tag, not the conductor of the value: it is the lcm of the
orders of every operand that fed the value, because no operation lowers
it.  A rational computed at N = 3 keeps N = 3, and ``to_json`` writes it
as ``{"N": 3, "coeffs": [[num, den], [0, 1]]}``.  Mixed-order expressions are
promoted to the lcm order, using the embedding zeta_N -> zeta_M^(M/N) for
N | M; a rational operand needs no promotion, only a new tag.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, mul, neg, sub


@cache
def _phi(n: int) -> int:
    result, k = n, n
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1
    if k > 1:
        result -= result // k
    return result


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


@cache
def _trace_weights(n: int) -> tuple[int, ...]:
    """Tr(zeta_n^k) = mu(n/d) phi(n) / phi(n/d), d = gcd(n, k), for k < phi(n)."""
    return tuple(_mobius(n // gcd(n, k)) * _phi(n) // _phi(n // gcd(n, k)) for k in range(_phi(n)))


def _poly_divmod(num: list[int], den: list[int]):
    """Quotient and remainder of integer polynomials, for a monic den."""
    num = num[:]
    q = [0] * max(1, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


@cache
def cyclotomic_polynomial(n: int) -> list[int]:
    """Integer coefficients of the monic Phi_n, low degree first."""
    # divide x^n - 1 by the proper cyclotomic divisors
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert rem == [0]
    return poly


@cache
def _reduction_table(n: int) -> list[tuple[tuple[int, int], ...]]:
    """zeta_n^e in the power basis, as its nonzero (j, coefficient) pairs,
    for 0 <= e < max(2*phi(n), n)."""
    phi = _phi(n)
    mod = cyclotomic_polynomial(n)
    rows = []
    current = [1] + [0] * (phi - 1)
    for _ in range(max(2 * phi, n)):
        rows.append(tuple((j, c) for j, c in enumerate(current) if c))
        nxt = [0] + current[:-1]
        top = current[-1]
        if top:
            for j in range(phi):
                nxt[j] -= top * mod[j]
        current = nxt
    return rows


def _rational(value):
    """value as a canonical coefficient; only an int or a Fraction is exact."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"a cyclotomic coefficient must be an int or a Fraction, got {value!r}")


def _reduce(n: int, num: list) -> list:
    """An integer polynomial in zeta_n in the power basis (a short one as it is)."""
    phi = _phi(n)
    if len(num) <= phi:
        return num
    table = _reduction_table(n)
    if len(num) > len(table):
        # zeta_n^n = 1 folds the exponents past the table, which only a long
        # constructor argument has: a product has at most 2 phi(n) - 1
        folded = [0] * n
        for e, c in enumerate(num):
            folded[e % n] += c
        num = folded
    out = num[:phi]
    for e in range(phi, len(num)):
        c = num[e]
        if c:
            for j, r in table[e]:
                out[j] += c * r
    return out


_new = object.__new__


def _make(order: int, num: tuple, den: int) -> "Cyc":
    """Wrap a numerator and denominator that are already canonical."""
    out = _new(Cyc)
    out.order, out.num, out.den = order, num, den
    return out


def _norm(order: int, num, den: int) -> "Cyc":
    """num / den for a positive den: trailing zeros dropped, content cancelled."""
    if not num[-1]:
        k = len(num) - 1
        while k and not num[k]:
            k -= 1
        num = num[:k + 1]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _make(order, tuple(num), den)


def _ratio(order: int, x: int, den: int) -> "Cyc":
    """The rational x / den for a positive den, tagged with order."""
    g = gcd(x, den)
    return _make(order, (x // g,), den // g)


def _numerators(x: "Cyc", order: int) -> tuple:
    """x's numerators at order, a multiple of x.order; a rational keeps its own."""
    return x.num if len(x.num) == 1 else x.promote(order).num


class Cyc:
    """An element of Q(zeta_N): integer numerators ``num`` over ``den``."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs) -> None:
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"cyclotomic order must be a positive integer, got {order!r}")
        values = [_rational(c) for c in coeffs] or [0]
        den = lcm(*(v.denominator for v in values))
        value = _norm(order, _reduce(order, [v.numerator * (den // v.denominator) for v in values]), den)
        self.order, self.num, self.den = order, value.num, value.den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(value) -> "Cyc":
        value = _rational(value)
        return _make(1, (value.numerator,), value.denominator)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyc":
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"cyclotomic order must be a positive integer, got {order!r}")
        return _norm(order, _reduce(order, [0] * (power % order) + [1]), 1)

    @property
    def coeffs(self) -> tuple:
        """The phi(N) power basis coefficients: an int where whole, else a Fraction."""
        num, den = self.num, self.den
        if den != 1:
            num = tuple([Fraction(c, den) if c % den else c // den for c in num])
        return num + (0,) * (_phi(self.order) - len(num))

    # -- order promotion ------------------------------------------------

    def promote(self, order: int) -> "Cyc":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot promote order {self.order} into order {order}")
        num = self.num
        if len(num) == 1:
            return _make(order, num, self.den)
        step = order // self.order
        out = [0] * ((len(num) - 1) * step + 1)
        for k, c in enumerate(num):
            out[k * step] = c
        return _norm(order, _reduce(order, out), self.den)

    # -- ring operations -------------------------------------------------
    #
    # An operand of another order is promoted to the lcm order first; a
    # rational one only takes the new tag.

    def __add__(self, other):
        if other.__class__ is not Cyc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        if other.__class__ is not Cyc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._combine(other, sub)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._combine(self, sub)

    def _combine(self, other: "Cyc", op) -> "Cyc":
        """op(self, other) for op = operator.add or operator.sub."""
        a, b = self.num, other.num
        n = self.order
        if len(a) == len(b) == 1:
            # two rationals: one op, at the lcm tag
            x = op(a[0] * other.den, b[0] * self.den)
            return _ratio(lcm(n, other.order), x, self.den * other.den)
        if n != other.order:
            n = lcm(n, other.order)
            a, b = _numerators(self, n), _numerators(other, n)
        den = self.den
        if den != other.den:
            db = other.den
            g = gcd(den, db)
            a = [c * (db // g) for c in a]
            b = [c * (den // g) for c in b]
            den = den // g * db
        if len(a) == len(b):
            return _norm(n, tuple(map(op, a, b)), den)
        tail = a[len(b):] if len(a) > len(b) else [op(0, c) for c in b[len(a):]]
        return _norm(n, (*map(op, a, b), *tail), den)

    def __mul__(self, other):
        if other.__class__ is not Cyc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if len(a) == 1:
            self, other, a, b = other, self, b, a
        if len(b) == 1:
            # other is rational: a +-1 whose tag divides self's leaves self's tag
            y = b[0]
            if (y == 1 or y == -1) and other.den == 1 and self.order % other.order == 0:
                return self if y == 1 else _make(self.order, tuple(map(neg, a)), self.den)
            n = self.order
            if n % other.order:
                n = lcm(n, other.order)
                a = _numerators(self, n)
            if len(a) == 1:
                return _ratio(n, a[0] * y, self.den * other.den)
            return _norm(n, [c * y for c in a], self.den * other.den)
        n = self.order
        if n != other.order:
            n = lcm(n, other.order)
            a, b = _numerators(self, n), _numerators(other, n)
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        prod[j] += x * y
        return _norm(n, _reduce(n, prod), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """x^-1 = d C / (N C) for x = N / d, with C = prod_(k != 1) sigma_k(N)
        over the units k mod N, so that the norm N C is a rational integer."""
        num, den, n = self.num, self.den, self.order
        if not num[-1]:
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        if len(num) == 1:
            x = num[0]
            return _make(n, (den if x > 0 else -den,), abs(x))
        integral = _make(n, num, 1)
        cofactor = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                image = integral.galois(k)
                cofactor = image if cofactor is None else cofactor * image
        norm = (integral * cofactor).num[0]
        if norm < 0:
            den, norm = -den, -norm
        return _norm(n, [den * c for c in cofactor.num], norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyc.rational(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def galois(self, k: int) -> "Cyc":
        """Field automorphism sigma_k: zeta_N -> zeta_N^k, for k prime to N."""
        num, n = self.num, self.order
        if len(num) == 1:
            return self
        table = _reduction_table(n)
        out = [0] * _phi(n)
        for e, c in enumerate(num):
            if c:
                for j, r in table[(e * k) % n]:
                    out[j] += c * r
        return _norm(n, out, self.den)

    def conj(self) -> "Cyc":
        """Complex conjugation, the automorphism sigma_(N-1)."""
        return self if self.order <= 2 else self.galois(self.order - 1)

    # -- predicates and conversions ---------------------------------------

    def is_rational(self) -> bool:
        return len(self.num) == 1

    def as_rational(self) -> Fraction:
        if len(self.num) != 1:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __bool__(self) -> bool:
        return self.num[-1] != 0

    def __eq__(self, other) -> bool:
        if other.__class__ is not Cyc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if self.order == other.order or len(a) == len(b) == 1:
            return a == b and self.den == other.den
        # a value is rational at every order or at none
        if len(a) == 1 or len(b) == 1:
            return False
        order = lcm(self.order, other.order)
        return self.promote(order).num == other.promote(order).num and self.den == other.den

    def __hash__(self):
        """Hash of the normalised trace Tr(x) / phi(N), which is the same at
        every order x is written in, and is x itself for a rational x."""
        num, den = self.num, self.den
        if len(num) == 1:
            return hash(num[0]) if den == 1 else hash(Fraction(num[0], den))
        trace = sum(map(mul, num, _trace_weights(self.order)))
        return hash(Fraction(trace, _phi(self.order) * den))

    def to_complex(self) -> complex:
        return sum(
            complex(c) * cmath.exp(2j * cmath.pi * k / self.order)
            for k, c in enumerate(self.coeffs)
            if c
        ) or complex(0)

    def to_json(self) -> dict:
        return {
            "N": self.order,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "Cyc":
        return Cyc(data["N"], tuple(Fraction(n, d) for n, d in data["coeffs"]))

    def __repr__(self) -> str:
        if len(self.num) == 1:
            return f"Cyc({self.coeffs[0]})"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                if k == 0:
                    terms.append(str(c))
                else:
                    terms.append(f"{c}*z{self.order}^{k}" if k > 1 else f"{c}*z{self.order}")
        return "Cyc(" + " + ".join(terms) + ")"


def _coerce(value):
    if isinstance(value, Cyc):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyc.rational(value)
    return NotImplemented


ZERO = Cyc.rational(0)
ONE = Cyc.rational(1)


def root_of_unity(order: int, power: int) -> Cyc:
    """zeta_order^power in canonical form; root_of_unity(N, 0) == 1."""
    return Cyc.zeta(order, power)


def cyc(value) -> Cyc:
    """Coerce an int, Fraction or Cyc to a Cyc."""
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")
    return out
