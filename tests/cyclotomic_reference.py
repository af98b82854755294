"""The int-or-Fraction ``Cyc``: the oracle for ``qdouble.cyclotomic``.

This is the scalar the package used before it held integer numerators over
one denominator.  Each coefficient is an ``int`` when it is a whole number
and a ``Fraction`` otherwise, and every operation works on those
coefficients directly.  The property tests in ``test_cyclotomic.py`` check
that the package's ``Cyc`` gives the same order tag, ``coeffs``, JSON and
hash as this class on every operation.  Only phi, the Moebius function
and the cyclotomic polynomial come from the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, sub

from qdouble.cyclotomic import _mobius, _phi, cyclotomic_polynomial


@cache
def _reduction_table(n: int) -> list[tuple[int, ...]]:
    """Power basis expansion of zeta_n^e for 0 <= e < max(2*phi(n), n)."""
    phi = _phi(n)
    mod = cyclotomic_polynomial(n)
    rows: list[tuple[int, ...]] = []
    current = [1] + [0] * (phi - 1)
    for _ in range(max(2 * phi, n)):
        rows.append(tuple(current))
        nxt = [0] + current[:-1]
        top = current[-1]
        if top:
            for j in range(phi):
                nxt[j] -= top * mod[j]
        current = nxt
    return rows


@cache
def _padding(n: int) -> tuple[int, ...]:
    """The phi(n) - 1 zero coefficients that follow a rational at order n."""
    return (0,) * (_phi(n) - 1)


@cache
def _trace_weights(n: int) -> tuple[Fraction, ...]:
    """Tr(zeta_n^k) / phi(n) = mu(n/d) / phi(n/d) with d = gcd(n, k), for k < phi(n)."""
    return tuple(Fraction(_mobius(n // gcd(n, k)), _phi(n // gcd(n, k))) for k in range(_phi(n)))


def _canonical(values) -> tuple:
    """The coefficients with every whole-number Fraction turned into an int."""
    return tuple([v if v.__class__ is int or v.denominator != 1 else v.numerator for v in values])


def _rational(value):
    """value as a canonical coefficient; only an int or a Fraction is exact."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"a cyclotomic coefficient must be an int or a Fraction, got {value!r}")


def _reduce(n: int, coeffs: list) -> tuple:
    phi = _phi(n)
    table = _reduction_table(n)
    out = list(coeffs[:phi]) + [0] * (phi - len(coeffs))
    for e in range(phi, len(coeffs)):
        c = coeffs[e]
        if c:
            row = table[e]
            for j in range(phi):
                out[j] += c * row[j]
    return _canonical(out)


class Cyc:
    """An element of Q(zeta_N) in reduced power basis coordinates."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"cyclotomic order must be a positive integer, got {order!r}")
        self.order = order
        coeffs = [_rational(c) for c in coeffs]
        self.coeffs = tuple(coeffs) if len(coeffs) == _phi(order) else _reduce(order, coeffs)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _make(order: int, coeffs: tuple) -> "Cyc":
        """Wrap coefficients that are already reduced and canonical."""
        out = object.__new__(Cyc)
        out.order = order
        out.coeffs = coeffs
        return out

    @staticmethod
    def rational(value) -> "Cyc":
        return Cyc._make(1, (_rational(value),))

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyc":
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"cyclotomic order must be a positive integer, got {order!r}")
        return Cyc._make(order, _reduction_table(order)[power % order])

    # -- order promotion ------------------------------------------------

    def promote(self, order: int) -> "Cyc":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot promote order {self.order} into order {order}")
        step = order // self.order
        out = [0] * order
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return Cyc._make(order, _reduce(order, out))

    # -- ring operations -------------------------------------------------
    #
    # Each operation first tries a path that needs no promotion: equal
    # orders, two rationals (one scalar op, zero padded to the lcm order),
    # or a rational whose order divides the other operand's.

    def __add__(self, other):
        if other.__class__ is not Cyc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Cyc._make(self.order, tuple([-x for x in self.coeffs]))

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
        n, m = self.order, other.order
        a, b = self.coeffs, other.coeffs
        if n == m:
            return Cyc._make(n, _canonical(map(op, a, b)))
        order = lcm(n, m)
        if not any(a[1:]) and not any(b[1:]):
            return Cyc._make(order, _canonical((op(a[0], b[0]),)) + _padding(order))
        return self.promote(order)._combine(other.promote(order), op)

    def __mul__(self, other):
        if other.__class__ is not Cyc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n, m = self.order, other.order
        a, b = self.coeffs, other.coeffs
        if not any(a[1:]):
            x = a[0]
            if not any(b[1:]):
                x *= b[0]
                if x.__class__ is not int and x.denominator == 1:
                    x = x.numerator
                order = lcm(n, m)
                return Cyc._make(order, (x,) + _padding(order))
            if m % n == 0:
                return Cyc._make(m, _canonical([x * y for y in b]))
        elif not any(b[1:]) and n % m == 0:
            y = b[0]
            return Cyc._make(n, _canonical([x * y for x in a]))
        if n != m:
            order = lcm(n, m)
            a, b = self.promote(order).coeffs, other.promote(order).coeffs
            n = order
        k = len(a)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyc._make(n, _reduce(n, prod))

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """a^-1 = prod_(k != 1) sigma_k(a) / N(a), over the units k mod N.

        The norm N(a) = a * prod_(k != 1) sigma_k(a) is rational.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        n = self.order
        if len(self.coeffs) == 1:
            return Cyc._make(n, _canonical((Fraction(1, self.coeffs[0]),)))
        cofactor = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                image = self.galois(k)
                cofactor = image if cofactor is None else cofactor * image
        norm = (self * cofactor).coeffs[0]
        return Cyc._make(n, _canonical([Fraction(c, norm) for c in cofactor.coeffs]))

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
            base = base * base
            exponent >>= 1
        return result

    def galois(self, k: int) -> "Cyc":
        """Field automorphism sigma_k: zeta_N -> zeta_N^k, for k prime to N."""
        n = self.order
        table = _reduction_table(n)
        out = [0] * len(self.coeffs)
        for e, c in enumerate(self.coeffs):
            if c:
                row = table[(e * k) % n]
                for j in range(len(out)):
                    out[j] += c * row[j]
        return Cyc._make(n, _canonical(out))

    def conj(self) -> "Cyc":
        """Complex conjugation, the automorphism sigma_(N-1)."""
        return self if self.order <= 2 else self.galois(self.order - 1)

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0])

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Cyc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if self.order == other.order:
            return a == b
        # the power basis is a Q-basis, so a value is rational exactly when
        # its coefficients past the first vanish, at every order
        rational_a, rational_b = not any(a[1:]), not any(b[1:])
        if rational_a or rational_b:
            return rational_a and rational_b and a[0] == b[0]
        order = lcm(self.order, other.order)
        return self.promote(order).coeffs == other.promote(order).coeffs

    def __hash__(self):
        """Hash of the normalised trace Tr(x) / phi(N), which is the same at
        every order x is written in, and is x itself for a rational x."""
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(sum(c * w for c, w in zip(self.coeffs, _trace_weights(self.order)) if c))

    def to_json(self) -> dict:
        return {
            "N": self.order,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "Cyc":
        return Cyc(data["N"], tuple(Fraction(n, d) for n, d in data["coeffs"]))

    def __repr__(self) -> str:
        if self.is_rational():
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
