"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every scalar in this package is a ``Cyc``: a vector of rationals in the
power basis {1, z, ..., z^(phi(N)-1)} of Q(zeta_N), reduced modulo the
N-th cyclotomic polynomial.  Mixed-order expressions are promoted to the
lcm order, using the embedding zeta_N -> zeta_M^(M/N) for N | M.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


_trace_weight_cache: dict[int, tuple[Fraction, ...]] = {}


def _trace_weights(n: int) -> tuple[Fraction, ...]:
    """Tr(zeta_n^k) / phi(n) = mu(n/d) / phi(n/d) with d = gcd(n, k), for k < phi(n)."""
    if n not in _trace_weight_cache:
        _trace_weight_cache[n] = tuple(
            Fraction(_mobius(n // gcd(n, k)), _phi(n // gcd(n, k))) for k in range(_phi(n))
        )
    return _trace_weight_cache[n]


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    q = [_ZERO] * max(1, len(num) - len(den) + 1)
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / dlead
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


_cyclotomic_cache: dict[int, list[Fraction]] = {}


def cyclotomic_polynomial(n: int) -> list[Fraction]:
    """Coefficients of Phi_n, low degree first."""
    if n in _cyclotomic_cache:
        return _cyclotomic_cache[n]
    # divide x^n - 1 by the proper cyclotomic divisors
    poly = [-_ONE] + [_ZERO] * (n - 1) + [_ONE]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert len(rem) == 1 and not rem[0]
    _cyclotomic_cache[n] = poly
    return poly


_reduction_cache: dict[int, list[tuple[Fraction, ...]]] = {}


def _reduction_table(n: int) -> list[tuple[Fraction, ...]]:
    """Power basis expansion of zeta_n^e for 0 <= e < max(2*phi(n), n)."""
    if n in _reduction_cache:
        return _reduction_cache[n]
    phi = _phi(n)
    mod = cyclotomic_polynomial(n)
    rows: list[tuple[Fraction, ...]] = []
    current = [_ONE] + [_ZERO] * (phi - 1)
    for _ in range(max(2 * phi, n)):
        rows.append(tuple(current))
        nxt = [_ZERO] + current[:-1]
        top = current[-1]
        if top:
            for j in range(phi):
                nxt[j] -= top * mod[j]
        current = nxt
    _reduction_cache[n] = rows
    return rows


def _reduce(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    phi = _phi(n)
    table = _reduction_table(n)
    out = list(coeffs[:phi]) + [_ZERO] * (phi - len(coeffs))
    for e in range(phi, len(coeffs)):
        c = coeffs[e]
        if c:
            row = table[e]
            for j in range(phi):
                out[j] += c * row[j]
    return tuple(out)


class Cyc:
    """An element of Q(zeta_N) in reduced power basis coordinates."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"cyclotomic order must be a positive integer, got {order!r}")
        self.order = order
        coeffs = tuple(Fraction(c) for c in coeffs)
        phi = _phi(order)
        if len(coeffs) != phi:
            coeffs = _reduce(order, list(coeffs))
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(value) -> "Cyc":
        return Cyc(1, (Fraction(value),))

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyc":
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"cyclotomic order must be a positive integer, got {order!r}")
        k = power % order
        coeffs = [_ZERO] * (k + 1)
        coeffs[k] = _ONE
        return Cyc(order, _reduce(order, coeffs))

    # -- order promotion ------------------------------------------------

    def promote(self, order: int) -> "Cyc":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot promote order {self.order} into order {order}")
        step = order // self.order
        out = [_ZERO] * order
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * step] += c
        return Cyc(order, _reduce(order, out))

    def _common(self, other: "Cyc"):
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.promote(m), other.promote(m)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return Cyc(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        n = len(a.coeffs)
        if n == 1:
            return Cyc(a.order, (a.coeffs[0] * b.coeffs[0],))
        prod = [_ZERO] * (2 * n - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return Cyc(a.order, _reduce(a.order, prod))

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """a^-1 = prod_(k != 1) sigma_k(a) / N(a), over the units k mod N.

        The norm N(a) = a * prod_(k != 1) sigma_k(a) is rational.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        n = self.order
        if len(self.coeffs) == 1:
            return Cyc(n, (1 / self.coeffs[0],))
        cofactor = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                image = self.galois(k)
                cofactor = image if cofactor is None else cofactor * image
        norm = (self * cofactor).coeffs[0]
        return Cyc(n, tuple(c / norm for c in cofactor.coeffs))

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
        out = [_ZERO] * len(self.coeffs)
        for e, c in enumerate(self.coeffs):
            if c:
                row = table[(e * k) % n]
                for j in range(len(out)):
                    out[j] += c * row[j]
        return Cyc(n, tuple(out))

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
        return self.coeffs[0]

    def real_part(self) -> "Cyc":
        return (self + self.conj()) * Cyc.rational(Fraction(1, 2))

    def imag_part(self) -> "Cyc":
        """Imaginary part times 2i, divided out exactly: (a - conj a)/(2i)."""
        i = Cyc.zeta(4)
        return (self - self.conj()) / (i + i)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        """Hash of the normalised trace Tr(x) / phi(N), which is the same at
        every order x is written in, and is x itself for a rational x."""
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(sum(c * w for c, w in zip(self.coeffs, _trace_weights(self.order)) if c))

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
