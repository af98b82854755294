"""Multivariate polynomials and rational functions over the cyclotomic field.

Parameters (metric lengths, connection moduli, eigenvalues) are carried as
named commuting indeterminates, declared real: complex conjugation fixes
them and conjugates the cyclotomic coefficients.  Sparse dict-of-monomials
representation; gcd by a primitive subresultant remainder sequence, which
is all the elimination in this package needs.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc, cyc


class Poly:
    """Polynomial over Q(zeta) in a fixed tuple of named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict | None = None):
        self.vars = tuple(variables)
        self.terms = {}
        if terms:
            for exp, coeff in terms.items():
                c = cyc(coeff) if not isinstance(coeff, Cyc) else coeff
                if c:
                    self.terms[tuple(exp)] = c

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value, variables: tuple[str, ...] = ()) -> "Poly":
        v = cyc(value)
        n = len(variables)
        return Poly(variables, {(0,) * n: v} if v else {})

    @staticmethod
    def variable(name: str, variables: tuple[str, ...]) -> "Poly":
        idx = variables.index(name)
        exp = [0] * len(variables)
        exp[idx] = 1
        return Poly(variables, {tuple(exp): Cyc.rational(1)})

    def _align(self, other: "Poly"):
        if self.vars == other.vars:
            return self, other
        merged = tuple(dict.fromkeys(self.vars + other.vars))
        return self.extend(merged), other.extend(merged)

    def extend(self, variables: tuple[str, ...]) -> "Poly":
        if variables == self.vars:
            return self
        pos = [variables.index(v) for v in self.vars]
        out = {}
        for exp, c in self.terms.items():
            new = [0] * len(variables)
            for p, e in zip(pos, exp):
                new[p] = e
            out[tuple(new)] = c
        return Poly(variables, out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        out = dict(a.terms)
        for exp, c in b.terms.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return Poly(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other, self.vars) + (-self)

    def __mul__(self, other):
        other = _as_poly(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        out: dict[tuple, Cyc] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                prod = c1 * c2
                s = out.get(exp)
                s = prod if s is None else s + prod
                if s:
                    out[exp] = s
                elif exp in out:
                    del out[exp]
        return Poly(a.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = Poly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _as_poly(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        return a.terms == b.terms

    def __hash__(self):
        """Over the nonzero (name, exponent) pairs, as __eq__ aligns variables."""
        return hash(
            frozenset(
                (frozenset((v, e) for v, e in zip(self.vars, exp) if e), c)
                for exp, c in self.terms.items()
            )
        )

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ----------------------------------------------------------

    def degree(self, var: str | None = None) -> int:
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coeff_of(self, var: str, power: int) -> "Poly":
        i = self.vars.index(var)
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == power:
                reduced = exp[:i] + (0,) + exp[i + 1:]
                out[reduced] = out.get(reduced, Cyc.rational(0)) + c
        return Poly(self.vars, out)

    def constant_term(self) -> Cyc:
        return self.terms.get((0,) * len(self.vars), Cyc.rational(0))

    def as_cyc(self) -> Cyc:
        if self.degree() > 0:
            raise ValueError(f"{self} is not constant")
        return self.constant_term()

    def substitute(self, bindings: dict) -> "Poly":
        """Replace variables by Poly/Cyc/Fraction values; others untouched."""
        result = Poly.constant(0, self.vars)
        for exp, c in self.terms.items():
            term = Poly.constant(c, self.vars)
            for i, e in enumerate(exp):
                if not e:
                    continue
                name = self.vars[i]
                if name in bindings:
                    value = bindings[name]
                    value = value if isinstance(value, Poly) else Poly.constant(value, self.vars)
                    term = term * value ** e
                else:
                    term = term * Poly.variable(name, self.vars) ** e
            result = result + term
        return result

    def conj(self) -> "Poly":
        """Conjugate coefficients; variables are real indeterminates."""
        return Poly(self.vars, {e: c.conj() for e, c in self.terms.items()})

    def monic_normalize(self) -> "Poly":
        """Divide by the coefficient of the lexicographically largest monomial."""
        if not self.terms:
            return self
        lead = max(self.terms)
        inv = self.terms[lead].inverse()
        return Poly(self.vars, {e: c * inv for e, c in self.terms.items()})

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact division; raises if not divisible."""
        a, b = self._align(other)
        q, r = _poly_divmod_multivar(a, b)
        if r:
            raise ValueError("inexact polynomial division")
        return q

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exp)
                if e
            )
            bits.append(f"({c!r})*{mono}" if mono else f"({c!r})")
        return " + ".join(bits)


def _as_poly(value, variables):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction, Cyc)):
        return Poly.constant(value, variables)
    return NotImplemented


def _poly_divmod_multivar(a: Poly, b: Poly):
    """Division treating the last variable of b's support as main; general
    enough for the univariate and dense cases used here."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    # choose the main variable as the first one appearing in b
    main = None
    for i, v in enumerate(b.vars):
        if any(e[i] for e in b.terms):
            main = v
            break
    if main is None:  # b constant
        inv = b.constant_term().inverse()
        return Poly(a.vars, {e: c * inv for e, c in a.terms.items()}), Poly(a.vars, {})
    q = Poly.constant(0, a.vars)
    r = a
    db = b.degree(main)
    lead_b = b.coeff_of(main, db)
    while r and r.degree(main) >= db:
        dr = r.degree(main)
        lead_r = r.coeff_of(main, dr)
        try:
            factor = lead_r.exact_div(lead_b)
        except ValueError:
            break
        shift = Poly.variable(main, a.vars) ** (dr - db)
        q = q + factor * shift
        r = r - factor * shift * b
        if r and r.degree(main) == dr:
            break
    return q, r


# -- gcd and resultants ----------------------------------------------------


def _content_wrt(p: Poly, var: str) -> Poly:
    """gcd of the coefficients of p as a polynomial in var."""
    coeffs = [p.coeff_of(var, k) for k in range(p.degree(var) + 1)]
    coeffs = [c for c in coeffs if c]
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
    return g


def _pseudo_rem(a: Poly, b: Poly, var: str) -> Poly:
    da, db = a.degree(var), b.degree(var)
    lead_b = b.coeff_of(var, db)
    r = a
    while r and r.degree(var) >= db:
        dr = r.degree(var)
        lead_r = r.coeff_of(var, dr)
        r = lead_b * r - lead_r * b * Poly.variable(var, r.vars) ** (dr - db)
        if r and r.degree(var) == dr:
            raise RuntimeError("pseudo remainder failed to reduce degree")
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd; normalized so the leading coefficient is 1."""
    a, b = a._align(b)
    if not a:
        return b.monic_normalize()
    if not b:
        return a.monic_normalize()
    var = None
    for i, v in enumerate(a.vars):
        if any(e[i] for e in a.terms) or any(e[i] for e in b.terms):
            var = v
            break
    if var is None:
        return Poly.constant(1, a.vars)
    if a.degree(var) == 0 or b.degree(var) == 0:
        # one argument does not involve the main variable
        if a.degree(var) and not b.degree(var):
            return poly_gcd(_content_wrt(a, var), b)
        if b.degree(var) and not a.degree(var):
            return poly_gcd(a, _content_wrt(b, var))
    ca, cb = _content_wrt(a, var), _content_wrt(b, var)
    pa, pb = a.exact_div(ca), b.exact_div(cb)
    cont = poly_gcd(ca, cb)
    if pa.degree(var) < pb.degree(var):
        pa, pb = pb, pa
    while pb:
        r = _pseudo_rem(pa, pb, var)
        if not r:
            break
        r = r.exact_div(_content_wrt(r, var))
        pa, pb = pb, r
        if pa.degree(var) < pb.degree(var):
            pa, pb = pb, pa
    # a nonzero pb ended the loop with a vanishing remainder, so pb divides pa
    prim = pb if pb else pa
    g = cont * prim.exact_div(_content_wrt(prim, var)) if prim.degree(var) > 0 else cont
    return g.monic_normalize()


def resultant(a: Poly, b: Poly, var: str) -> Poly:
    """Sylvester resultant eliminating var, by exact fraction-free expansion."""
    a, b = a._align(b)
    m, n = a.degree(var), b.degree(var)
    if m < 0 or n < 0:
        return Poly.constant(0, a.vars)
    if m == 0:
        return a ** n if n >= 0 else Poly.constant(1, a.vars)
    if n == 0:
        return b ** m
    size = m + n
    acoe = [a.coeff_of(var, m - k) for k in range(m + 1)]
    bcoe = [b.coeff_of(var, n - k) for k in range(n + 1)]
    zero = Poly.constant(0, a.vars)
    rows = []
    for i in range(n):
        rows.append([zero] * i + acoe + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + bcoe + [zero] * (size - n - 1 - i))
    return _bareiss_det(rows)


def _bareiss_det(rows: list[list[Poly]]) -> Poly:
    """Determinant by fraction-free (Bareiss) elimination in the polynomial ring.

    Not ``linalg``'s field elimination: ``Poly`` has exact division but no
    inverse, and over ``RatFunc`` every step would run a gcd.  Resultants and
    ``InnerProduct.det``, printed as ``metric_determinant``, come from here."""
    n = len(rows)
    rows = [list(r) for r in rows]
    vars_ = rows[0][0].vars
    prev = Poly.constant(1, vars_)
    sign = 1
    for k in range(n - 1):
        if not rows[k][k]:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return Poly.constant(0, vars_)
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                rows[i][j] = num.exact_div(prev)
            rows[i][k] = Poly.constant(0, vars_)
        prev = rows[k][k]
    d = rows[n - 1][n - 1]
    return d if sign > 0 else -d


class RatFunc:
    """Fraction of two Poly values, reduced by gcd cancellation."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, reduce: bool = True):
        if den is None:
            den = Poly.constant(1, num.vars)
        num, den = num._align(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = Poly.constant(1, num.vars)
        if reduce and num and den.degree() > 0:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        if den.degree() == 0:
            inv = den.constant_term().inverse()
            num = Poly(num.vars, {e: c * inv for e, c in num.terms.items()})
            den = Poly.constant(1, num.vars)
        self.num = num
        self.den = den

    @staticmethod
    def constant(value, variables=()):
        return RatFunc(Poly.constant(value, variables))

    def _coerced(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other, reduce=False)
        if isinstance(other, (int, Fraction, Cyc)):
            return RatFunc(Poly.constant(other, self.num.vars), reduce=False)
        return NotImplemented

    def __add__(self, other):
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerced(other) + (-self)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerced(other) / self

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return not (self.num * other.den - other.num * self.den)

    def is_zero(self):
        return not self.num

    def as_poly(self) -> Poly:
        if self.den.degree() > 0:
            raise ValueError("denominator is not constant")
        return self.num

    def __repr__(self):
        if self.den.degree() <= 0:
            return f"RatFunc({self.num!r})"
        return f"RatFunc(({self.num!r}) / ({self.den!r}))"
