"""Multivariate polynomials and rational functions over the cyclotomic field.

Parameters (metric lengths, connection moduli, eigenvalues) are carried as
named commuting indeterminates, declared real: complex conjugation fixes
them and conjugates the cyclotomic coefficients.  Sparse dict-of-monomials
representation.  ``poly_gcd`` (a primitive subresultant remainder sequence)
keeps ``RatFunc`` reduced; ``groebner`` and ``normal_form`` decide ideal
membership and equality, the polynomial elimination of the regression suite;
``_det_adjugate`` is the fraction-free pass behind a metric's determinant
and adjugate.  One division step serves ``Poly.exact_div`` and ``groebner``:
cancel the leading term of the remainder by a monomial multiple of the
divisor (``_divides``, ``_add_multiple``), in lex order for the one and
grevlex for the other.

Invariant: ``Poly.terms`` is a zero-free {exponent tuple: Cyc} map, and every
exponent tuple has ``len(vars)`` non-negative int entries.  The public
constructor checks the exponents and drops zero coefficients; the ring
operations build maps that already hold the invariant (sums go through
``linalg._addto``) and wrap them with the trusted ``Poly._make``.

``dot`` is the one rule for a sum of polynomial products a1 b1 + a2 b2 + ...:
each product polynomial is added term by term into one map, left to right,
so the sum is the chain's, order tags included, without copying it per term.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .cyclotomic import Cyc, cyc
from .linalg import _addto


class Poly:
    """Polynomial over Q(zeta) in a fixed tuple of named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict | None = None):
        self.vars = tuple(variables)
        self.terms = {}
        if terms:
            n = len(self.vars)
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != n or not all(isinstance(e, int) and e >= 0 for e in exp):
                    raise ValueError(
                        f"exponent {exp!r} is not {n} non-negative ints for {self.vars}"
                    )
                c = cyc(coeff) if not isinstance(coeff, Cyc) else coeff
                if c:
                    self.terms[exp] = c

    @staticmethod
    def _make(variables: tuple[str, ...], terms: dict) -> "Poly":
        """Wrap a map that already holds the module invariant, unchecked."""
        out = object.__new__(Poly)
        out.vars = variables
        out.terms = terms
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value, variables: tuple[str, ...] = ()) -> "Poly":
        v = cyc(value)
        variables = tuple(variables)
        return Poly._make(variables, {(0,) * len(variables): v} if v else {})

    @staticmethod
    def variable(name: str, variables: tuple[str, ...]) -> "Poly":
        idx = variables.index(name)
        exp = [0] * len(variables)
        exp[idx] = 1
        return Poly._make(tuple(variables), {tuple(exp): Cyc.rational(1)})

    def _align(self, other: "Poly"):
        if self.vars == other.vars:
            return self, other
        merged = tuple(dict.fromkeys(self.vars + other.vars))
        return self.extend(merged), other.extend(merged)

    def extend(self, variables: tuple[str, ...]) -> "Poly":
        """The same polynomial over ``variables``, which must hold every
        variable that occurs; others may be added or dropped."""
        if variables == self.vars:
            return self
        where = {v: p for p, v in enumerate(variables)}
        pos = []
        for i, v in enumerate(self.vars):
            if v in where:
                pos.append((i, where[v]))
            elif any(exp[i] for exp in self.terms):
                raise ValueError(f"{v} occurs in the polynomial but not in {tuple(variables)}")
        out = {}
        for exp, c in self.terms.items():
            new = [0] * len(variables)
            for i, p in pos:
                new[p] = exp[i]
            out[tuple(new)] = c
        return Poly._make(tuple(variables), out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        out = dict(a.terms)
        for exp, c in b.terms.items():
            _addto(out, exp, c)
        return Poly._make(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        out = dict(a.terms)
        for exp, c in b.terms.items():
            _addto(out, exp, -c)
        return Poly._make(a.vars, out)

    def __rsub__(self, other):
        return _as_poly(other, self.vars) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, Cyc)):
                return NotImplemented
            k = cyc(other)
            if not k:
                return Poly._make(self.vars, {})
            return Poly._make(self.vars, {e: c * k for e, c in self.terms.items()})
        a, b = self._align(other)
        out: dict[tuple, Cyc] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                _addto(out, tuple(map(add, e1, e2)), c1 * c2)
        return Poly._make(a.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = Poly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
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
        """Over the nonzero (name, exponent) pairs, as __eq__ aligns variables;
        a constant, zero included, hashes as the Cyc it equals."""
        if not any(map(any, self.terms)):
            return hash(self.constant_term())
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
                _addto(out, exp[:i] + (0,) + exp[i + 1:], c)
        return Poly._make(self.vars, out)

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
        return Poly._make(self.vars, {e: c.conj() for e, c in self.terms.items()})

    def monic_normalize(self) -> "Poly":
        """Divide by the coefficient of the lexicographically largest monomial."""
        if not self.terms:
            return self
        lead = max(self.terms)
        inv = self.terms[lead].inverse()
        return Poly._make(self.vars, {e: c * inv for e, c in self.terms.items()})

    def exact_div(self, other: "Poly") -> "Poly":
        """The quotient self / other, by leading-term division in lex order
        (``vars[0]`` most significant); raises ValueError when other does not
        divide self.

        In lex order every quotient coefficient is fed the same operands as
        in dividing leading coefficients in vars[0], then vars[1], and so on,
        so it carries the same ``Cyc`` order tag; grevlex gives the same
        values with other tags."""
        a, b = self._align(other)
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        lead = max(b.terms)
        inv = b.terms[lead].inverse()
        rem, quot = dict(a.terms), {}
        while rem:
            m = max(rem)
            if not _divides(lead, m):
                raise ValueError("inexact polynomial division")
            c = rem[m] * inv
            quot[tuple(x - y for x, y in zip(m, lead))] = c
            _add_multiple(rem, b.terms, lead, m, -c)
        return Poly._make(a.vars, quot)

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


def dot(pairs, variables=()) -> Poly:
    """The sum of a * b over the (a, b) pairs, left to right, where a or b
    may be a scalar: exactly the chain a1*b1 + a2*b2 + ..., started from
    ``Poly.constant(0, variables)``.

    Each product polynomial is added term by term into one zero-free map, and
    the variables are merged in order of first appearance, zero products
    included, as ``+`` merges them.  A partial sum that cancels drops its
    order tag, so the association of a sum is part of its value: a product is
    added whole, never term product by term product."""
    variables = tuple(variables)
    out = {}
    for a, b in pairs:
        p = a * b
        if p.vars != variables:
            merged = tuple(dict.fromkeys(variables + p.vars))
            if merged != variables:
                out = Poly._make(variables, out).extend(merged).terms
                variables = merged
            p = p.extend(variables)
        for exp, c in p.terms.items():
            _addto(out, exp, c)
    return Poly._make(variables, out)


# -- gcd ------------------------------------------------------------------


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


def _det_adjugate(rows: list[list[Poly]]):
    """(det M, adj M) by one fraction-free Gauss-Jordan pass on [M | I]
    (Bareiss), or (0, None) when a pivot column is zero: det M = 0.

    Not ``linalg``'s field elimination: ``Poly`` has exact division but no
    inverse, and over ``RatFunc`` every step would run a gcd.  Each step
    divides exactly by the previous pivot and a row swap flips the sign; the
    rows below a pivot get Bareiss's determinant updates, so the last pivot
    is ±det M (``metric_determinant``'s bytes) and the right block ±adj M."""
    n = len(rows)
    vars_ = rows[0][0].vars
    zero, one = Poly.constant(0, vars_), Poly.constant(1, vars_)
    rows = [[*row, *(one if j == i else zero for j in range(n))] for i, row in enumerate(rows)]
    prev, sign = one, 1
    for k in range(n):
        if not rows[k][k]:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return zero, None
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                for j in range(k + 1, 2 * n):
                    num = row[j] * pivot[k] - row[k] * pivot[j]
                    row[j] = num.exact_div(prev)
        prev = pivot[k]
    adj = [row[n:] for row in rows]
    return (prev, adj) if sign > 0 else (-prev, [[-x for x in row] for row in adj])


# -- Groebner bases -----------------------------------------------------------
#
# Inside the engine a polynomial is its zero-free {exponent tuple: Cyc} map,
# and a basis element is the pair (leading exponent, monic terms).


def _grevlex(exp):
    """Sort key of a monomial in graded reverse lexicographic order."""
    return sum(exp), tuple(-e for e in reversed(exp))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _add_multiple(out, terms, lead, m, c):
    """out += c (m / lead) terms, for a monomial lead dividing m."""
    for e, tc in terms.items():
        _addto(out, tuple(x + y - z for x, y, z in zip(e, m, lead)), c * tc)


def _monic(terms):
    lead = max(terms, key=_grevlex)
    inv = terms[lead].inverse()
    return lead, {e: c * inv for e, c in terms.items()}


def _reduce(terms, basis):
    """The remainder of terms on division by the (lead, monic terms) pairs."""
    terms = dict(terms)
    rem = {}
    while terms:
        m = max(terms, key=_grevlex)
        for lead, g in basis:
            if _divides(lead, m):
                _add_multiple(terms, g, lead, m, -terms[m])
                break
        else:
            rem[m] = terms.pop(m)
    return rem


def _spoly(f, g):
    lcm = _lcm(f[0], g[0])
    out = {}
    _add_multiple(out, f[1], f[0], lcm, Cyc.rational(1))
    _add_multiple(out, g[1], g[0], lcm, Cyc.rational(-1))
    return out


def groebner(polys) -> list[Poly]:
    """The reduced Groebner basis of the ideal the polys generate.

    The order is grevlex over the variables that occur in the polys, taken
    in their merged ``vars`` order.  Buchberger's algorithm with normal pair
    selection (least lcm first, ties to the least index pair) and the product
    and chain criteria (Cox, Little, O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 2).  The ideal is the unit ideal exactly when the basis
    is [1].
    """
    merged = tuple(dict.fromkeys(v for p in polys for v in p.vars))
    polys = [p.extend(merged) for p in polys if p]
    occur = [i for i in range(len(merged)) if any(e[i] for p in polys for e in p.terms)]
    basis = [
        _monic({tuple(e[i] for i in occur): c for e, c in p.terms.items()}) for p in polys
    ]

    def key(i, j):
        return _grevlex(_lcm(basis[i][0], basis[j][0])), i, j

    # pending pair -> its selection key, computed once when the pair is made
    pairs = {(i, j): key(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        _, i, j = min(pairs.values())
        li, lj = basis[i][0], basis[j][0]
        lcm = _lcm(li, lj)
        coprime = lcm == tuple(map(add, li, lj))
        chain = any(
            k != i and k != j
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            and _divides(basis[k][0], lcm)
            for k in range(len(basis))
        )
        if not coprime and not chain:
            rem = _reduce(_spoly(basis[i], basis[j]), basis)
            if rem:
                basis.append(_monic(rem))
                n = len(basis) - 1
                pairs.update({(k, n): key(k, n) for k in range(n)})
        del pairs[(i, j)]
    minimal = []
    for lead, terms in sorted(basis, key=lambda b: _grevlex(b[0])):
        if not any(_divides(l, lead) for l, _ in minimal):
            minimal.append((lead, terms))
    variables = tuple(merged[i] for i in occur)
    return [
        Poly._make(variables, _reduce(terms, minimal[:k] + minimal[k + 1:]))
        for k, (_, terms) in enumerate(minimal)
    ]


def normal_form(p: Poly, basis: list[Poly]) -> Poly:
    """The remainder of p on division by a ``groebner`` basis.

    It is zero exactly when p lies in the ideal, and two polynomials have
    the same normal form exactly when they agree modulo the ideal."""
    if not basis:
        return p
    variables = tuple(dict.fromkeys(basis[0].vars + p.vars))
    pairs = [_monic(g.extend(variables).terms) for g in basis]
    return Poly._make(variables, _reduce(p.extend(variables).terms, pairs))


class RatFunc:
    """Fraction of two Poly values, reduced by gcd cancellation."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.constant(1, num.vars)
        num, den = num._align(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = Poly.constant(1, num.vars)
        if num and den.degree() > 0:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        if den.degree() == 0:
            inv = den.constant_term().inverse()
            num = Poly._make(num.vars, {e: c * inv for e, c in num.terms.items()})
            den = Poly.constant(1, num.vars)
        self.num = num
        self.den = den

    def _coerced(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction, Cyc)):
            return RatFunc(Poly.constant(other, self.num.vars))
        return NotImplemented

    def __add__(self, other):
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        # a reduced fraction negated is still reduced: skip the constructor's gcd
        out = object.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

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

    def as_poly(self) -> Poly:
        if self.den.degree() > 0:
            raise ValueError("denominator is not constant")
        return self.num

    def __repr__(self):
        if self.den.degree() <= 0:
            return f"RatFunc({self.num!r})"
        return f"RatFunc(({self.num!r}) / ({self.den!r}))"
