"""Quantum Riemannian geometry on a group algebra.

Covariant bimodule inner products determined by class lengths, the class
Laplacians and the mass/length dictionary, connection families solved from
linear covariance/torsion/cotorsion constraints, the polynomial
compatibility conditions (metric, star, curvature) handled by substitution,
curvature and Ricci data, and geometric Laplacians.

All parametric data lives in the polynomial ring over the cyclotomic field
with named real indeterminates, so the family statements are checked as
polynomial identities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cyclotomic import Cyc, cyc
from .poly import Poly, RatFunc, _bareiss_det, _content_wrt, poly_gcd
from .calculus import LambdaBasis
from .groups import FiniteGroup
from . import linalg
from .linalg import _addto

ZERO = Cyc.rational(0)
ONE = Cyc.rational(1)


def _pc(value, variables):
    if isinstance(value, Poly):
        return value.extend(tuple(dict.fromkeys(tuple(variables) + value.vars)))
    return Poly.constant(value, tuple(variables))


class InnerProduct:
    """Covariant bimodule inner product on a chosen basis of invariant forms."""

    def __init__(self, basis: LambdaBasis, lengths: dict, variables=()):
        if not basis.dim:
            raise ValueError("Lambda^1 = 0 for the trivial pair, so there is no inner product")
        group = basis.group
        self.basis = basis
        self.group = group
        self.vars = tuple(variables)
        # one length per class, constant on inversion-pairs, zero at the identity
        self.lengths: dict[int, Poly] = {0: Poly.constant(0, self.vars)}
        assigned = {}
        for key, value in lengths.items():
            rep = group.element(key) if isinstance(key, str) else key
            assigned[group.class_of(rep)[0]] = _pc(value, self.vars)
        for cls_ in group.conjugacy_classes():
            c0 = cls_[0]
            if c0 == 0:
                continue
            inv0 = group.class_inverse(cls_)[0]
            if c0 in assigned:
                self.lengths[c0] = assigned[c0]
            elif inv0 in assigned:
                self.lengths[c0] = assigned[inv0]
            else:
                raise ValueError(f"missing length for the class of {group.labels[c0]}")
        for cls_ in group.conjugacy_classes():
            c0, i0 = cls_[0], group.class_inverse(cls_)[0]
            if i0 in assigned and c0 in assigned and assigned[c0] != assigned[i0]:
                raise ValueError("lengths must agree on inverse classes")
        self.matrix = [
            [self.pair_elements(i, j) for j in basis.basis] for i in basis.basis
        ]
        self._det = None
        self._adj = None

    def length_of(self, g: int) -> Poly:
        return self.lengths[self.group.class_of(g)[0]]

    def pair_elements(self, g: int, h: int) -> Poly:
        """(e^g, e^h) = -1/2 (l_{gh^-1} - l_g - l_h)."""
        group = self.group
        half = Cyc.rational(Fraction(-1, 2))
        gh = group.table[g][group.inv[h]]
        return (self.length_of(gh) - self.length_of(g) - self.length_of(h)) * half

    def covariant(self) -> bool:
        """gamma(u) g gamma(u)^T = g and rho(u) g rho(u)^T = g for every
        generator u, hence for every u."""
        dim = self.basis.dim
        for u in self.group.generators:
            for mat in (self.basis.gamma(u), self.basis.rho_matrix(u)):
                for i in range(dim):
                    for j in range(dim):
                        total = Poly.constant(0, self.vars)
                        for k in range(dim):
                            if mat[i][k]:
                                for l in range(dim):
                                    if mat[j][l]:
                                        total = total + self.matrix[k][l] * (mat[i][k] * mat[j][l])
                        if total != self.matrix[i][j]:
                            return False
        return True

    def metric_conditions_hold(self) -> bool:
        """Translation and conjugation identities over all triples of group
        elements, evaluated through the length formula."""
        group = self.group
        for g in range(group.n):
            for h in range(group.n):
                base = self.pair_elements(g, h)
                for u in range(group.n):
                    gu, hu = group.table[g][u], group.table[h][u]
                    rhs = (
                        self.pair_elements(gu, hu)
                        - self.pair_elements(gu, u)
                        - self.pair_elements(u, hu)
                        + self.pair_elements(u, u)
                    )
                    if base != rhs:
                        return False
                    if base != self.pair_elements(
                        group.conj(group.inv[u], g), group.conj(group.inv[u], h)
                    ):
                        return False
        return True

    def star_compatible(self) -> bool:
        """(e^g, e^h)* = (e^h, e^g) on the basis entries."""
        n = self.basis.dim
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j].conj() != self.matrix[j][i]:
                    return False
        return True

    def det(self) -> Poly:
        if self._det is None:
            self._det = _bareiss_det([[x for x in row] for row in self.matrix])
        return self._det

    def adjugate(self):
        """adj with adj @ matrix = det * id; polynomial entries."""
        if self._adj is None:
            n = self.basis.dim
            adj = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    minor = [
                        [self.matrix[r][c] for c in range(n) if c != i]
                        for r in range(n)
                        if r != j
                    ]
                    d = _bareiss_det(minor) if minor else Poly.constant(1, self.vars)
                    adj[i][j] = d if (i + j) % 2 == 0 else -d
            self._adj = adj
        return self._adj

    def is_regular_candidate(self) -> bool:
        """Necessary regularity bound: enough inversion-distinct classes in the basis."""
        group = self.group
        reps = set()
        for g in self.basis.basis:
            cls_ = group.class_of(g)
            inv = group.class_inverse(cls_)
            reps.add(min(cls_[0], inv[0]))
        n_conj = len(group.conjugacy_classes())
        return len(reps) >= n_conj - 1


def ip_from_lengths(basis: LambdaBasis, lengths: dict, variables=()) -> InnerProduct:
    ip = InnerProduct(basis, lengths, variables)
    if not ip.metric_conditions_hold():
        raise ValueError("length data does not define a bimodule inner product")
    return ip


# -- class Laplacians -----------------------------------------------------------


def covariant_operator(group: FiniteGroup, eigenvalues: dict):
    """Diagonal operator with one eigenvalue per conjugacy class."""
    values = {}
    for key, v in eigenvalues.items():
        rep = group.element(key) if isinstance(key, str) else key
        values[group.class_of(rep)[0]] = v
    out = {}
    for cls_ in group.conjugacy_classes():
        if cls_[0] not in values:
            raise ValueError("missing eigenvalue for a class")
        for c in cls_:
            out[c] = values[cls_[0]]
    return out


def operator_is_covariant(group: FiniteGroup, matrix) -> bool:
    """Comodule condition: the matrix must be diagonal and class-constant."""
    n = group.n
    for i in range(n):
        for j in range(n):
            if i != j and matrix[i][j]:
                return False
    for cls_ in group.conjugacy_classes():
        v0 = matrix[cls_[0]][cls_[0]]
        for c in cls_[1:]:
            if matrix[c][c] != v0:
                return False
    return True


def is_second_order(group: FiniteGroup, lambdas: dict, ip: InnerProduct) -> bool:
    """Second-order Leibniz rule against the inner product, on all pairs."""
    lam = covariant_operator(group, lambdas)
    for g in range(group.n):
        for h in range(group.n):
            gh = group.table[g][h]
            lhs = _pc(lam[gh], ip.vars) - _pc(lam[g], ip.vars) - _pc(lam[h], ip.vars)
            # 2(dg, dh) = 2[(e^{gh}, e^h) - (e^h, e^h)]
            rhs = (ip.pair_elements(gh, h) - ip.pair_elements(h, h)) * cyc(2)
            if lhs != rhs:
                return False
    return True


def ip_from_laplacian(basis: LambdaBasis, lambdas: dict, variables=()) -> InnerProduct:
    """Inner product induced by a class operator with vanishing scalar eigenvalue."""
    group = basis.group
    lam = covariant_operator(group, lambdas)
    if _pc(lam[0], variables):
        raise ValueError("the class of the identity must have eigenvalue zero")
    lengths = {}
    for cls_ in group.conjugacy_classes():
        c = cls_[0]
        if c == 0:
            continue
        lam_c = _pc(lam[c], variables)
        lam_cinv = _pc(lam[group.inv[c]], variables)
        lengths[c] = (lam_c + lam_cinv) * cyc(Fraction(1, 2))
    return ip_from_lengths(basis, lengths, variables)


# -- connection families -----------------------------------------------------------


class ConnectionFamily:
    """Affine family of Christoffel symbols over named parameters."""

    def __init__(self, basis: LambdaBasis, gamma_entries, param_names, variables, provenance):
        self.basis = basis
        self.dim = basis.dim
        self.gamma = gamma_entries  # dict (i,j,k) -> Poly
        self.params = tuple(param_names)
        self.vars = tuple(variables)
        self.provenance = tuple(provenance)

    def n_params(self) -> int:
        return len(self.params)

    def substitute(self, bindings: dict) -> "ConnectionFamily":
        new_params = tuple(p for p in self.params if p not in bindings)
        out = {k: v.substitute(bindings) for k, v in self.gamma.items()}
        return ConnectionFamily(self.basis, out, new_params, self.vars, self.provenance)

    def reparameterize(self, functionals) -> "ConnectionFamily":
        """Express in new parameters given by linear functionals of the symbols.

        functionals: list of (name, {(i,j,k): coefficient}).  The family must
        be linear in the old parameters and the functional matrix invertible.
        """
        old = list(self.params)
        if len(functionals) != len(old):
            raise ValueError("need exactly one functional per parameter")
        master = tuple(
            dict.fromkeys(self.vars + self.params + tuple(n for n, _ in functionals))
        )
        mat = []
        const = []
        for name, spec in functionals:
            row = []
            combo = Poly.constant(0, self.vars)
            for key, coeff in spec.items():
                combo = combo + self.gamma[key] * cyc(coeff)
            for p in old:
                row.append(combo.coeff_of(p, 1))
            const.append(combo.substitute({p: 0 for p in old}))
            mat.append(row)
        frac_mat = [[RatFunc(x) for x in row] for row in mat]
        inv = linalg.inverse(frac_mat)
        # old param p_b = sum_a inv[b][a] (new_a - const_a)
        bindings = {}
        for b, p in enumerate(old):
            expr = RatFunc(Poly.constant(0, master))
            for a, (name, _) in enumerate(functionals):
                new_var = Poly.variable(name, master)
                expr = expr + inv[b][a] * RatFunc(new_var - const[a].extend(master))
            bindings[p] = expr.as_poly()
        out = {k: v.substitute(bindings) for k, v in self.gamma.items()}
        return ConnectionFamily(
            self.basis, out, tuple(n for n, _ in functionals), self.vars, self.provenance
        )

    def conjugated(self) -> dict:
        return {k: v.conj() for k, v in self.gamma.items()}

    def complex_split(self) -> "ConnectionFamily":
        """Replace each parameter p by p_re + i p_im with real indeterminates."""
        new_params = []
        for p in self.params:
            new_params.extend((f"{p}_re", f"{p}_im"))
        master = tuple(dict.fromkeys(self.vars + self.params + tuple(new_params)))
        i_unit = Cyc.zeta(4)
        bindings = {
            p: Poly.variable(f"{p}_re", master)
            + Poly.variable(f"{p}_im", master) * i_unit
            for p in self.params
        }
        out = {k: v.substitute(bindings) for k, v in self.gamma.items()}
        return ConnectionFamily(self.basis, out, new_params, self.vars, self.provenance)


LINEAR_FLAGS = ("covariant", "torsion_free", "cotorsion_free")
POLY_FLAGS = ("metric_compat", "star_compat", "riemann_compat")


def connection_solve(basis: LambdaBasis, ip: InnerProduct | None, flags) -> ConnectionFamily:
    """Solve the linear constraint flags exactly, returning an affine family.

    Polynomial flags are not imposed here; use the residual builders plus
    ``solve_polynomial_flags`` on the returned family.
    """
    flags = list(flags)
    unknown = [f for f in flags if f not in LINEAR_FLAGS + POLY_FLAGS]
    if unknown:
        raise ValueError(f"unknown flags {unknown}")
    dim = basis.dim
    group = basis.group
    index = [(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)]
    pos = {t: a for a, t in enumerate(index)}
    rows = []
    if "covariant" in flags:
        # invariance under the generators gives the same row space, so the
        # same rref and nullspace, as invariance under every g
        for g in group.generators:
            r = basis.rho_matrix(g)
            for i in range(dim):
                for j in range(dim):
                    for k in range(dim):
                        row = [ZERO] * len(index)
                        for l in range(dim):
                            if r[i][l]:
                                row[pos[(l, j, k)]] = row[pos[(l, j, k)]] + r[i][l]
                        for m in range(dim):
                            if r[m][j]:
                                for l in range(dim):
                                    if r[l][k]:
                                        row[pos[(i, m, l)]] = row[pos[(i, m, l)]] - r[m][j] * r[l][k]
                        if any(row):
                            rows.append(row)
    if "torsion_free" in flags:
        for i in range(dim):
            for j in range(dim):
                for k in range(j + 1, dim):
                    row = [ZERO] * len(index)
                    row[pos[(i, j, k)]] = ONE
                    row[pos[(i, k, j)]] = row[pos[(i, k, j)]] - ONE
                    if any(row):
                        rows.append(row)
    base_null = linalg.nullspace(rows, len(index), ONE, ZERO)
    # express as family over p0.. with Cyc coefficients, then impose cotorsion
    if "cotorsion_free" in flags:
        if ip is None:
            raise ValueError("cotorsion freeness needs an inner product")
        adj = ip.adjugate()
        t = len(base_null)
        eq_rows = []  # over Poly in ip.vars
        for k in range(dim):
            for i in range(dim):
                for j in range(i + 1, dim):
                    row = []
                    for b in range(t):
                        total = Poly.constant(0, ip.vars)
                        for m in range(dim):
                            gim = adj[i][m]
                            gjm = adj[j][m]
                            if base_null[b][pos[(m, j, k)]]:
                                total = total + gim * base_null[b][pos[(m, j, k)]]
                            if base_null[b][pos[(m, i, k)]]:
                                total = total - gjm * base_null[b][pos[(m, i, k)]]
                        row.append(RatFunc(total))
                    eq_rows.append(row)
        sol = linalg.nullspace(eq_rows, t, RatFunc(Poly.constant(1, ip.vars)), RatFunc(Poly.constant(0, ip.vars)))
        combos = []
        for vec in sol:
            # clear the denominators, each made monic as it is fixed only up to a constant
            scale = Poly.constant(1, ip.vars)
            for coeff in vec:
                if coeff.den.degree() > 0:
                    scale = scale * coeff.den.monic_normalize()
            if scale.degree() > 0:
                vec = [x * RatFunc(scale, reduce=False) for x in vec]
            combo = [Poly.constant(0, ip.vars) for _ in index]
            for b, coeff in enumerate(vec):
                cp = coeff.as_poly()
                if not cp:
                    continue
                for a in range(len(index)):
                    if base_null[b][a]:
                        combo[a] = combo[a] + cp * base_null[b][a]
            combos.append(combo)
        family_vectors = combos
        variables = ip.vars
    else:
        family_vectors = [
            [Poly.constant(x, ip.vars if ip else ()) for x in vec] for vec in base_null
        ]
        variables = ip.vars if ip else ()
    params = tuple(f"p{a}" for a in range(len(family_vectors)))
    master = tuple(dict.fromkeys(tuple(variables) + params))
    gamma = {t: Poly.constant(0, master) for t in index}
    for name, vec in zip(params, family_vectors):
        pv = Poly.variable(name, master)
        for a, t in enumerate(index):
            if vec[a]:
                gamma[t] = gamma[t] + pv * vec[a].extend(master)
    return ConnectionFamily(basis, gamma, params, variables, [f for f in flags if f in LINEAR_FLAGS])


# -- polynomial compatibility residuals -----------------------------------------------


def metric_compat_residuals(family: ConnectionFamily, ip: InnerProduct):
    """Metric compatibility, cleared of inverse-metric denominators.

    The quadratic terms are grouped so that every polynomial product happens
    once: conjugated symbols T(p)^l_ij are contractions of Gamma with the
    constant gamma matrices, and the inverse-metric contraction
    W^l_pk = sum_m adj_lm Gamma^m_pk is shared across equations.
    """
    dim = family.dim
    basis = family.basis
    adj = ip.adjugate()
    G = family.gamma
    gam = {p: basis.gamma(p) for p in basis.basis}
    gaminv = {p: basis.gamma(basis.group.inv[p]) for p in basis.basis}

    def conjugated(p):
        # T^l_ij = gamma(p^-1)^l_a Gamma^a_bc gamma(p)^b_i gamma(p)^c_j
        gp, gpin = gam[p], gaminv[p]
        T = {}
        for l in range(dim):
            for i in range(dim):
                for j in range(dim):
                    # a Poly sum with no known zero, not a sparse map, so not _addto (also below)
                    total = None
                    for a in range(dim):
                        if not gpin[l][a]:
                            continue
                        for b in range(dim):
                            if not gp[b][i]:
                                continue
                            for c_ in range(dim):
                                if not gp[c_][j]:
                                    continue
                                t = G[(a, b, c_)] * (gpin[l][a] * gp[b][i] * gp[c_][j])
                                total = t if total is None else total + t
                    T[(l, i, j)] = total
        return T

    T = {p: conjugated(p) for p in basis.basis}
    W = {}
    for l in range(dim):
        for pidx in range(dim):
            for k in range(dim):
                total = None
                for m in range(dim):
                    if adj[l][m]:
                        t = adj[l][m] * G[(m, pidx, k)]
                        total = t if total is None else total + t
                W[(l, pidx, k)] = total
    out = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                total = None
                for l in range(dim):
                    t1 = adj[l][k] * G[(l, i, j)] + adj[j][l] * G[(l, i, k)]
                    total = t1 if total is None else total + t1
                for pidx, p in enumerate(basis.basis):
                    for l in range(dim):
                        w = W[(l, pidx, k)]
                        if w is None:
                            continue
                        diff = T[p][(l, i, j)]
                        diff = (diff - G[(l, i, j)]) if diff is not None else -G[(l, i, j)]
                        if diff:
                            total = total + w * diff
                if total:
                    out.append(total)
    return _dedupe(out)


def star_compat_residuals(family: ConnectionFamily):
    """2 Re Gamma^i_jk = (Gamma^i_uv)* (Gamma^v_jk - gamma(u^-1)^v_l Gamma^l_pm gamma(u)^p_j gamma(u)^m_k)."""
    dim = family.dim
    basis = family.basis
    G = family.gamma
    conjG = family.conjugated()
    gam = {p: basis.gamma(p) for p in basis.basis}
    gaminv = {p: basis.gamma(basis.group.inv[p]) for p in basis.basis}
    # bracket(u)^v_jk = Gamma^v_jk - gamma(u^-1)^v_l Gamma^l_pm gamma(u)^p_j gamma(u)^m_k
    bracket = {}
    for uidx, u in enumerate(basis.basis):
        for v in range(dim):
            for j in range(dim):
                for k in range(dim):
                    inner = None
                    for l in range(dim):
                        cl = gaminv[u][v][l]
                        if not cl:
                            continue
                        for pidx in range(dim):
                            gp = gam[u][pidx][j]
                            if not gp:
                                continue
                            for m in range(dim):
                                gm = gam[u][m][k]
                                if not gm:
                                    continue
                                t = G[(l, pidx, m)] * (cl * gp * gm)
                                inner = t if inner is None else inner + t
                    val = G[(v, j, k)]
                    if inner is not None:
                        val = val - inner
                    bracket[(uidx, v, j, k)] = val
    out = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                res = G[(i, j, k)] + conjG[(i, j, k)]
                for uidx in range(dim):
                    for v in range(dim):
                        cstar = conjG[(i, uidx, v)]
                        if not cstar:
                            continue
                        b = bracket[(uidx, v, j, k)]
                        if b:
                            res = res - cstar * b
                if res:
                    out.append(res)
    return _dedupe(out)


def riemann_compat_residuals(family: ConnectionFamily):
    """Curvature is a bimodule map: antisymmetrized quadratic tensors match
    their gamma(h)-conjugates for every group element h (Grassmann choice)."""
    dim = family.dim
    basis = family.basis
    group = basis.group
    G = family.gamma
    out = []

    # QQ^a_b[(l,p)] = sum_n Gamma^a_{ln} Gamma^n_{pb}, computed once
    QQ = {}
    for a in range(dim):
        for b in range(dim):
            for l in range(dim):
                for p in range(dim):
                    total = None
                    for n in range(dim):
                        t = G[(a, l, n)] * G[(n, p, b)]
                        total = t if total is None else total + t
                    QQ[(a, b, l, p)] = total
    for h in range(1, group.n):
        gh = basis.gamma(h)
        ghinv = basis.gamma(group.inv[h])
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for m in range(k + 1, dim):
                        res = QQ[(i, j, k, m)] - QQ[(i, j, m, k)]
                        for a in range(dim):
                            if not ghinv[i][a]:
                                continue
                            for b in range(dim):
                                if not gh[b][j]:
                                    continue
                                outer = ghinv[i][a] * gh[b][j]
                                for l in range(dim):
                                    if not gh[l][k]:
                                        continue
                                    for p in range(dim):
                                        if not gh[p][m]:
                                            continue
                                        scal = outer * gh[l][k] * gh[p][m]
                                        diff = QQ[(a, b, l, p)] - QQ[(a, b, p, l)]
                                        if diff:
                                            res = res - diff * scal
                        if res:
                            out.append(res)
    return _dedupe(out)


def _dedupe(polys):
    """The first of each set of polynomials equal up to a scalar, in order."""
    seen = set()
    out = []
    for p in polys:
        norm = p.monic_normalize()
        if norm not in seen:
            seen.add(norm)
            out.append(p)
    return out


# -- curvature -----------------------------------------------------------------------


def curvature(family: ConnectionFamily):
    """R^i_{jkl} = -Gamma^i_{jm} Gamma^m_{kl} + Gamma^i_{km} Gamma^m_{jl}."""
    dim = family.dim
    G = family.gamma
    R = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    total = None
                    for m in range(dim):
                        t = -(G[(i, j, m)] * G[(m, k, l)]) + G[(i, k, m)] * G[(m, j, l)]
                        total = t if total is None else total + t
                    R[(i, j, k, l)] = total
    return R


def ricci(family: ConnectionFamily):
    """Ricci contraction for the antisymmetric lift of 2-forms.

    The lift e^j ^ e^k -> (e^j (x) e^k - e^k (x) e^j)/2 contributes one
    factor 1/2 beyond the index contraction, so with the quadratic tensor
    R^i_{jkl} of ``curvature`` this is (1/4)(R^k_{kij} - R^k_{ikj}); the
    normalization is pinned by the worked quantum-group examples.
    """
    dim = family.dim
    R = curvature(family)
    quarter = Cyc.rational(Fraction(1, 4))
    out = {}
    for i in range(dim):
        for j in range(dim):
            total = None
            for k in range(dim):
                t = R[(k, k, i, j)] - R[(k, i, k, j)]
                total = t if total is None else total + t
            out[(i, j)] = total * quarter
    return out


def ricci_scalar(family: ConnectionFamily, ip: InnerProduct) -> Poly:
    ric = ricci(family)
    dim = family.dim
    total = None
    for i in range(dim):
        for j in range(dim):
            t = ip.matrix[i][j] * ric[(i, j)]
            total = t if total is None else total + t
    return total


# -- geometric Laplacians ---------------------------------------------------------------


def geometric_laplacian(family: ConnectionFamily, ip: InnerProduct):
    """Eigenvalue of the geometric operator on each group element.

    box h = [ l_{C_h} - sum_i alpha(h)_i sum_{jk} Gamma^i_{jk} g^{jk} ] h.
    """
    basis = family.basis
    dim = family.dim
    trace_term = []
    for i in range(dim):
        total = None
        for j in range(dim):
            for k in range(dim):
                t = family.gamma[(i, j, k)] * ip.matrix[j][k]
                total = t if total is None else total + t
        trace_term.append(total)
    out = {}
    for h in range(basis.group.n):
        alpha = basis.coords(h)
        lam = ip.length_of(h).extend(trace_term[0].vars)
        for i in range(dim):
            if alpha[i]:
                lam = lam - trace_term[i] * alpha[i]
        out[h] = lam
    return out


def laplacian_consistency_residuals(family: ConnectionFamily, ip: InnerProduct, lambdas: dict):
    """Conditions for the class operator to arise from the geometric data.

    For every pair (h, g):
      -(lam_{hg^-1} - lam_g) + (l_{hg^-1} - l_g)
        = sum g^{ak} alpha(h)_i gamma(g^-1)^i_l Gamma^l_{ak}.
    """
    basis = family.basis
    group = basis.group
    dim = family.dim
    lam = covariant_operator(group, lambdas)
    out = []
    for h in range(group.n):
        alpha = basis.coords(h)
        for g in range(group.n):
            hg = group.table[h][group.inv[g]]
            lhs = (
                -(_pc(lam[hg], ip.vars) - _pc(lam[g], ip.vars))
                + ip.length_of(hg)
                - ip.length_of(g)
            )
            ginv = basis.gamma(group.inv[g])
            rhs = None
            for i in range(dim):
                if not alpha[i]:
                    continue
                for l in range(dim):
                    if not ginv[i][l]:
                        continue
                    for a in range(dim):
                        for k in range(dim):
                            if not ip.matrix[a][k]:
                                continue
                            t = family.gamma[(l, a, k)] * (
                                ip.matrix[a][k] * alpha[i] * ginv[i][l]
                            )
                            rhs = t if rhs is None else rhs + t
            res = lhs - rhs if rhs is not None else lhs
            if res:
                out.append(res)
    return _dedupe(out)


# -- polynomial elimination ----------------------------------------------------------


def residuals_vanish(residuals, bindings) -> bool:
    return all(not r.substitute(bindings) for r in residuals)


def strip_monomial_content(poly: Poly, keep=()) -> Poly:
    """Divide out the largest monomial in the variables outside ``keep``
    dividing every term; safe for zero-set arguments away from those loci."""
    if not poly.terms:
        return poly
    keep_idx = {poly.vars.index(v) for v in keep if v in poly.vars}
    mins = None
    for exp in poly.terms:
        cur = [0 if i in keep_idx else e for i, e in enumerate(exp)]
        mins = cur if mins is None else [min(a, b) for a, b in zip(mins, cur)]
    if not any(mins):
        return poly
    out = {}
    for exp, c in poly.terms.items():
        out[tuple(a - b for a, b in zip(exp, mins))] = c
    return Poly(poly.vars, out)


def _monomials_upto(variables, degree):
    out = [()]
    for d in range(1, degree + 1):
        out.extend(itertools.combinations_with_replacement(variables, d))
    return out


def membership_certificate(residuals, target: Poly, params, degree: int = 1) -> bool:
    """Decide whether target = sum h_i R_i with deg(h_i) <= degree in the
    parameters, by exact linear algebra over the remaining variables' field.

    A positive answer certifies that target vanishes on every common zero of
    the residuals (for generic values of the non-parameter coefficients).
    """
    residuals = [strip_monomial_content(r, keep=params) for r in residuals if r]
    if not residuals:
        return not target
    allvars = tuple(dict.fromkeys(sum((r.vars for r in residuals), target.vars)))
    params = tuple(p for p in params if p in allvars)
    base = tuple(v for v in allvars if v not in params)
    pidx = [allvars.index(p) for p in params]
    bidx = [allvars.index(b) for b in base]
    scalar_field = not any(
        r.degree(b) > 0 for r in residuals for b in base
    ) and not any(target.degree(b) > 0 for b in base if b in target.vars)

    def split(poly):
        """Sparse row keyed by param-monomials; Cyc or RatFunc coefficients."""
        out = {}
        for exp, c in poly.terms.items():
            key = tuple(exp[i] for i in pidx)
            if scalar_field:
                _addto(out, key, c)
            else:
                rest = [0] * len(allvars)
                for i in bidx:
                    rest[i] = exp[i]
                bucket = out.setdefault(key, {})
                bucket[tuple(rest)] = c
        if scalar_field:
            return out
        return {
            k: RatFunc(Poly(allvars, v))
            for k, v in out.items()
            if any(bool(c) for c in v.values())
        }

    span = linalg.SparseSpan()
    for r in residuals:
        r = r.extend(allvars)
        for mono in _monomials_upto(params, degree):
            m = r
            for v in mono:
                m = m * Poly.variable(v, allvars)
            span.add(split(m))
    return span.contains(split(target.extend(allvars)))


def forced_linear_relations(residuals, params, candidates, degree: int = 1):
    """Certify candidate relations sequentially, substituting each certified
    relation before trying the rest; multiplier degree escalates only after
    the cheap rounds stop making progress.

    candidates: list of (description, target Poly, substitution dict or None).
    A target or its square in the residual ideal counts as certified (squares
    are enough because the parameters are real).
    Returns (certified descriptions, remaining residuals after substitutions).
    """
    pool = list(residuals)
    certified = []
    pending = list(candidates)
    for d in range(1, degree + 1):
        progress = True
        while progress and pending:
            progress = False
            for item in list(pending):
                desc, tgt, subs = item
                if membership_certificate(pool, tgt, params, degree=d) or (
                    membership_certificate(pool, tgt * tgt, params, degree=d)
                ):
                    certified.append(desc)
                    pending.remove(item)
                    if subs:
                        pool = [p for p in (r.substitute(subs) for r in pool) if p]
                    progress = True
        if not pending:
            break
    return certified, pool


def common_factor_in(residuals, var: str):
    """gcd of the residuals viewed in the given variable, primitive part."""
    pool = [r for r in residuals if r and r.degree(var) > 0]
    if not pool:
        return None
    g = pool[0]
    for r in pool[1:]:
        g = poly_gcd(g, r)
        if g.degree(var) <= 0:
            return None
    content = _content_wrt(g, var)
    return g.exact_div(content).monic_normalize()
