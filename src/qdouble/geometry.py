"""Quantum Riemannian geometry on a group algebra.

Covariant bimodule inner products determined by class lengths, with the
determinant and adjugate of one ``poly._det_adjugate`` pass (a degenerate
metric has no adjugate, so cotorsion and metric compatibility refuse it), the
class Laplacians and the mass/length dictionary, connection families solved
from linear covariance/torsion/cotorsion constraints, the polynomial
compatibility conditions (metric, star, curvature) as residual polynomials
whose ideals ``poly.groebner`` and ``poly.normal_form`` decide, curvature and
Ricci data, and geometric Laplacians.

All parametric data lives in the polynomial ring over the cyclotomic field
with named real indeterminates, so the family statements are checked as
polynomial identities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product

from .cyclotomic import ONE, Cyc, cyc
from .linalg import _addto
from .poly import Poly, RatFunc, _det_adjugate, dot
from .calculus import LambdaBasis
from .groups import ConfigError, FiniteGroup
from . import linalg


def _pc(value, variables):
    if isinstance(value, Poly):
        return value.extend(tuple(dict.fromkeys(tuple(variables) + value.vars)))
    return Poly.constant(value, tuple(variables))


class InnerProduct:
    """Covariant bimodule inner product on a chosen basis of invariant forms."""

    def __init__(self, basis: LambdaBasis, lengths: dict, variables=()):
        if not basis.dim:
            raise ConfigError("Lambda^1 = 0 for the trivial pair, so there is no inner product")
        group = basis.group
        self.basis = basis
        self.group = group
        self.vars = tuple(variables)
        # one length per class, constant on inversion-pairs, zero at the identity
        self.lengths: dict[int, Poly] = {0: Poly.constant(0, self.vars)}
        assigned = {c0: _pc(v, self.vars) for c0, v in group.per_class(lengths, "lengths").items()}
        if 0 in assigned:
            raise ConfigError(f"lengths: {group.labels[0]!r} is the identity, whose length is 0")
        for cls_ in group.conjugacy_classes()[1:]:
            c0, inv0 = cls_[0], group.class_inverse(cls_)[0]
            if c0 in assigned and inv0 in assigned and assigned[c0] != assigned[inv0]:
                raise ConfigError("lengths must agree on inverse classes")
            if c0 not in assigned and inv0 not in assigned:
                raise ConfigError(f"missing length for the class of {group.labels[c0]}")
            self.lengths[c0] = assigned[c0] if c0 in assigned else assigned[inv0]
        self.matrix = [
            [self.pair_elements(i, j) for j in basis.basis] for i in basis.basis
        ]

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
        generator u, hence for every u, as gamma and rho are representations."""
        self.basis.check_representations()
        dims = range(self.basis.dim)
        gram = {(i, j): self.matrix[i][j].extend(self.vars).terms for i, j in product(dims, repeat=2)}
        for u in self.group.generators:
            for mat in (self.basis.gamma(u), self.basis.rho_matrix(u)):
                moved = _contract_leg(_contract_leg(gram, 0, mat), 1, mat)
                if any(moved.get(key, {}) != terms for key, terms in gram.items()):
                    return False
        return True

    def metric_conditions_hold(self) -> bool:
        """Translation and conjugation identities for every pair g, h and
        every generator u, evaluated through the length formula.

        Generators are enough.  Right translation R_u(e^g) = e^{gu} - e^u
        satisfies R_{u2} R_{u1} = R_{u1 u2}, and conjugation is an action,
        so the u under which both preserve the pairing are closed under
        products, and in a finite group the generators' products are all
        of G."""
        group = self.group
        pair = [[self.pair_elements(g, h) for h in range(group.n)] for g in range(group.n)]
        for g in range(group.n):
            for h in range(group.n):
                base = pair[g][h]
                for u in group.generators:
                    gu, hu = group.table[g][u], group.table[h][u]
                    if base != pair[gu][hu] - pair[gu][u] - pair[u][hu] + pair[u][u]:
                        return False
                    if base != pair[group.conj(group.inv[u], g)][group.conj(group.inv[u], h)]:
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

    @cached_property
    def _det_adj(self):
        return _det_adjugate(self.matrix)

    def det(self) -> Poly:
        return self._det_adj[0]

    def adjugate(self):
        """adj with adj @ matrix = det * id; polynomial entries.  Conditions
        cleared with it are det times the real ones and hold vacuously when
        det = 0, so a degenerate metric is refused."""
        adj = self._det_adj[1]
        if adj is None:
            raise ConfigError("lengths: the metric's determinant is 0, so it has no inverse")
        return adj

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
    lam = group.class_function(lambdas, "eigenvalues")
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
    lam = group.class_function(lambdas, "eigenvalues")
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
    """Affine family of Christoffel symbols over named parameters.

    Invariant: every entry of ``gamma`` is over one tuple ``vars``, exactly
    the variables that occur in some entry, in the order the entries list
    them; the constructor re-expresses the entries over it.
    """

    def __init__(self, basis: LambdaBasis, gamma_entries, param_names):
        polys = gamma_entries.values()
        live = {v for p in polys for exp in p.terms for v, e in zip(p.vars, exp) if e}
        listed = dict.fromkeys(v for p in polys for v in p.vars)
        self.basis = basis
        self.dim = basis.dim
        self.vars = tuple(v for v in listed if v in live)
        self.gamma = {k: v.extend(self.vars) for k, v in gamma_entries.items()}  # (i,j,k) -> Poly
        self.params = tuple(param_names)

    def n_params(self) -> int:
        return len(self.params)

    def substitute(self, bindings: dict) -> "ConnectionFamily":
        new_params = tuple(p for p in self.params if p not in bindings)
        out = {k: v.substitute(bindings) for k, v in self.gamma.items()}
        return ConnectionFamily(self.basis, out, new_params)

    def reparameterize(self, functionals) -> "ConnectionFamily":
        """Express in new parameters given by linear functionals of the symbols.

        functionals: list of (name, {(i,j,k): coefficient}).  The family must
        be linear in the old parameters and the functional matrix invertible.
        """
        old = list(self.params)
        if len(functionals) != len(old):
            raise ValueError("need exactly one functional per parameter")
        names = tuple(n for n, _ in functionals)
        mat = []
        const = []
        for name, spec in functionals:
            combo = dot(((self.gamma[key], cyc(coeff)) for key, coeff in spec.items()), self.vars)
            mat.append([combo.coeff_of(p, 1) for p in old])
            const.append(combo.substitute({p: 0 for p in old}))
        # a non-constant entry (ValueError) means the family is not linear
        inv = linalg.inverse([[x.as_cyc() for x in row] for row in mat])
        # old param p_b = sum_a inv[b][a] (new_a - const_a)
        shifted = [Poly.variable(name, names) - const[a] for a, name in enumerate(names)]
        bindings = {p: dot(zip(shifted, inv[b]), names) for b, p in enumerate(old)}
        out = {k: v.substitute(bindings) for k, v in self.gamma.items()}
        return ConnectionFamily(self.basis, out, names)

    def conjugated(self) -> dict:
        return {k: v.conj() for k, v in self.gamma.items()}

    def complex_split(self) -> "ConnectionFamily":
        """Replace each parameter p by p_re + i p_im with real indeterminates."""
        split = tuple(f"{p}_{part}" for p in self.params for part in ("re", "im"))
        i_unit = Cyc.zeta(4)
        bindings = {
            p: Poly.variable(f"{p}_re", split) + Poly.variable(f"{p}_im", split) * i_unit
            for p in self.params
        }
        out = {k: v.substitute(bindings) for k, v in self.gamma.items()}
        return ConnectionFamily(self.basis, out, split)


LINEAR_FLAGS = ("covariant", "torsion_free", "cotorsion_free")


def connection_solve(basis: LambdaBasis, ip: InnerProduct | None, flags) -> ConnectionFamily:
    """Solve the linear constraints named by ``flags``, each in ``LINEAR_FLAGS``,
    exactly, returning an affine family with one parameter per solution vector.

    The compatibility conditions are not flags: ``metric_compat_residuals``,
    ``star_compat_residuals`` and ``riemann_compat_residuals`` give them on
    the family, and ``poly.groebner`` with ``poly.normal_form`` decides them.
    """
    flags = list(flags)
    unknown = [f for f in flags if f not in LINEAR_FLAGS]
    if unknown:
        raise ValueError(f"unknown flags {unknown}")
    dim = basis.dim
    group = basis.group
    index = [(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)]
    # the covariance and torsion kernel depends on the basis and these two
    # flags alone: solve it once per basis, kept on it by (covariant, torsion_free)
    kernels = basis.connection_kernels
    covariant, torsion_free = "covariant" in flags, "torsion_free" in flags
    if (covariant, torsion_free) not in kernels:
        rows = []
        if covariant:
            # Gamma = rho(g^-1) Gamma rho(g) rho(g) on the generators only: as rho
            # is a representation, the rows of st are combinations of those of s
            # and t, so the rref and nullspace are those of every g
            basis.check_representations()
            unknowns = {t: {t: ONE} for t in index}
            for g in group.generators:
                moved = _conjugate(unknowns, basis.rho_matrix, group, g)
                for t in index:
                    row = {b: -c for b, c in moved.get(t, {}).items()}
                    _addto(row, t, ONE)
                    if row:
                        rows.append(row)
        if torsion_free:
            rows += [
                {(i, j, k): ONE, (i, k, j): -ONE}
                for i in range(dim)
                for j in range(dim)
                for k in range(j + 1, dim)
            ]
        kernels[covariant, torsion_free] = linalg.nullspace(rows, index, ONE)
    base_null = kernels[covariant, torsion_free]
    # express as family over p0.. with Cyc coefficients, then impose cotorsion
    if "cotorsion_free" in flags:
        if ip is None:
            raise ValueError("cotorsion freeness needs an inner product")
        adj = ip.adjugate()
        eq_rows = []  # over Poly in ip.vars
        for k in range(dim):
            for i in range(dim):
                for j in range(i + 1, dim):
                    row = {}
                    for a, vec in enumerate(base_null):
                        pairs = []
                        for m in range(dim):
                            if (m, j, k) in vec:
                                pairs.append((adj[i][m], vec[m, j, k]))
                            if (m, i, k) in vec:
                                pairs.append((adj[j][m], -vec[m, i, k]))
                        entry = dot(pairs, ip.vars)
                        if entry:
                            row[a] = RatFunc(entry)
                    if row:
                        eq_rows.append(row)
        sol = linalg.nullspace(eq_rows, range(len(base_null)), RatFunc(Poly.constant(1, ip.vars)))
        family_vectors = []
        for vec in sol:
            # clear the denominators, each made monic as it is fixed only up to a constant
            scale = Poly.constant(1, ip.vars)
            for coeff in vec.values():
                if coeff.den.degree() > 0:
                    scale = scale * coeff.den.monic_normalize()
            if scale.degree() > 0:
                vec = {a: x * scale for a, x in vec.items()}
            cps = {a: x.as_poly() for a, x in vec.items()}
            combos = {
                t: dot(((cp, base_null[a][t]) for a, cp in cps.items() if t in base_null[a]), ip.vars)
                for t in index
            }
            family_vectors.append({t: p for t, p in combos.items() if p})
    else:
        family_vectors = [{t: Poly.constant(x) for t, x in vec.items()} for vec in base_null]
    params = tuple(f"p{a}" for a in range(len(family_vectors)))
    pvs = [Poly.variable(name, params) for name in params]
    gamma = {t: dot((vec[t], pv) for vec, pv in zip(family_vectors, pvs) if t in vec) for t in index}
    return ConnectionFamily(basis, gamma, params)


# -- polynomial compatibility residuals -----------------------------------------------


def metric_compat_residuals(family: ConnectionFamily, ip: InnerProduct):
    """Metric compatibility, cleared of inverse-metric denominators.

    The quadratic terms are grouped so that every polynomial product happens
    once: conjugated symbols T(p)^l_ij are contractions of Gamma with the
    constant gamma matrices (``_conjugate``), and the inverse-metric
    contraction W^l_pk = sum_m adj_lm Gamma^m_pk is shared across equations.
    """
    dim = family.dim
    basis = family.basis
    adj = ip.adjugate()
    G = family.gamma
    terms = {key: g.terms for key, g in G.items()}
    T = {p: _conjugate(terms, basis.gamma, basis.group, p) for p in basis.basis}
    W = {
        (l, pidx, k): dot((adj[l][m], G[(m, pidx, k)]) for m in range(dim) if adj[l][m])
        for l, pidx, k in product(range(dim), repeat=3)
        if any(adj[l])
    }
    out = []
    for i in range(dim):
        for j in range(dim):
            # the nonzero T(p)^l_ij - Gamma^l_ij, shared by every k
            diffs = []
            for pidx, p in enumerate(basis.basis):
                for l in range(dim):
                    diff = Poly._make(family.vars, T[p].get((l, i, j), {})) - G[(l, i, j)]
                    if diff:
                        diffs.append((l, pidx, diff))
            for k in range(dim):
                # each two-term sum enters whole: a partial sum that cancels drops its tag
                pairs = [(dot([(adj[l][k], G[(l, i, j)]), (adj[j][l], G[(l, i, k)])]), 1) for l in range(dim)]
                pairs += [(W[(l, pidx, k)], diff) for l, pidx, diff in diffs if (l, pidx, k) in W]
                total = dot(pairs)
                if total:
                    out.append(total)
    return _dedupe(out)


def star_compat_residuals(family: ConnectionFamily):
    """2 Re Gamma^i_jk = (Gamma^i_uv)* (Gamma^v_jk - gamma(u^-1)^v_l Gamma^l_pm gamma(u)^p_j gamma(u)^m_k)."""
    dim = family.dim
    basis = family.basis
    G = family.gamma
    conjG = family.conjugated()
    # bracket(u)^v_jk = Gamma^v_jk - gamma(u^-1)^v_l Gamma^l_pm gamma(u)^p_j gamma(u)^m_k
    terms = {key: g.terms for key, g in G.items()}
    bracket = {}
    for uidx, u in enumerate(basis.basis):
        T = _conjugate(terms, basis.gamma, basis.group, u)
        for key, val in G.items():
            bracket[(uidx, *key)] = val - Poly._make(family.vars, T[key]) if key in T else val
    minus_conjG = {key: -val for key, val in conjG.items()}
    out = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                res = dot([
                    (G[(i, j, k)], 1),
                    (conjG[(i, j, k)], 1),
                    *(
                        (minus_conjG[(i, uidx, v)], bracket[(uidx, v, j, k)])
                        for uidx, v in product(range(dim), repeat=2)
                        if conjG[(i, uidx, v)] and bracket[(uidx, v, j, k)]
                    ),
                ])
                if res:
                    out.append(res)
    return _dedupe(out)


def _contract_leg(T: dict, leg: int, mat) -> dict:
    """T with index ``leg`` contracted against mat: out[..x..] = sum_y
    mat[x][y] T[..y..], over entries that are zero-free polynomial term maps."""
    out = {}
    cols = linalg._columns(mat)
    for key, terms in T.items():
        for x, s in cols[key[leg]]:
            acc = out.setdefault(key[:leg] + (x,) + key[leg + 1:], {})
            for e, c in terms.items():
                _addto(acc, e, c * s)
    return out


def _conjugate(T: dict, act, group: FiniteGroup, h: int) -> dict:
    """out[i, j, ...] = sum act(h^-1)^i_a act(h)^b_j ... T[a, b, ...] for act
    ``LambdaBasis.gamma`` or ``.rho_matrix``, one leg at a time."""
    out = _contract_leg(T, 0, act(group.inv[h]))
    ht = list(zip(*act(h)))
    for leg in range(1, len(next(iter(T)))):
        out = _contract_leg(out, leg, ht)
    return out


def riemann_compat_residuals(family: ConnectionFamily):
    """Curvature is a bimodule map: antisymmetrized quadratic tensors match
    their gamma(h)-conjugates for every group element h (Grassmann choice).

    The antisymmetrized tensor D^a_b[(l,p)] = QQ^a_b[(l,p)] - QQ^a_b[(p,l)]
    is R^a_{plb} of ``curvature``, computed once.  For each generator h its
    conjugate sum gamma(h^-1)^i_a gamma(h)^b_j gamma(h)^l_k gamma(h)^p_m
    D^a_b[(l,p)] is contracted one tensor leg at a time, dim^5 sparse scalar
    multiplications per leg where the full sum takes dim^8, and subtracted
    from D at each (i, j, k < m) in index order.  The ideal is that of every
    h: as gamma is a representation, D - (st).D = (D - t.D) + t.(D - s.D)
    with t a constant matrix."""
    dim = family.dim
    basis = family.basis
    group = basis.group
    basis.check_representations()
    out = []
    R = curvature(family)
    D = {(a, b, l, p): R[(a, p, l, b)].terms for a, b, l, p in R}
    for h in group.generators:
        conj = _conjugate(D, basis.gamma, group, h)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for m in range(k + 1, dim):
                        res = dict(D[(i, j, k, m)])
                        for e, c in conj.get((i, j, k, m), {}).items():
                            _addto(res, e, -c)
                        if res:
                            out.append(Poly._make(family.vars, res))
    return _dedupe(out)


# the residual counts a report may ask for by name, beside LINEAR_FLAGS; each takes (family, ip)
RESIDUALS = {
    "metric_compat": metric_compat_residuals,
    "star_compat": lambda family, ip: star_compat_residuals(family.complex_split()),
    "riemann_compat": lambda family, ip: riemann_compat_residuals(family),
}


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


def _quadratic(family: ConnectionFamily) -> dict:
    """QQ^a_b[(l,p)] = sum_n Gamma^a_{ln} Gamma^n_{pb}, keyed (a, b, l, p)."""
    dims = range(family.dim)
    G = family.gamma
    QQ = {}
    for a, b, l, p in product(dims, repeat=4):
        QQ[(a, b, l, p)] = dot((G[(a, l, n)], G[(n, p, b)]) for n in dims)
    return QQ


def curvature(family: ConnectionFamily):
    """R^i_{jkl} = -Gamma^i_{jm} Gamma^m_{kl} + Gamma^i_{km} Gamma^m_{jl},
    that is QQ^i_l[(k,j)] - QQ^i_l[(j,k)] in the tensor of ``_quadratic``."""
    QQ = _quadratic(family)
    return {(i, j, k, l): QQ[(i, l, k, j)] - QQ[(i, l, j, k)] for i, j, k, l in QQ}


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
    # (sum_k t_k) quarter term by term, the same partial sums scaled by a rational
    return {
        (i, j): dot((R[(k, k, i, j)] - R[(k, i, k, j)], quarter) for k in range(dim))
        for i, j in product(range(dim), repeat=2)
    }


def ricci_scalar(family: ConnectionFamily, ip: InnerProduct) -> Poly:
    ric = ricci(family)
    return dot((ip.matrix[i][j], ric[(i, j)]) for i, j in product(range(family.dim), repeat=2))


# -- geometric Laplacians ---------------------------------------------------------------


def geometric_laplacian(family: ConnectionFamily, ip: InnerProduct):
    """Eigenvalue of the geometric operator on each group element.

    box h = [ l_{C_h} - sum_i alpha(h)_i sum_{jk} Gamma^i_{jk} g^{jk} ] h.
    """
    basis = family.basis
    dim = family.dim
    trace_term = _metric_trace(family, ip)
    out = {}
    for h in range(basis.group.n):
        alpha = basis.coords(h)
        terms = [(trace_term[i], -alpha[i]) for i in range(dim) if alpha[i]]
        out[h] = dot([(ip.length_of(h), 1), *terms])
    return out


def _metric_trace(family: ConnectionFamily, ip: InnerProduct):
    """[sum_{jk} Gamma^i_{jk} g^{jk} for each i], each summed left to right."""
    dims = range(family.dim)
    return [dot((family.gamma[(i, j, k)], ip.matrix[j][k]) for j, k in product(dims, repeat=2)) for i in dims]


def laplacian_consistency_residuals(family: ConnectionFamily, ip: InnerProduct, lambdas: dict):
    """Conditions for the class operator to arise from the geometric data.

    For every pair (h, g), with the trace of ``_metric_trace``:
      -(lam_{hg^-1} - lam_g) + (l_{hg^-1} - l_g)
        = sum g^{ak} alpha(h)_i gamma(g^-1)^i_l Gamma^l_{ak}.
    """
    basis = family.basis
    group = basis.group
    dims = range(family.dim)
    lam = group.class_function(lambdas, "eigenvalues")
    trace = _metric_trace(family, ip)
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
            rhs = ((trace[l], alpha[i] * ginv[i][l]) for i in dims if alpha[i] for l in dims if ginv[i][l])
            res = lhs - dot(rhs)
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
