"""First-order differential calculi on the function algebra, the group
algebra and the dual double, with the gamma/rho matrices and partial
derivatives feeding the geometry layer.

Three concrete carriers:

* ``FunctionCalculus``     -- Cayley-graph calculus on C(G) from an
  ad-stable subset S, basis one-forms e_c, d = sum_c (R_c - id) (x) e_c.
* ``GroupAlgebraCalculus`` -- calculus on the group algebra from a matrix
  representation, with invariant forms e^g = rho(g) - 1 inside End(V).
* ``DoubleCalculus``       -- the calculus on the dual double whose
  invariant forms are End(V_{C,pi}).
"""

from __future__ import annotations

from math import lcm

from .cyclotomic import ONE, ZERO
from .groups import ClassContext, ConfigError, FiniteGroup
from .reps import Rep, check_homomorphism, induced_rep
from . import linalg
from .linalg import _accumulate, _addto, _apply, _columns


# -- calculus on C(G) -----------------------------------------------------------


class FunctionCalculus:
    """Bicovariant calculus on C(G) attached to an ad-stable S not containing e."""

    def __init__(self, group: FiniteGroup, subset):
        subset = sorted({group.element(s) if isinstance(s, str) else s for s in subset})
        if 0 in subset:
            raise ValueError("the identity cannot generate an arrow")
        for c in subset:
            for g in group.generators:
                if group.conj(g, c) not in subset:
                    raise ValueError("subset is not stable under conjugation")
        self.group = group
        self.subset = subset

    def is_connected(self) -> bool:
        return len(self.group.subgroup_generated(self.subset)) == self.group.n

    def d(self, fun):
        """d(f) = sum_c (R_c - id)(f) (x) e_c as dict (x, c) -> coeff."""
        table = self.group.table
        return _accumulate(
            ((x, c), fun[table[x][c]] - fun[x]) for c in self.subset for x in range(self.group.n)
        )

    def one_form_times_function(self, form, fun):
        """(sum delta_x e_c) . f using e_c f = R_c(f) e_c."""
        table = self.group.table
        return _accumulate(((x, c), coeff * fun[table[x][c]]) for (x, c), coeff in form.items())

    def function_times_one_form(self, fun, form):
        return _accumulate(((x, c), fun[x] * coeff) for (x, c), coeff in form.items())

    def leibniz_holds(self) -> bool:
        n = self.group.n
        for g in range(n):
            for h in range(n):
                fg = [ONE if x == g else ZERO for x in range(n)]
                fh = [ONE if x == h else ZERO for x in range(n)]
                prod = [a * b for a, b in zip(fg, fh)]
                lhs = self.d(prod)
                rhs = self.one_form_times_function(self.d(fg), fh)
                for k, v in self.function_times_one_form(fg, self.d(fh)).items():
                    _addto(rhs, k, v)
                if lhs != rhs:
                    return False
        return True

    def is_inner(self) -> bool:
        """theta = sum_c e_c satisfies df = [theta, f]."""
        n = self.group.n
        for g in range(n):
            fun = [ONE if x == g else ZERO for x in range(n)]
            comm = {}
            for c in self.subset:
                theta_c = {(x, c): ONE for x in range(n)}
                left = self.one_form_times_function(theta_c, fun)
                right = self.function_times_one_form(fun, theta_c)
                for k, v in left.items():
                    _addto(comm, k, v)
                for k, v in right.items():
                    _addto(comm, k, -v)
            if comm != self.d(fun):
                return False
        return True

    def right_coaction_check(self) -> bool:
        """Delta_R(h dg) = h_1 dg_1 (x) h_2 g_2 on the delta basis, exactly."""
        group = self.group
        n = group.n
        for h in range(n):
            for g in range(n):
                fh = [ONE if x == h else ZERO for x in range(n)]
                fg = [ONE if x == g else ZERO for x in range(n)]
                form = self.function_times_one_form(fh, self.d(fg))
                # Delta_R(delta_x (x) e_c) = sum_{ab=x} delta_a (x) e_{b c b^-1} (x) delta_b
                lhs = {}
                for (x, c), coeff in form.items():
                    for a in range(n):
                        b = group.table[group.inv[a]][x]
                        _addto(lhs, (a, group.conj(b, c), b), coeff)
                rhs = {}
                for a in range(n):
                    b = group.table[group.inv[a]][g]
                    for cc in range(n):
                        dd = group.table[group.inv[cc]][h]
                        if dd != b:
                            continue
                        fcc = [ONE if x == cc else ZERO for x in range(n)]
                        fa = [ONE if x == a else ZERO for x in range(n)]
                        part = self.function_times_one_form(fcc, self.d(fa))
                        for (x, c), coeff in part.items():
                            _addto(rhs, (x, c, b), coeff)
                if lhs != rhs:
                    return False
        return True

    def quotient_graph(self, ctx: ClassContext):
        """Arrows c -> d c d^-1 (where different) on the class as vertex set."""
        arrows = set()
        for c in ctx.cls:
            for d in ctx.cls:
                target = ctx.group.conj(d, c)
                if target != c:
                    arrows.add((c, target))
        return sorted(arrows)


# -- calculus on the group algebra ----------------------------------------------


class GroupAlgebraCalculus:
    """Calculus on the group algebra with invariant forms rho(kG+) in End(V)."""

    def __init__(self, rho: Rep):
        self.group = rho.group
        self.rho = rho
        self.e_matrices = [
            [
                [rho.matrices[g][i][j] - (ONE if i == j else ZERO) for j in range(rho.dim)]
                for i in range(rho.dim)
            ]
            for g in range(self.group.n)
        ]
        # reduced echelon basis of Lambda^1, the span of the e^g
        self._lambda_rows = linalg.rref([self._flatten(m) for m in self.e_matrices])[0]
        self.lambda_dim = len(self._lambda_rows)

    def _flatten(self, m):
        return [x for row in m for x in row]

    def is_connected(self) -> bool:
        """Connected iff the representation is faithful."""
        ident = linalg.identity(self.rho.dim, ONE, ZERO)
        return sum(1 for m in self.rho.matrices if linalg.mat_eq(m, ident)) == 1

    def is_inner(self) -> tuple[bool, list | None]:
        """Solve theta rho(g) - theta = rho(g) - 1 for theta in the span of the e^g.

        The condition reads (theta - 1) rho(g) = theta - 1, so it is imposed
        on generators only; the solution space, hence the rref and theta,
        is the same as over the whole group."""
        rows = self._lambda_rows
        dim = self.rho.dim
        bms = [[base[k * dim: (k + 1) * dim] for k in range(dim)] for base in rows]
        constraints = []
        rhs_vec = []
        # unknown theta expressed in the rref basis of Lambda^1
        for g in self.group.generators:
            prods = [linalg.mat_mul(bm, self.rho.matrices[g]) for bm in bms]
            for i in range(dim):
                for j in range(dim):
                    constraints.append(
                        {a: x for a, (bm, prod) in enumerate(zip(bms, prods)) if (x := prod[i][j] - bm[i][j])}
                    )
                    rhs_vec.append(self.e_matrices[g][i][j])
        sol = linalg.solve(constraints, len(rows), rhs_vec)
        if sol is None:
            return False, None
        theta = [[ZERO] * dim for _ in range(dim)]
        for a, coeff in sol.items():
            for i in range(dim):
                for j in range(dim):
                    theta[i][j] = theta[i][j] + coeff * rows[a][i * dim + j]
        return True, theta


class LambdaBasis:
    """A chosen basis B of invariant forms with its gamma and rho matrices."""

    def __init__(self, calculus: GroupAlgebraCalculus, preferred=None):
        group = calculus.group
        candidates = []
        if preferred is not None:
            candidates = [group.element(x) if isinstance(x, str) else x for x in preferred]
        else:
            candidates = [g for g in range(1, group.n)]
        chosen = []
        chosen_rows = []
        span = linalg.SparseSpan()
        for g in candidates:
            row = calculus._flatten(calculus.e_matrices[g])
            # a zero row never enlarges the span, so e^g = 0 is dependent
            if not span.add(dict(enumerate(row))):
                if preferred is not None:
                    raise ConfigError(f"preferred basis is linearly dependent at {group.labels[g]!r}")
                continue
            chosen.append(g)
            chosen_rows.append(row)
        if len(chosen) != calculus.lambda_dim:
            raise ConfigError("basis does not span the invariant forms")
        self.calculus = calculus
        self.group = group
        self.basis = chosen  # group elements labelling e^i
        # the span's rows are echelon on its pivot columns P, so B[:, P] is
        # invertible, and x B = t reads x = t[P] B[:, P]^-1 for every target
        self._pivots = sorted(span.pivots)
        square = [[row[p] for p in self._pivots] for row in chosen_rows]
        self._solver = linalg.inverse(square) if chosen else []
        self._order = lcm(*(x.order for row in chosen_rows for x in row))
        self._coord_cache: dict[int, list] = {}
        self._gamma_cache: dict[int, list] = {}
        self._rho_cache: dict[int, list] = {}
        # {(covariant, torsion_free): kernel}, filled by geometry.connection_solve
        self.connection_kernels: dict[tuple, list] = {}
        self._representations_checked = False

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, g: int):
        """Coordinates of e^g in the chosen basis, tagged with the lcm of the
        orders of the basis rows and of e^g, as one solve of the two would."""
        if g not in self._coord_cache:
            target = self.calculus._flatten(self.calculus.e_matrices[g])
            zero = ZERO.promote(lcm(self._order, *(x.order for x in target)))
            top = [target[p] for p in self._pivots]
            self._coord_cache[g] = [
                sum((t * row[j] for t, row in zip(top, self._solver) if t), zero)
                for j in range(self.dim)
            ]
        return self._coord_cache[g]

    def gamma(self, g: int):
        """gamma(g)^i_j: coordinates of e^{ig} - e^g in the basis (rows: i)."""
        if g not in self._gamma_cache:
            group = self.group
            base = self.coords(g)
            rows = []
            for i in self.basis:
                top = self.coords(group.table[i][g])
                rows.append([a - b for a, b in zip(top, base)])
            self._gamma_cache[g] = rows
        return self._gamma_cache[g]

    def rho_matrix(self, g: int):
        """rho(g)^i_j: coordinates of e^{g^-1 i g}."""
        if g not in self._rho_cache:
            group = self.group
            self._rho_cache[g] = [
                self.coords(group.conj(group.inv[g], i)) for i in self.basis
            ]
        return self._rho_cache[g]

    def check_representations(self) -> None:
        """Raise ValueError naming (g, s) unless gamma (right translation,
        e^i -> e^{ig} - e^g) and rho (conjugation) are representations of G.
        Every condition decided over Lambda^1 on generators only rests on
        this premise; it is decided once per basis, on first use."""
        if self.dim and not self._representations_checked:
            for act, name in ((self.gamma, "gamma"), (self.rho_matrix, "rho")):
                check_homomorphism(self.group, [act(g) for g in range(self.group.n)], name)
            self._representations_checked = True

    def _gamma_rho_first_failure(self):
        """The first (g, k, j, lhs, rhs), k a generator, at which column j of
        gamma(g) rho(k) differs from that of rho(k) gamma(k^-1 g k), or None."""
        group = self.group
        gammas = [_columns(self.gamma(g)) for g in range(group.n)]
        rhos = {k: _columns(self.rho_matrix(k)) for k in group.generators}
        for g in range(group.n):
            for k, rho in rhos.items():
                moved = gammas[group.conj(group.inv[k], g)]
                for j, col in enumerate(rho):
                    lhs, rhs = _apply(gammas[g], col), _apply(rho, moved[j])
                    if lhs != rhs:
                        return g, k, j, lhs, rhs
        return None

    def gamma_rho_commutation_holds(self) -> bool:
        """gamma(g) rho(k) = rho(k) gamma(k^-1 g k) for every g and every
        generator k; the k that satisfy it are closed under products."""
        self.check_representations()
        return self._gamma_rho_first_failure() is None

    def gamma_well_defined(self) -> bool:
        """e^g = e^h must imply gamma(g) = gamma(h): each g is keyed by the
        entries of e^g and compared with the first element of its key only."""
        first = {}
        for g, form in enumerate(self.calculus.e_matrices):
            h = first.setdefault(tuple(x for row in form for x in row), g)
            if h != g and not linalg.mat_eq(self.gamma(g), self.gamma(h)):
                return False
        return True


def lambda_basis(calculus: GroupAlgebraCalculus, preferred=None) -> LambdaBasis:
    return LambdaBasis(calculus, preferred)


# -- calculus on the dual double -------------------------------------------------


class DoubleCalculus:
    """Coirreducible calculus on the dual double with forms End(V_{C,pi}).

    One-form elements are dicts ((g, h), (c, i, d, j)) -> Cyc standing for
    (delta_g (x) h) (x) E_{ci}^{dj}.
    """

    def __init__(self, ctx: ClassContext, pi: Rep):
        if ctx.rep == 0 and pi.is_trivial():
            raise ValueError("the trivial pair does not define a calculus")
        # imported here so that the group-algebra reports do not load double
        from .double import build_VCpi

        self.ctx = ctx
        self.pi = pi
        self.group = ctx.group
        self.module = build_VCpi(ctx, pi)
        self.cls = ctx.cls
        self._cpos = {c: k for k, c in enumerate(ctx.cls)}

    def form_indices(self):
        for c in self.cls:
            for i in range(self.pi.dim):
                for d in self.cls:
                    for j in range(self.pi.dim):
                        yield (c, i, d, j)

    def grading(self, c, i, d, j) -> int:
        return self.group.table[c][self.group.inv[d]]

    def _act_dual(self, h, d, j):
        """h |> E^{dj} = pi(zeta_d(h)^-1)^j_l E^{(h d h^-1) l}: row (d, j) of
        the V_{C,pi} action of h^-1, read in its columns (h d h^-1, l), with
        an absent entry read as zero."""
        dim = self.pi.dim
        target = self.group.conj(h, d)
        row, cols = self._cpos[d] * dim + j, self.module.action[self.group.inv[h]]
        first = self._cpos[target] * dim
        return [(target, l, dict(cols[first + l]).get(row, ZERO)) for l in range(dim)]

    def d_delta(self, g: int):
        """d(delta_g) = sum_c (delta_{g c^-1} - delta_g) (x) sum_i E_{ci}^{ci}."""
        group = self.group
        out = {}
        for c in self.cls:
            for i in range(self.pi.dim):
                for sign, x in ((ONE, group.table[g][group.inv[c]]), (-ONE, g)):
                    _addto(out, ((x, 0), (c, i, c, i)), sign)
        return out

    def d_group(self, h: int):
        """d h = sum_c chc^-1 (x) E_{ci} (x) h^-1 |> E^{ci}  -  h (x) sum E_{ci}^{ci}."""
        group = self.group
        out = {}
        hinv = group.inv[h]
        for c in self.cls:
            mid = group.conj(c, h)
            for i in range(self.pi.dim):
                for (dtar, l, coeff) in self._act_dual(hinv, c, i):
                    if coeff:
                        for x in range(group.n):
                            _addto(out, ((x, mid), (c, i, dtar, l)), coeff)
                for x in range(group.n):
                    _addto(out, ((x, h), (c, i, c, i)), -ONE)
        return out

    def d_basis(self, g: int, h: int):
        """d(delta_g (x) h) by the Leibniz rule on delta_g . (1 (x) h)."""
        # (d delta_g) . (1 (x) h)  +  delta_g . dh, with delta_g = delta_g (x) e
        out = self._right_mult_group(self.d_delta(g), h)
        for key, coeff in self.left_mult(g, 0, self.d_group(h)).items():
            _addto(out, key, coeff)
        return out

    def _right_mult_delta(self, form_elt, g: int):
        """omega . delta_g with E_{ci}^{dj} . delta_g = delta_{g c^-1} (x) E_{ci}^{dj}."""
        group = self.group
        return _accumulate(
            (((x, y), (c, i, d, j)), coeff)
            for ((x, y), (c, i, d, j)), coeff in form_elt.items()
            if x == group.table[g][group.inv[c]]
        )

    def _right_mult_group(self, form_elt, h: int):
        """omega . h with E_{ci}^{dj} . h = chc^-1 (x) E_{ci} (x) h^-1 |> E^{dj}."""
        group = self.group
        hinv = group.inv[h]
        out = {}
        for ((x, y), (c, i, d, j)), coeff in form_elt.items():
            mid = group.table[y][group.conj(c, h)]
            for (dtar, l, cc) in self._act_dual(hinv, d, j):
                _addto(out, ((x, mid), (c, i, dtar, l)), coeff * cc)
        return out

    def right_mult(self, form_elt, g: int, h: int):
        """omega . (delta_g (x) h)."""
        return self._right_mult_group(self._right_mult_delta(form_elt, g), h)

    def left_mult(self, g: int, h: int, form_elt):
        table = self.group.table
        return _accumulate(
            (((x, table[h][y]), form), coeff)
            for ((x, y), form), coeff in form_elt.items()
            if x == g
        )

    def theta(self):
        out = {}
        for x in range(self.group.n):
            for c in self.cls:
                for i in range(self.pi.dim):
                    out[((x, 0), (c, i, c, i))] = ONE
        return out

    def inner_check(self) -> bool:
        """d a = theta a - a theta on the algebra basis."""
        theta = self.theta()
        group = self.group
        for g in range(group.n):
            for h in range(group.n):
                lhs = self.d_basis(g, h)
                rhs = self.right_mult(theta, g, h)
                for key, coeff in self.left_mult(g, h, theta).items():
                    _addto(rhs, key, -coeff)
                if lhs != rhs:
                    return False
        return True

    def leibniz_check(self) -> bool:
        """d(ab) = (da) b + a (db) over all pairs of algebra basis elements."""
        group = self.group
        for g1 in range(group.n):
            for h1 in range(group.n):
                da = self.d_basis(g1, h1)
                for g2 in range(group.n):
                    for h2 in range(group.n):
                        # tensor product algebra: delta functions must agree
                        lhs = self.d_basis(g1, group.table[h1][h2]) if g2 == g1 else {}
                        rhs = self.right_mult(da, g2, h2)
                        db = self.d_basis(g2, h2)
                        for key, coeff in self.left_mult(g1, h1, db).items():
                            _addto(rhs, key, coeff)
                        if lhs != rhs:
                            return False
        return True

    def pushforward_dims(self):
        """Dimensions of the induced form spaces on the two quotients.

        p1 keeps delta_pi,1 |C| arrow generators on C(G); p2 keeps
        delta_C,{e} dim(pi)^2 generators on the group algebra.
        """
        p1 = len(self.cls) if self.pi.is_trivial() else 0
        p2 = self.pi.dim * self.pi.dim if self.ctx.rep == 0 else 0
        return p1, p2


# -- base calculi of the two bundles ----------------------------------------------


def base_calculus_group_algebra(ctx: ClassContext, pi: Rep):
    """Base and structure calculi of the bundle over the group algebra.

    Returns (GroupAlgebraCalculus from the induced representation,
    FunctionCalculus or None on the structure quantum group, ver_is_zero).
    """
    rho = induced_rep(ctx, pi)
    base = GroupAlgebraCalculus(rho)
    structure = None
    if pi.is_trivial() and ctx.rep != 0:
        structure = FunctionCalculus(ctx.group, ctx.cls)
    ver_is_zero = not pi.is_trivial()
    return base, structure, ver_is_zero


def base_calculus_functions(ctx: ClassContext, pi: Rep):
    """Base calculus on C(G) and the coset quotient graph.

    Returns (FunctionCalculus or None, arrows of the quotient graph).
    """
    if ctx.rep == 0:
        return None, []
    calc = FunctionCalculus(ctx.group, ctx.cls)
    return calc, calc.quotient_graph(ctx)
