"""The quantum double of a finite group and its modules.

``DoubleElement`` is a sparse vector over the basis delta_g (x) h carried
by both the double D(G) (semidirect product algebra, tensor coalgebra) and
its dual D~(G) (tensor algebra, semidirect coproduct); which product or
coproduct applies is chosen by the caller, matching how the braided theory
mixes them.  ``hopf_failures`` decides coassociativity, counit, antipode
and bialgebra axioms of any such choice on tables of basis coproducts,
products and antipodes, and names the first failing basis key or pair.
``CrossedModule`` realizes G-graded G-modules, which are the
same thing as D(G)-modules; the irreducibles V_{C,pi} are built from a
class context and a centralizer irrep.
A crossed module stores its action as sparse columns (``linalg._columns``),
the one form of a G-action that the package keeps, checked when it is built
by ``reps.homomorphism_failure``; every ``braided.BraidedLie`` is a
crossed module.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import ONE, ZERO, Cyc, cyc
from .groups import FiniteGroup, ClassContext, orbit_representatives
from .reps import Rep, homomorphism_failure, induced_matrices, irrep_catalog, irrep_family
from . import linalg
from .linalg import _accumulate, _addto, _columns


class DoubleElement:
    """Finitely supported map (g, h) -> Cyc over the basis delta_g (x) h."""

    __slots__ = ("group", "terms")

    def __init__(self, group: FiniteGroup, terms=None):
        self.group = group
        self.terms: dict[tuple[int, int], Cyc] = {}
        if terms:
            for key, coeff in terms.items():
                c = coeff if isinstance(coeff, Cyc) else cyc(coeff)
                if c:
                    self.terms[key] = c

    @staticmethod
    def basis(group, g, h, coeff=1) -> "DoubleElement":
        return DoubleElement(group, {(g, h): coeff})

    @staticmethod
    def unit(group) -> "DoubleElement":
        """1 = sum_g delta_g (x) e."""
        return DoubleElement(group, {(g, 0): ONE for g in range(group.n)})

    @staticmethod
    def delta(group, g) -> "DoubleElement":
        return DoubleElement(group, {(g, 0): ONE})

    @staticmethod
    def group_like(group, h) -> "DoubleElement":
        return DoubleElement(group, {(g, h): ONE for g in range(group.n)})

    def _require_same_group(self, other):
        if self.group is not other.group:
            raise ValueError("elements over different groups")

    def __add__(self, other):
        self._require_same_group(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            _addto(out, k, v)
        return DoubleElement(self.group, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DoubleElement(self.group, {k: -v for k, v in self.terms.items()})

    def scale(self, coeff) -> "DoubleElement":
        c = coeff if isinstance(coeff, Cyc) else cyc(coeff)
        if not c:
            return DoubleElement(self.group)
        return DoubleElement(self.group, {k: v * c for k, v in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, DoubleElement):
            return NotImplemented
        return self.group is other.group and not (self - other)

    def dg_mul(self, other: "DoubleElement") -> "DoubleElement":
        """Product of D(G): (delta_g h)(delta_u v) = delta_{g,hu h^-1} delta_g (x) hv."""
        self._require_same_group(other)
        g_ = self.group
        out: dict[tuple[int, int], Cyc] = {}
        for (g, h), a in self.terms.items():
            for (u, v), b in other.terms.items():
                if g == g_.conj(h, u):
                    _addto(out, (g, g_.table[h][v]), a * b)
        return DoubleElement(g_, out)

    def dvee_mul(self, other: "DoubleElement") -> "DoubleElement":
        """Product of the dual double: tensor product algebra."""
        self._require_same_group(other)
        g_ = self.group
        out: dict[tuple[int, int], Cyc] = {}
        for (g, h), a in self.terms.items():
            for (u, v), b in other.terms.items():
                if g == u:
                    _addto(out, (g, g_.table[h][v]), a * b)
        return DoubleElement(g_, out)

    def dg_coproduct(self) -> dict:
        """Tensor coalgebra of D(G): {((a,h),(b,h)): coeff} with ab = g."""
        g_ = self.group
        return _accumulate(
            (((a, h), (g_.table[g_.inv[a]][g], h)), coeff)
            for (g, h), coeff in self.terms.items()
            for a in range(g_.n)
        )

    def dvee_coproduct(self) -> dict:
        """Semidirect coproduct of the dual double."""
        g_ = self.group
        out = {}
        for (g, h), coeff in self.terms.items():
            ghg = g_.word(g, h, g_.inv[g])
            for f in range(g_.n):
                key = ((f, g_.conj(g_.inv[f], ghg)), (g_.table[g_.inv[f]][g], h))
                _addto(out, key, coeff)
        return out

    def counit(self) -> Cyc:
        total = ZERO
        for (g, h), coeff in self.terms.items():
            if g == 0:
                total = total + coeff
        return total

    def dg_antipode(self) -> "DoubleElement":
        g_ = self.group
        return DoubleElement(
            g_,
            _accumulate(
                ((g_.conj(g_.inv[h], g_.inv[g]), g_.inv[h]), c) for (g, h), c in self.terms.items()
            ),
        )

    def dvee_antipode(self) -> "DoubleElement":
        g_ = self.group
        return DoubleElement(
            g_,
            _accumulate(
                ((g_.inv[g], g_.word(g, g_.inv[h], g_.inv[g])), c)
                for (g, h), c in self.terms.items()
            ),
        )

    def star(self) -> "DoubleElement":
        """Hopf-star of D(G): (delta_g h)* = delta_{h^-1 g h} (x) h^-1."""
        g_ = self.group
        return DoubleElement(
            g_,
            _accumulate(
                ((g_.conj(g_.inv[h], g), g_.inv[h]), c.conj()) for (g, h), c in self.terms.items()
            ),
        )

    def braided_antipode(self) -> "DoubleElement":
        """Antipode of the transmuted double BD(G)."""
        g_ = self.group
        out = {}
        for (g, h), c in self.terms.items():
            comm = g_.commutator(g_.inv[g], h)
            _addto(out, (g_.table[comm][g_.inv[g]], g_.word(g, g_.inv[h], g_.inv[g])), c)
        return DoubleElement(g_, out)

    def grading(self) -> int:
        """Group grading of a basis element in the transmuted double."""
        if len(self.terms) != 1:
            raise ValueError("grading is defined on basis elements")
        (g, h), _ = next(iter(self.terms.items()))
        return self.group.commutator(self.group.inv[g], h)

    def adjoint_act(self, f: int) -> "DoubleElement":
        """G-action of the transmuted double: f (delta_g h) f^-1 in both slots."""
        g_ = self.group
        return DoubleElement(
            g_,
            _accumulate(((g_.conj(f, g), g_.conj(f, h)), c) for (g, h), c in self.terms.items()),
        )

    def __repr__(self):
        labels = self.group.labels
        bits = [
            f"({c!r})*d_{labels[g]}|{labels[h]}" for (g, h), c in sorted(self.terms.items())
        ]
        return " + ".join(bits) if bits else "0"


def hopf_failures(group: FiniteGroup, coproduct, product, antipode, braid=None) -> dict:
    """The first failure of each Hopf axiom on the basis delta_g (x) h, with
    the counit ``DoubleElement.counit``:

      coassociativity  (Delta (x) id)Delta x = (id (x) Delta)Delta x
      counit           (eps (x) id)Delta x = x = (id (x) eps)Delta x
      antipode         m(S (x) id)Delta x = eps(x) 1 = m(id (x) S)Delta x
      bialgebra        Delta(ab) = a1 b1' (x) a2 b2, where b1' = braid(a2, b1)
                       is b1 moved past a2 (b1 itself when braid is None: the flip)

    Each entry is None, or (at, lhs, rhs): the first basis key x (for the
    bialgebra, pair (a, b)) in basis order on which the axiom fails, and its
    two sides as sparse maps {key: coeff}, keyed by tensor legs.

    The coproduct and antipode of each basis key, the product and the braid
    of each basis pair are computed once, and every side is expanded through
    these tables.  That uses only the linearity that the products, the
    coproducts, the antipodes and ``adjoint_act`` have by construction (each
    is a sum over the terms of its arguments).  Every pair (a, b) is decided;
    nothing is reduced to algebra generators, whose argument would need the
    associativity that the bialgebra axiom tests."""
    n = group.n
    elem = {(g, h): DoubleElement.basis(group, g, h) for g in range(n) for h in range(n)}
    pairs = [(a, b) for a in elem for b in elem]
    cop = {k: list(coproduct(x).items()) for k, x in elem.items()}
    anti = {k: list(antipode(x).terms.items()) for k, x in elem.items()}
    eps = {k: x.counit() for k, x in elem.items()}
    prod = {(a, b): list(product(elem[a], elem[b]).terms.items()) for a, b in pairs}
    if braid is None:  # the flip
        braid = lambda a2, b1: b1
    moved = {(a, b): list(braid(elem[a], elem[b]).terms.items()) for a, b in pairs}

    def coassociativity_at(x):
        lhs = _accumulate(((*y, x2), c * c1) for (x1, x2), c in cop[x] for y, c1 in cop[x1])
        rhs = _accumulate(((x1, *y), c * c1) for (x1, x2), c in cop[x] for y, c1 in cop[x2])
        return None if lhs == rhs else (x, lhs, rhs)

    def counit_at(x):
        lhs = _accumulate((x2, c * eps[x1]) for (x1, x2), c in cop[x])
        rhs = _accumulate((x1, c * eps[x2]) for (x1, x2), c in cop[x])
        return None if lhs == rhs == {x: ONE} else (x, lhs, rhs)

    def antipode_at(x):
        lhs = _accumulate(
            (k, c * c1 * c2) for (x1, x2), c in cop[x] for s, c1 in anti[x1] for k, c2 in prod[s, x2]
        )
        rhs = _accumulate(
            (k, c * c1 * c2) for (x1, x2), c in cop[x] for s, c1 in anti[x2] for k, c2 in prod[x1, s]
        )
        unit = _accumulate(((g, 0), eps[x]) for g in range(n))
        return None if lhs == rhs == unit else (x, lhs, rhs)

    def bialgebra_at(ab):
        a, b = ab
        lhs = _accumulate((k2, c * c2) for k, c in prod[a, b] for k2, c2 in cop[k])
        rhs = _accumulate(
            ((k1, k2), c1 * c2 * c3 * c4 * c5)
            for (a1, a2), c1 in cop[a]
            for (b1, b2), c2 in cop[b]
            for k2, c5 in prod[a2, b2]
            for y, c3 in moved[a2, b1]
            for k1, c4 in prod[a1, y]
        )
        return None if lhs == rhs else (ab, lhs, rhs)

    axioms = {
        "coassociativity": (coassociativity_at, elem),
        "counit": (counit_at, elem),
        "antipode": (antipode_at, elem),
        "bialgebra": (bialgebra_at, pairs),
    }
    return {name: next(filter(None, map(at, domain)), None) for name, (at, domain) in axioms.items()}


def pairing(a: DoubleElement, b: DoubleElement) -> Cyc:
    """Duality pairing <delta_g h, delta_u v> = [g = v^-1][h = u^-1]."""
    g_ = a.group
    total = ZERO
    for (g, h), ca in a.terms.items():
        cb = b.terms.get((g_.inv[h], g_.inv[g]))
        if cb:
            total = total + ca * cb
    return total


def killing_Q(a: DoubleElement, b: DoubleElement) -> Cyc:
    """Quantum Killing form Q(delta_g h, delta_u v) = [g = uvu^-1][h = u]."""
    g_ = a.group
    total = ZERO
    for (u, v), cb in b.terms.items():
        ca = a.terms.get((g_.conj(u, v), u))
        if ca:
            total = total + ca * cb
    return total


def beta(a: DoubleElement) -> DoubleElement:
    """Isomorphism from the linear dual onto the dual double.

    Input keys (g, h) are read as h (x) delta_g; output is in the
    delta_g (x) h basis via h (x) delta_g -> delta_g (x) g^-1 h g.
    """
    g_ = a.group
    return DoubleElement(
        g_,
        _accumulate(((g, g_.conj(g_.inv[g], h)), c) for (g, h), c in a.terms.items()),
    )


def quasi_R(group: FiniteGroup) -> list[tuple[DoubleElement, DoubleElement]]:
    """Quasitriangular structure sum_h delta_h (x) h as tensor factors."""
    out = []
    for h in range(group.n):
        out.append((DoubleElement.delta(group, h), DoubleElement.group_like(group, h)))
    return out


# -- crossed modules ----------------------------------------------------------


class CrossedModule:
    """Finite-dimensional G-graded G-module, i.e. a D(G)-module.

    The action is stored as sparse columns, the one form the package keeps
    of a G-action: action[h][j] is the zero-free list of (i, coeff) of
    h |> w_j = sum coeff w_i, in increasing i (column j of h's matrix)."""

    def __init__(self, group: FiniteGroup, basis_labels, action, grading):
        self.group = group
        self.basis = list(basis_labels)
        self.dim = len(self.basis)
        self.action = action
        self.grading = list(grading)
        self.verify()

    def verify(self):
        """The action is a homomorphism (``reps.homomorphism_failure``) and h
        maps grade x to grade h x h^-1, checked on generators."""
        g_ = self.group
        failure = homomorphism_failure(g_, self.action)
        if failure is not None:
            g, s, j = failure
            if s is None:
                raise ValueError(f"action: identity does not map to the identity matrix at (0,{j})")
            raise ValueError(f"action: not a homomorphism at ({g},{s},{j})")
        for h in g_.generators:
            for j, col in enumerate(self.action[h]):
                target = g_.conj(h, self.grading[j])
                if any(self.grading[i] != target for i, _ in col):
                    raise ValueError(f"action does not intertwine the grading at ({h},{j})")

    def double_matrix(self, x: DoubleElement):
        """Matrix of x = sum coeff delta_g (x) h on the module: column j is
        x acting on basis vector j, the grade-g part of h |> w_j."""
        m = [[ZERO] * self.dim for _ in range(self.dim)]
        for (g, h), coeff in x.terms.items():
            for j, col in enumerate(self.action[h]):
                for i, a in col:
                    if self.grading[i] == g:
                        m[i][j] = m[i][j] + coeff * a
        return m

    def braiding_with(self, other: "CrossedModule"):
        """Psi(v_i (x) w_j) = |v_i| |> w_j (x) v_i as a sparse map.  It holds
        the grading and action lists, not the modules, so a module may keep
        its own braiding without a reference cycle."""
        grading, action = self.grading, other.action

        def psi(i: int, j: int):
            return [((k, i), c) for k, c in action[grading[i]][j]]

        return psi

    def braiding_matrix(self, other: "CrossedModule"):
        dim = self.dim * other.dim
        m = [[ZERO] * dim for _ in range(dim)]
        psi = self.braiding_with(other)
        for i in range(self.dim):
            for j in range(other.dim):
                for (k, l), c in psi(i, j):
                    m[k * self.dim + l][i * other.dim + j] = c
        return m

    def direct_sum(self, other: "CrossedModule") -> "CrossedModule":
        action = [
            cols + [[(self.dim + i, c) for i, c in col] for col in other_cols]
            for cols, other_cols in zip(self.action, other.action)
        ]
        grading = self.grading + other.grading
        return CrossedModule(self.group, self.basis + other.basis, action, grading)


def build_VCpi(ctx: ClassContext, pi: Rep) -> CrossedModule:
    """Irreducible crossed module on basis c (x) v_i with grading c, acted on
    by the Wigner construction ``induced_matrices``."""
    group = ctx.group
    labels = [(group.labels[c], i) for c in ctx.cls for i in range(pi.dim)]
    grading = [c for c in ctx.cls for _ in range(pi.dim)]
    return CrossedModule(group, labels, [_columns(m) for m in induced_matrices(ctx, pi)], grading)


def regular_crossed_module(group: FiniteGroup) -> CrossedModule:
    """The double as a module over itself by left multiplication."""
    n = group.n
    basis = [(g, h) for g in range(n) for h in range(n)]
    pos = {b: i for i, b in enumerate(basis)}
    action = [
        [[(pos[(group.conj(f, g), group.table[f][h])], ONE)] for g, h in basis] for f in range(n)
    ]
    return CrossedModule(group, basis, action, [g for (g, h) in basis])


def adjoint_structure(group: FiniteGroup):
    """The transmuted double's basis (g, h) of delta_g (x) h, its adjoint
    action f |> x = ``x.adjoint_act(f)`` as columns and its commutator
    grading, for ``bdg_crossed_module`` and ``braided.RegularBraidedLie``."""
    basis = [(g, h) for g in range(group.n) for h in range(group.n)]
    pos = {b: i for i, b in enumerate(basis)}
    elements = [DoubleElement.basis(group, g, h) for (g, h) in basis]
    action = [
        [[(pos[key], c) for key, c in x.adjoint_act(f).terms.items()] for x in elements]
        for f in range(group.n)
    ]
    return basis, action, [x.grading() for x in elements]


def bdg_crossed_module(group: FiniteGroup) -> CrossedModule:
    """The double itself as a crossed module: adjoint action, commutator grading."""
    return CrossedModule(group, *adjoint_structure(group))


# -- Artin-Wedderburn ----------------------------------------------------------


def wedderburn_element(ctx: ClassContext, pi: Rep, c: int, i: int, d: int, j: int) -> DoubleElement:
    """Matrix unit image s_{ci}^{dj} = (dim/|C_G|) sum_n pi(n^-1)^j_i delta_c (x) q_c n q_d^-1."""
    group = ctx.group
    sub = ctx.centralizer
    scale = cyc(Fraction(pi.dim, sub.n))
    terms = {}
    for n_idx in range(sub.n):
        coeff = pi.matrices[sub.inv[n_idx]][j][i] * scale
        if coeff:
            n_parent = sub.embedding[n_idx]
            h = group.word(ctx.q[c], n_parent, group.inv[ctx.q[d]])
            _addto(terms, (c, h), coeff)
    return DoubleElement(group, terms)


def block_idempotent(ctx: ClassContext, pi: Rep) -> DoubleElement:
    total = DoubleElement(ctx.group)
    for c in ctx.cls:
        for i in range(pi.dim):
            total = total + wedderburn_element(ctx, pi, c, i, c, i)
    return total


def centralizer_irreps(ctx: ClassContext) -> list[Rep]:
    """Irreducibles of the centralizer subgroup, from the catalogue dispatcher."""
    return irrep_catalog(ctx.centralizer)


def double_irreps(group: FiniteGroup):
    """All (context, pi) pairs labelling the irreducibles of the double.

    Every class is checked for a catalogue before any catalogue is built, and
    the labels are counted against the conjugation orbits of commuting (a, b)."""
    contexts = [ClassContext(group, cls_[0]) for cls_ in group.conjugacy_classes()]
    if any(irrep_family(ctx.centralizer) is None for ctx in contexts):
        raise ValueError("no centralizer irreducible catalogue for this class")
    labels = [(ctx, pi) for ctx in contexts for pi in centralizer_irreps(ctx)]
    t, conj = group.table, [[group.conj(g, x) for x in range(group.n)] for g in range(group.n)]
    orbits = sum(t[a][b] == t[b][a] for a, b in orbit_representatives(group.n, 2, conj))
    if len(labels) != orbits:
        raise RuntimeError(f"{len(labels)} irreducible labels for {orbits} orbits of commuting pairs")
    return labels


def decompose_DG_module(module: CrossedModule, pairs=None) -> dict:
    """Multiplicity of each V_{C,pi} inside the module, via block idempotent ranks."""
    group = module.group
    if pairs is None:
        pairs = double_irreps(group)
    out = {}
    total = 0
    for ctx, pi in pairs:
        r = linalg.rank(module.double_matrix(block_idempotent(ctx, pi)))
        dim_v = len(ctx.cls) * pi.dim
        if r % dim_v:
            raise RuntimeError("idempotent rank is not a multiple of the block dimension")
        mult = r // dim_v
        if mult:
            out[(group.labels[ctx.rep], pi.name)] = mult
        total += r
    if total != module.dim:
        raise ValueError("blocks do not exhaust the module; incomplete catalogue")
    return out
