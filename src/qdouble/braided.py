"""Braided-Lie algebras attached to the double of a finite group.

The transmuted double carries a braided Hopf structure (double product,
dual coproduct, commutator grading and adjoint action); its braided
adjoint action restricts to each matrix block End(V_{C,pi}) and to direct
sums of blocks, giving finite braided-Lie algebras.  Structure tensors
are built twice, from the closed crossed-module formulas and through the
R-matrix of the coquasitriangular structure; agreement of the two routes
is a standing self-check used by the tests.

A ``BraidedLie`` is a ``double.CrossedModule``, verified when it is built,
and Psi is its crossed-module braiding ``braiding_with(self)``.

Both routes read one action of G on V_{C,pi}, the Wigner construction
``reps.induced_matrices`` A(g).  G acts on a matrix unit E of
End(V_{C,pi}) by g |> E = A(g) E A(g^-1), and the quasitriangular
structure R = sum_h delta_h (x) h of the double acts on V1 (x) V2 as
R(v_ai (x) w) = v_ai (x) A2(a) w: delta_h picks the grade a of v_ai and h
then acts on w.  Its second inverse Rhat equals R^-1 entry by entry, by
the cocycle identity zeta_c(a)^-1 = zeta_{a c a^-1}(a^-1).

Axioms checked on a ``BraidedLie`` (with Psi the crossed-module braiding
and PsiT the fundamental braiding ([,] (x) id)(id (x) Psi)(Delta (x) id)):

* L1, braided Jacobi: [x,[y,z]] = [[x1,y'],[x2',z]] with Psi between x2,y;
* L2, cocommutativity of the bracket: [,](id (x) [,]) = [,](id (x) [,])(PsiT (x) id);
* L3, the bracket is a braided-coalgebra map, and counit-compatible;
* L4, when a grouplike unit exists: [eta, x] = x and [x, eta] = eps(x) eta;
* the braid relation for PsiT and its invertibility (regularity).

L1, L2, L3 and the braid relation are decided on one basis tuple per
G-orbit.  A braided-Lie algebra in the crossed-module category has a
G-equivariant counit, coproduct, Psi, bracket and hence PsiT (Majid,
"Quantum and braided Lie algebras", J. Geom. Phys. 13, 1994), with G
acting diagonally on tensor powers.  Both sides of each of these axioms
are composites of those maps, so if a generator s acts monomially,
s |> v_i = c_i v_p(i) with c_i != 0, a side at (p(i), p(j), ...) is
(c_i c_j ...)^-1 s |> (the side at (i, j, ...)): the sides agree on the
image tuple once they agree on the tuple, and so on its whole orbit under
the group generated by the generators' permutations.

The argument is used only where its premise is decided first: every
generator's action is monomial, and the counit, coproduct, Psi, bracket
and PsiT commute with it on all basis vectors and pairs (dim^2 |S| work).
The representatives then come from ``groups.orbit_representatives`` on the
image group, read from the verified columns.  Otherwise, for a non-monomial
action (the S3 point block with dim pi = 2, but not the S4 ``dihedral2``
block) or a tensor that is not equivariant, every tuple is its own
representative.  L4 runs over every basis vector, since the unit need not
be invariant.
"""

from __future__ import annotations

from itertools import product

from .cyclotomic import ONE, ZERO
from .groups import FiniteGroup, ClassContext, orbit_representatives
from .reps import Rep, induced_matrices
from .double import CrossedModule, DoubleElement, _columns, adjoint_structure
from .double import antipode_axiom_holds, bialgebra_axiom_holds
from .quadalg import QuadAlg
from .linalg import SparseSpan, _addto


def _v_basis(ctx: ClassContext, pi: Rep) -> list:
    """The basis (c, k) of V_{C,pi}, in the order of ``induced_matrices``."""
    return [(c, k) for c in ctx.cls for k in range(pi.dim)]


def _end_basis(blocks):
    """The matrix units (t, a, i, b, j) = |a,i><b,j| of End(V_{C,pi}) for each
    block t, row-major over ``_v_basis``, and their positions."""
    labels = []
    for t, (ctx, pi) in enumerate(blocks):
        v = _v_basis(ctx, pi)
        labels.extend((t, *ai, *bj) for ai in v for bj in v)
    return labels, {label: k for k, label in enumerate(labels)}


def _first_unequal(sides, tuples):
    """The first tuple t of ``tuples`` whose two sides ``sides(*t)`` differ,
    as (t, lhs, rhs), or None."""
    for t in tuples:
        lhs, rhs = sides(*t)
        if lhs != rhs:
            return t, lhs, rhs
    return None


def _braid_sides(psi, i: int, j: int, k: int):
    """psi_12 psi_23 psi_12 and psi_23 psi_12 psi_23 on v_i (x) v_j (x) v_k,
    as sparse vectors over index triples; psi(i, j) is the image
    {(a, b): coeff} of (i, j)."""

    def at(vec: dict, pos: int) -> dict:
        out: dict = {}
        for t, c in vec.items():
            for (a, b), c2 in psi(t[pos], t[pos + 1]).items():
                _addto(out, t[:pos] + (a, b) + t[pos + 2:], c * c2)
        return out

    start = {(i, j, k): ONE}
    return at(at(at(start, 0), 1), 0), at(at(at(start, 1), 0), 1)


def _braid_relation_holds(psi, n: int) -> bool:
    """psi_12 psi_23 psi_12 = psi_23 psi_12 psi_23 on every basis triple of
    an n-dimensional space."""
    return _first_unequal(lambda i, j, k: _braid_sides(psi, i, j, k), product(range(n), repeat=3)) is None


def _act(perm, scale, vec: dict) -> dict:
    """s |> vec for the monomial action s |> v_i = scale[i] v_perm[i], on a
    sparse vector keyed by basis indices or by tuples of them; scale None
    stands for every scale 1."""
    out = {}
    for key, c in vec.items():
        if isinstance(key, tuple):
            if scale is not None:
                for k in key:
                    c = c * scale[k]
            out[tuple(perm[k] for k in key)] = c
        else:
            out[perm[key]] = c if scale is None else c * scale[key]
    return out


class BraidedLie(CrossedModule):
    """Finite-dimensional braided-Lie algebra in the crossed-module category.

    The underlying crossed module (grading and the columns action[g][i] of
    g |> v_i) is verified when the algebra is built, and Psi is its braiding
    ``braiding_with(self)``.  The rest of the structure is sparse over basis
    indices:
      coproduct[i] : list of (j, k, coeff)
      counit[i]    : Cyc
      bracket[(i, j)] : dict k -> coeff
    """

    def __init__(self, group, basis, coproduct, counit, grading, action, unit=None):
        super().__init__(group, basis, action, grading)
        self.coproduct = coproduct
        self.counit = counit
        self.unit = unit  # optional vector (dict index -> Cyc)
        self.psi = self.braiding_with(self)  # Psi(v_i (x) v_j) = |v_i| |> v_j (x) v_i
        self._bracket_cache: dict = {}
        self._psit_cache: dict = {}
        self._perms = None
        self._representatives: dict = {}  # arity -> orbit representatives

    def psit(self, i: int, j: int):
        """Fundamental braiding from the coproduct, braiding and bracket."""
        key = (i, j)
        if key not in self._psit_cache:
            out: dict = {}
            for (a, b, c1) in self.coproduct[i]:
                for (k, c2) in self.action[self.grading[b]][j]:
                    for l, c3 in self.bracket(a, k).items():
                        _addto(out, (l, b), c1 * c2 * c3)
            self._psit_cache[key] = out
        return self._psit_cache[key]

    def bracket(self, i: int, j: int) -> dict:
        raise NotImplementedError

    # -- axiom suite ------------------------------------------------------

    def axioms(self) -> dict:
        """The verdict of every axiom of the suite, by name."""
        return {
            "L1": self.check_L1(),
            "L2": self.check_L2(),
            "L3": self.check_L3(),
            "L4": self.check_L4(),
            "braid_relation": self.check_braid_relation(),
            "regular": self.is_regular(),
        }

    def _orbit_perms(self) -> tuple:
        """The basis permutations of the generators' actions if the orbit
        argument of the module docstring applies, else ().  Decided once,
        on first use, so the structure tensors must not change after it."""
        if self._perms is None:
            perms = []
            for s in self.group.generators:
                perm = self._equivariant_perm(s)
                if perm is None:
                    perms = []
                    break
                perms.append(perm)
            self._perms = tuple(perms)
        return self._perms

    def _orbit_representatives(self, arity: int) -> list:
        """One basis tuple per orbit of the image group of G if
        ``_orbit_perms`` is nonempty (a homomorphism, it is monomial when its
        generators are), else every tuple; built once per arity."""
        if arity not in self._representatives:
            perms = [[col[0][0] for col in cols] for cols in self.action] if self._orbit_perms() else []
            self._representatives[arity] = list(orbit_representatives(self.dim, arity, perms))
        return self._representatives[arity]

    def _equivariant_perm(self, s: int):
        """The permutation p of s |> v_i = c_i v_p(i) if the action of s is
        monomial and the counit, coproduct, Psi, bracket and PsiT commute
        with it on every basis vector and pair, else None."""
        cols = self.action[s]
        if not all(len(col) == 1 and col[0][1] for col in cols):
            return None
        perm = [col[0][0] for col in cols]
        scale = [col[0][1] for col in cols]
        if len(set(perm)) != self.dim:
            return None
        if all(c == ONE for c in scale):
            scale = None  # a permutation action: no scalar products
        for i in range(self.dim):
            delta, image = {}, {}
            for (a, b, c) in self.coproduct[i]:
                _addto(delta, (a, b), c)
            for (a, b, c) in self.coproduct[perm[i]]:
                _addto(image, (a, b), c if scale is None else c * scale[i])
            eps = self.counit[perm[i]] if scale is None else self.counit[perm[i]] * scale[i]
            if eps != self.counit[i] or _act(perm, scale, delta) != image:
                return None
        for tensor in (lambda i, j: dict(self.psi(i, j)), self.bracket, self.psit):
            for i in range(self.dim):
                for j in range(self.dim):
                    image = tensor(perm[i], perm[j])
                    if scale is not None:
                        c = scale[i] * scale[j]
                        image = {k: c * v for k, v in image.items()}
                    if _act(perm, scale, tensor(i, j)) != image:
                        return None
        return perm

    def _first_failure(self, axiom: str):
        """The first (axiom, indices, lhs, rhs) on which the two sides of
        ``axiom`` differ, or None.  L1, L2, L3 and the braid relation run
        over orbit representatives (see the module docstring).  L4 first
        compares (Delta eta, eps eta) with (eta (x) eta, 1) at indices (),
        then ([eta, x], [x, eta]) with (x, eps(x) eta) at every x."""
        if axiom == "L4":
            if self.unit is None:
                return None
            eta = self.unit
            delta_eta: dict = {}
            for i, c in eta.items():
                for (a, b, c2) in self.coproduct[i]:
                    _addto(delta_eta, (a, b), c * c2)
            eta_eta = {(a, b): ca * cb for a, ca in eta.items() for b, cb in eta.items()}
            eps_eta = sum((c * self.counit[i] for i, c in eta.items()), ZERO)
            if (delta_eta, eps_eta) != (eta_eta, ONE):
                return axiom, (), (delta_eta, eps_eta), (eta_eta, ONE)
            found = _first_unequal(self._L4_sides, product(range(self.dim)))
        else:
            arity, sides = {
                "L1": (3, self._L1_sides),
                "L2": (3, self._L2_sides),
                "L3": (2, self._L3_sides),
                "braid_relation": (3, lambda i, j, k: _braid_sides(self.psit, i, j, k)),
            }[axiom]
            found = _first_unequal(sides, self._orbit_representatives(arity))
        return None if found is None else (axiom, *found)

    def _nested(self, x: int, y: int, z: int) -> dict:
        """[x, [y, z]]."""
        out: dict = {}
        for k, c in self.bracket(y, z).items():
            for l, c2 in self.bracket(x, k).items():
                _addto(out, l, c * c2)
        return out

    def _L1_sides(self, x: int, y: int, z: int):
        rhs: dict = {}
        for (x1, x2, c1) in self.coproduct[x]:
            for ((yy, xx2), c2) in self.psi(x2, y):
                # [ [x1, yy], [xx2, z] ]
                for a, ca in self.bracket(x1, yy).items():
                    for b, cb in self.bracket(xx2, z).items():
                        for l, cl in self.bracket(a, b).items():
                            _addto(rhs, l, c1 * c2 * ca * cb * cl)
        return self._nested(x, y, z), rhs

    def _L2_sides(self, x: int, y: int, z: int):
        rhs: dict = {}
        for (a, b), c in self.psit(x, y).items():
            for l, c2 in self._nested(a, b, z).items():
                _addto(rhs, l, c * c2)
        return self._nested(x, y, z), rhs

    def _L3_sides(self, x: int, y: int):
        lhs: dict = {}
        eps_lhs = ZERO
        for k, c in self.bracket(x, y).items():
            for (a, b, c2) in self.coproduct[k]:
                _addto(lhs, (a, b), c * c2)
            eps_lhs = eps_lhs + c * self.counit[k]
        rhs: dict = {}
        for (x1, x2, c1) in self.coproduct[x]:
            for (y1, y2, c2) in self.coproduct[y]:
                for ((yy1, xx2), c3) in self.psi(x2, y1):
                    for a, ca in self.bracket(x1, yy1).items():
                        for b, cb in self.bracket(xx2, y2).items():
                            _addto(rhs, (a, b), c1 * c2 * c3 * ca * cb)
        return (lhs, eps_lhs), (rhs, self.counit[x] * self.counit[y])

    def _L4_sides(self, x: int):
        left: dict = {}
        right: dict = {}
        for i, c in self.unit.items():
            for k, c2 in self.bracket(i, x).items():
                _addto(left, k, c * c2)
            for k, c2 in self.bracket(x, i).items():
                _addto(right, k, c * c2)
        expected = {i: self.counit[x] * c for i, c in self.unit.items() if self.counit[x] * c}
        return (left, right), ({x: ONE}, expected)

    def check_L1(self) -> bool:
        """[x,[y,z]] = [ , ]([ , ] (x) [ , ])(id (x) Psi (x) id)(Delta (x) id (x) id)."""
        return self._first_failure("L1") is None

    def check_L2(self) -> bool:
        """[,](id (x) [,]) invariant under PsiT on the first two factors."""
        return self._first_failure("L2") is None

    def check_L3(self) -> bool:
        """Delta [x,y] = [x1, y1'] (x) [x2', y2] with Psi between, and
        eps[x,y] = eps(x) eps(y)."""
        return self._first_failure("L3") is None

    def check_L4(self) -> bool:
        """Unit axioms when a grouplike unit is present."""
        return self._first_failure("L4") is None

    def is_regular(self) -> bool:
        """Invertibility of the fundamental braiding, by sparse elimination."""
        span = SparseSpan()
        for i in range(self.dim):
            for j in range(self.dim):
                span.add(dict(self.psit(i, j)))
        return span.rank == self.dim * self.dim

    def check_braid_relation(self) -> bool:
        """PsiT_12 PsiT_23 PsiT_12 = PsiT_23 PsiT_12 PsiT_23 on triple products."""
        return self._first_failure("braid_relation") is None


class BlockBraidedLie(BraidedLie):
    """Braided-Lie algebra on a direct sum of matrix blocks End(V_{C,pi}).

    Basis labels are (block, a, i, b, j): the matrix unit E_{ai}^{bj} of
    block (C, pi), graded by a b^-1, acted on by g |> E = A(g) E A(g^-1)
    with A the Wigner construction ``induced_matrices`` of the block.
    """

    def __init__(self, blocks):
        # blocks: list of (ClassContext, Rep)
        self.blocks = list(blocks)
        group = blocks[0][0].group
        for ctx, pi in self.blocks:
            if ctx.rep == 0 and pi.is_trivial():
                raise ValueError("the trivial pair is excluded")
        basis, self._pos = _end_basis(self.blocks)
        grading = [
            group.table[a][group.inv[b]] for (t, a, i, b, j) in basis
        ]
        coproduct = []
        counit = []
        for (t, a, i, b, j) in basis:
            terms = []
            for ck in _v_basis(*self.blocks[t]):
                terms.append((self._pos[(t, a, i, *ck)], self._pos[(t, *ck, b, j)], ONE))
            coproduct.append(terms)
            counit.append(ONE if (a == b and i == j) else ZERO)
        # g |> E = A(g) E A(g^-1) from the nonzeros of the columns of A(g)
        # and the rows of A(g^-1); the units of a block are consecutive
        action = [[] for _ in range(group.n)]
        self._wigner = []  # per block: A and the positions of _v_basis
        base = 0
        for ctx, pi in self.blocks:
            A = induced_matrices(ctx, pi)
            dim = len(A[0])
            self._wigner.append((A, {ck: k for k, ck in enumerate(_v_basis(ctx, pi))}))
            for g in range(group.n):
                cols = _columns(A[g])
                rows = [[(y, c) for y, c in enumerate(row) if c] for row in A[group.inv[g]]]
                action[g].extend(
                    [(base + x * dim + y, cx * cy) for x, cx in cols[r] for y, cy in rows[s]]
                    for r in range(dim)
                    for s in range(dim)
                )
            base += dim * dim
        super().__init__(group, basis, coproduct, counit, grading, action, unit=None)

    def bracket(self, i: int, j: int) -> dict:
        """(id (x) eps) of the fundamental braiding, computed directly."""
        key = (i, j)
        if key not in self._bracket_cache:
            (t1, a, ii, b, jj) = self.basis[i]
            A, vpos = self._wigner[t1]
            group = self.group
            out: dict = {}
            binv = group.inv[b]
            for (m, cm) in self.action[binv][j]:  # b^-1 |> E2
                (t2, c2, k2, d2, l2) = self.basis[m]
                grade = group.table[c2][group.inv[d2]]
                # condition |E1||E2| = |b^-1 |> E2|
                lhs = group.table[self.grading[i]][self.grading[j]]
                if lhs != grade:
                    continue
                x = group.inv[grade]
                # pi1(zeta_a(x))^{jj}_{ii}
                coeff = A[x][vpos[(group.conj(x, a), jj)]][vpos[(a, ii)]]
                if coeff:
                    _addto(out, m, cm * coeff)
            self._bracket_cache[key] = out
        return self._bracket_cache[key]

    def index_of(self, block: int, a: int, i: int, b: int, j: int) -> int:
        return self._pos[(block, a, i, b, j)]


class RegularBraidedLie(BraidedLie):
    """The transmuted double itself as a braided-Lie algebra."""

    def __init__(self, group: FiniteGroup):
        basis, action, grading = adjoint_structure(group)
        pos = {b: i for i, b in enumerate(basis)}
        self._posgh = pos
        deltas = [DoubleElement.basis(group, *x).dvee_coproduct() for x in basis]
        coproduct = [[(pos[a], pos[b], c) for (a, b), c in delta.items()] for delta in deltas]
        counit = [ONE if g == 0 else ZERO for g, h in basis]
        unit = {pos[(g, 0)]: ONE for g in range(group.n)}
        super().__init__(group, basis, coproduct, counit, grading, action, unit=unit)

    def bracket(self, i: int, j: int) -> dict:
        """[delta_u v, delta_g h] = v |> (delta_g h) if u matches its grade."""
        key = (i, j)
        if key not in self._bracket_cache:
            u, v = self.basis[i]
            self._bracket_cache[key] = {m: c for m, c in self.action[v][j] if self.grading[m] == u}
        return self._bracket_cache[key]


def lie_cpi(ctx: ClassContext, pi: Rep) -> BlockBraidedLie:
    return BlockBraidedLie([(ctx, pi)])


# -- braided Hopf structure of the transmuted double -------------------------------


def bdg_braided_checks(group: FiniteGroup) -> dict:
    """Verify the braided Hopf axioms of the transmuted double on the basis."""
    n = group.n
    basis = [DoubleElement.basis(group, g, h) for g in range(n) for h in range(n)]
    return {
        # the square of the braided antipode is the ribbon twist x -> |x| |> x
        # (so it is involutive exactly on trivially graded elements)
        "antipode_squared_is_ribbon_twist": all(
            x.braided_antipode().braided_antipode() == x.adjoint_act(x.grading()) for x in basis
        ),
        "antipode_involutive_on_functions": all(  # on the delta_g (x) e
            x.braided_antipode().braided_antipode() == x for x in basis[::n]
        ),
        "grading_commutator": all(
            x.grading() == group.commutator(group.inv[g], h) for x in basis for (g, h) in x.terms
        ),
        "antipode_axiom": antipode_axiom_holds(
            group, DoubleElement.dvee_coproduct, DoubleElement.dg_mul, DoubleElement.braided_antipode
        ),
        # the crossed-module braiding moves b1 past a2: Psi(a2 (x) b1) = |a2| |> b1 (x) a2
        "braided_bialgebra": bialgebra_axiom_holds(
            group,
            DoubleElement.dvee_coproduct,
            DoubleElement.dg_mul,
            braid=lambda a2, b1: b1.adjoint_act(a2.grading()),
        ),
    }


# -- R-matrices ---------------------------------------------------------------------


def _group_by(tensor: dict, *legs) -> dict:
    """The entries of a sparse tensor {index tuple: coeff} grouped by the
    indices at ``legs``, the ones a contraction fixes: {those indices:
    [(index tuple, coeff), ...]}, each list in the tensor's order."""
    out: dict = {}
    for key, c in tensor.items():
        out.setdefault(tuple(key[leg] for leg in legs), []).append((key, c))
    return out


class BlockRMatrices:
    """R and its inverse between two blocks, as their nonzero entries.

    Index pairs run over V-labels (a, i) of each block.  R = sum_h delta_h
    (x) h acts on V1 (x) V2 through the Wigner construction A2 of the second
    block: R^{ai}_{bj}{}^{ck}_{dl} = [ai = bj] A2(a)^{ck}_{dl}, which is
    pi2(zeta_d(a))^k_l when c = a d a^-1, and R^-1 reads A2(a^-1).  The
    second inverse Rhat equals R^-1 entry by entry, by the cocycle identity
    zeta_c(a)^-1 = zeta_{a c a^-1}(a^-1), so ``Rinv`` stands for both.

    ``R`` and ``Rinv`` are built once, from the nonzero entries of A2, as
    zero-free dicts {(ai, bj, ck, dl): coeff} in which an absent key is a
    zero entry.  Every contraction looks a factor's entries up by the
    indices it fixes (``_group_by``), so it runs over stored entries only.
    The conventions are pinned by agreement of the induced fundamental
    braiding with the direct crossed-module formulas.
    """

    def __init__(self, block1, block2):
        self.ctx1, self.pi1 = block1
        self.ctx2, self.pi2 = block2
        A2 = induced_matrices(self.ctx2, self.pi2)
        v2 = _v_basis(self.ctx2, self.pi2)
        inv = self.ctx1.group.inv
        self.R: dict = {}
        self.Rinv: dict = {}
        for ai in _v_basis(self.ctx1, self.pi1):
            for tensor, g in ((self.R, ai[0]), (self.Rinv, inv[ai[0]])):
                for ck, row in zip(v2, A2[g]):
                    for dl, c in zip(v2, row):
                        if c:
                            tensor[(ai, ai, ck, dl)] = c

    def second_inverse_holds(self) -> bool:
        """Rhat^i_u{}^v_l R^u_j{}^k_v = delta delta = R^i_u{}^v_l Rhat^u_j{}^k_v,
        with Rhat = ``Rinv``."""

        def compose(first, second):
            second_at = _group_by(second, 0, 3)
            out: dict = {}
            for (i, u, v, l), c in first.items():
                for (_, j, k, _), c2 in second_at.get((u, v), ()):
                    _addto(out, (i, j, k, l), c * c2)
            return out

        identity = {
            (ai, ai, ck, ck): ONE
            for ai in _v_basis(self.ctx1, self.pi1)
            for ck in _v_basis(self.ctx2, self.pi2)
        }
        return compose(self.Rinv, self.R) == identity == compose(self.R, self.Rinv)

    def yang_baxter_holds(self) -> bool:
        """Braid relation on the triple tensor power (one block) for
        Psi^R(v_i (x) v_k) = R^j_i{}^l_k v_l (x) v_j."""
        if self.ctx1 is not self.ctx2 or self.pi1 is not self.pi2:
            raise ValueError("the YBE check runs on a single block")
        pos = {ai: n for n, ai in enumerate(_v_basis(self.ctx1, self.pi1))}
        psi: dict = {}
        for (j, i, l, k), c in self.R.items():
            psi.setdefault((pos[i], pos[k]), {})[(pos[l], pos[j])] = c
        return _braid_relation_holds(lambda i, k: psi.get((i, k), {}), len(pos))


def psit_via_rmatrix(lie: BlockBraidedLie, t1: int, t2: int):
    """Fundamental braiding tensor between two blocks by the R-matrix route:

    PsiT(E_I (x) E_K) = E_M (x) E_P *
        Rhat^j_v{}^s_k R^v_q{}^l_r R^r_n{}^p_u Rinv^m_s{}^u_i

    with I = (i,j) in End(V1), K = (k,l) in End(V2), M = (m,n) in End(V2),
    P = (p,q) in End(V1); the mixed index pairs read the stored entries of
    ``BlockRMatrices`` of the two block orderings, and Rhat is ``Rinv``.
    The chain is contracted left to right, each factor's entries looked up
    by the indices already fixed, so only stored (nonzero) entries meet.
    """
    r12 = BlockRMatrices(lie.blocks[t1], lie.blocks[t2])
    r21 = BlockRMatrices(lie.blocks[t2], lie.blocks[t1])
    rhat_at = _group_by(r12.Rinv, 0, 3)  # Rhat^j_v{}^s_k by (j, k)
    r12_at = _group_by(r12.R, 0, 2)  # R^v_q{}^l_r by (v, l)
    r21_at = _group_by(r21.R, 0)  # R^r_n{}^p_u by r
    rinv_at = _group_by(r21.Rinv, 1, 2, 3)  # Rinv^m_s{}^u_i by (s, u, i)
    pos = lie._pos
    v1, v2 = _v_basis(*lie.blocks[t1]), _v_basis(*lie.blocks[t2])
    out = {}
    for i_, j_, k_, l_ in product(v1, v1, v2, v2):
        vec: dict = {}
        for (_, v_, s_, _), a in rhat_at.get((j_, k_), ()):
            for (_, q_, _, r_), b in r12_at.get((v_, l_), ()):
                for (_, n_, p_, u_), c in r21_at.get((r_,), ()):
                    for (m_, _, _, _), d in rinv_at.get((s_, u_, i_), ()):
                        _addto(vec, (pos[(t2, *m_, *n_)], pos[(t1, *p_, *q_)]), a * b * c * d)
        out[(pos[(t1, *i_, *j_)], pos[(t2, *k_, *l_)])] = vec
    return out


# -- enveloping and FRT algebras -------------------------------------------------------


def envelope(lie: BraidedLie) -> QuadAlg:
    """Universal enveloping presentation: relations im(PsiT - id) in degree 2."""
    relations = []
    for i in range(lie.dim):
        for j in range(lie.dim):
            row = dict(lie.psit(i, j))
            _addto(row, (i, j), -ONE)
            if row:
                relations.append(row)
    return QuadAlg([str(b) for b in lie.basis], relations)


def frt(blocks) -> QuadAlg:
    """FRT-type bialgebra presentation from the block R-matrices.

    Generators t_{ai}^{bj} per block; for blocks 1 and 2, with R the stored
    entries of ``BlockRMatrices(block1, block2)``, the relations
    R^{fp}_{ai}{}^{g q}_{c k} t_{fp}^{bj} t_{gq}^{dl}
      = t_{ck}^{gq} t_{ai}^{fp} R^{bj}_{fp}{}^{dl}_{gq}.
    The left side looks R up by (ai, ck), the right side by (bj, dl).
    """
    labels, pos = _end_basis(blocks)
    relations = []
    for t1, b1 in enumerate(blocks):
        for t2, b2 in enumerate(blocks):
            R = BlockRMatrices(b1, b2).R
            left_at, right_at = _group_by(R, 1, 3), _group_by(R, 0, 2)
            v1, v2 = _v_basis(*b1), _v_basis(*b2)
            for ai, bj, ck, dl in product(v1, v1, v2, v2):
                row: dict = {}
                for (fp, _, gq, _), c in left_at.get((ai, ck), ()):
                    _addto(row, (pos[(t1, *fp, *bj)], pos[(t2, *gq, *dl)]), c)
                for (_, fp, _, gq), c in right_at.get((bj, dl), ()):
                    _addto(row, (pos[(t2, *ck, *gq)], pos[(t1, *ai, *fp)]), -c)
                if row:
                    relations.append(row)
    return QuadAlg([str(l) for l in labels], relations)


# -- inclusion into the double, image and Killing form ----------------------------------


def inclusion_element(ctx: ClassContext, pi: Rep, a, i: int, b, j: int) -> DoubleElement:
    """r_{ai}^{bj} = sum_n pi(n)^j_i delta_{q_a n^-1 q_b^-1} (x) b^-1."""
    group = ctx.group
    a = group.element(a) if isinstance(a, str) else a
    b = group.element(b) if isinstance(b, str) else b
    terms = {}
    sub = ctx.centralizer
    for n_idx in range(sub.n):
        coeff = pi.matrices[n_idx][j][i]
        if coeff:
            n_parent = sub.embedding[n_idx]
            g = group.word(ctx.q[a], group.inv[n_parent], group.inv[ctx.q[b]])
            _addto(terms, (g, group.inv[b]), coeff)
    return DoubleElement(group, terms)


def covering_map_image(blocks) -> dict:
    """Unital subalgebra of the double generated by the inclusion images.

    Exact closure: every element that enlarges the span is multiplied by
    every generator once, so the span ends closed under the generators.
    Reports the dimension, surjectivity onto the double, and whether the
    classes generate the group (a necessary condition).
    """
    group = blocks[0][0].group
    gens = [
        inclusion_element(ctx, pi, *ai, *bj)
        for ctx, pi in blocks
        for ai, bj in product(_v_basis(ctx, pi), repeat=2)
    ]
    span = SparseSpan()
    work = [elt for elt in [DoubleElement.unit(group)] + gens if span.add(dict(elt.terms))]
    while work:
        elt = work.pop()
        for g in gens:
            prod = elt.dg_mul(g)
            if prod and span.add(dict(prod.terms)):
                work.append(prod)
    classes_union = sorted({c for ctx, _ in blocks for c in ctx.cls})
    return {
        "dimension": span.rank,
        "surjective": span.rank == group.n * group.n,
        "classes_generate": len(group.subgroup_generated(classes_union)) == group.n,
    }


def killing_trace_oracle(lie: BlockBraidedLie):
    """Categorical trace of the double bracket, composed as written in the
    derivation: ev after the crossed-module braiding applied to
    [x, [y, coev-leg]] against the other coev leg.

    K(x, y) = ev(|[x,[y,e_m]]| |> e^m (x) [x,[y,e_m]]) summed over the basis,
    with the matrix-unit pairing ev(E_{ai}^{bj} (x) E_{ck}^{dl}) =
    [a=d][b=c] delta_i^l delta_k^j.
    """
    dim = lie.dim
    # the dual vector e^m is the transposed unit, and ev(E (x) E') = 1 exactly
    # when E' is the transpose of E
    transpose = [lie._pos[(t, b, j, a, i)] for (t, a, i, b, j) in lie.basis]
    K = [[ZERO] * dim for _ in range(dim)]
    for x in range(dim):
        for y in range(dim):
            total = ZERO
            for m in range(dim):
                for w1, c1 in lie.bracket(y, m).items():
                    for w, c2 in lie.bracket(x, w1).items():
                        # braid w past the dual vector then pair
                        for (moved, c3) in lie.action[lie.grading[w]][transpose[m]]:
                            if transpose[moved] == w:
                                total = total + c1 * c2 * c3
            K[x][y] = total
    return K


def killing_form(lie: BlockBraidedLie):
    """Braided Killing form from the closed centralizer-cocycle expression.

    This is the primary output; it reproduces the worked values K+ = 3
    delta delta, the point-class dim^2 delta delta and the 3-cycle-class
    q-power values.  ``killing_trace_oracle`` composes the written
    categorical trace instead; the two disagree on some blocks because the
    source derivations themselves disagree (see the project notes)."""
    if len(lie.blocks) != 1:
        raise ValueError("closed formula implemented per block")
    ctx, pi = lie.blocks[0]
    group = lie.group
    dim = lie.dim
    K = [[ZERO] * dim for _ in range(dim)]
    for x in range(dim):
        (t1, a, i, b, j) = lie.basis[x]
        for y in range(dim):
            (t2, c, k, d, l) = lie.basis[y]
            ab = group.table[a][group.inv[b]]
            dc = group.table[d][group.inv[c]]
            if ab != dc:
                continue
            total = ZERO
            for f in ctx.cls:
                for g in ctx.cls:
                    gf = group.table[g][group.inv[f]]
                    if ab != group.commutator(gf, d):
                        continue
                    t = group.word(group.inv[b], group.inv[d], g)
                    if group.table[t][f] != group.table[f][t]:
                        continue
                    t2_ = group.word(d, b, f)
                    if group.table[t2_][g] != group.table[g][t2_]:
                        continue
                    fg = group.table[f][group.inv[g]]
                    arg1 = ctx.zeta_in_centralizer(c, group.word(group.inv[d], fg, d))
                    arg2 = ctx.zeta_in_centralizer(a, fg)
                    big = group.word(fg, d, b)
                    base = group.word(group.inv[b], group.inv[d], f, d, b)
                    arg3 = ctx.zeta_in_centralizer(base, group.inv[big])
                    arg4 = ctx.zeta_in_centralizer(g, group.table[b][f])
                    term = (
                        pi.matrices[arg1][l][k]
                        * pi.matrices[arg2][j][i]
                        * pi.trace(arg3)
                        * pi.trace(arg4)
                    )
                    total = total + term
            K[x][y] = total
    return K


def braided_antipode_on_generator(ctx: ClassContext, pi: Rep, a: int, i: int, b: int, j: int):
    """S E_{ai}^{bj} = pi(zeta_b(a b^-1)^-1)_j^k E_{a b^-1 a^-1 k}^{a^-1 i};
    requires a real orthogonal pi and an inversion-stable class."""
    group = ctx.group
    z = ctx.zeta_in_centralizer(b, group.table[a][group.inv[b]])
    zinv = ctx.centralizer.inv[z]
    target_a = group.word(a, group.inv[b], group.inv[a])
    target_b = group.inv[a]
    out = {}
    for k in range(pi.dim):
        coeff = pi.matrices[zinv][j][k]
        if coeff:
            out[(target_a, k, target_b, i)] = coeff
    return out


def _frt_antipode(ctx: ClassContext, pi: Rep, a: int, i: int, b: int, j: int):
    """S t_{ai}^{bj} = t_{b^-1 j}^{a^-1 i}, the antipode of the FRT quotient."""
    inv = ctx.group.inv
    return {(inv[b], j, inv[a], i): ONE}


def _antipode_relations(ctx: ClassContext, pi: Rep, pos: dict, antipode) -> list:
    """The relations sum_ck t_{ai}^{ck} S t_{ck}^{bj} = [ai = bj] and
    sum_ck S t_{ai}^{ck} t_{ck}^{bj} = [ai = bj], in that order for each
    (ai, bj), as (quadratic part, -constant) pairs over the positions ``pos``
    of the units (0, a, i, b, j).  ``antipode(ctx, pi, a, i, b, j)`` gives S
    on a generator as {(a', i', b', j'): coeff}."""
    v = _v_basis(ctx, pi)
    relations = []
    for ai, bj in product(v, repeat=2):
        const = -ONE if ai == bj else ZERO
        left, right = {}, {}
        for ck in v:
            for t, c in antipode(ctx, pi, *ck, *bj).items():
                _addto(left, (pos[(0, *ai, *ck)], pos[(0, *t)]), c)
            for t, c in antipode(ctx, pi, *ai, *ck).items():
                _addto(right, (pos[(0, *t)], pos[(0, *ck, *bj)]), c)
        relations += [(left, const), (right, const)]
    return relations


def quotient_hopf(ctx: ClassContext, pi: Rep):
    """Hopf quotients of the FRT and enveloping presentations.

    Adds the antipode relations sum_c t_{ai}^{ck} S t_{ck}^{bj} = [a=b][i=j]
    (both sides) to the FRT algebra with S = ``_frt_antipode``, and the same
    relations with the braided antipode ``braided_antipode_on_generator`` to
    the enveloping algebra.  Requires a real orthogonal pi, an
    inversion-stable class and a braided antipode that maps the enveloping
    algebra's relations into themselves.
    """
    group = ctx.group
    if not pi.is_real_orthogonal():
        raise ValueError("centralizer representation must be real orthogonal")
    if sorted(group.inv[c] for c in ctx.cls) != ctx.cls:
        raise ValueError("conjugacy class must be stable under inversion")
    lie = lie_cpi(ctx, pi)
    ua = envelope(lie)
    if not braided_antipode_preserves_relations(lie, ua.relations):
        raise ValueError("braided antipode does not preserve the enveloping algebra's relations")
    fa = frt([(ctx, pi)])
    H = QuadAlg(fa.generators, fa.relations, _antipode_relations(ctx, pi, lie._pos, _frt_antipode))
    B = QuadAlg(
        ua.generators, ua.relations, _antipode_relations(ctx, pi, lie._pos, braided_antipode_on_generator)
    )
    return H, B


def braided_antipode_preserves_relations(lie: BlockBraidedLie, relations) -> bool:
    """S extended braided-antimultiplicatively, S(xy) = S(Psi1(x,y)) S(Psi2(x,y)),
    maps relations, the degree-2 relation rows of ``envelope(lie)``, into
    their span."""
    if len(lie.blocks) != 1:
        raise ValueError("implemented per block")
    ctx, pi = lie.blocks[0]
    image = [
        {lie._pos[(0, *t)]: c for t, c in braided_antipode_on_generator(ctx, pi, *label[1:]).items()}
        for label in lie.basis
    ]
    span = SparseSpan()
    for row in relations:
        span.add(row)
    for row in relations:
        moved = {}
        for (i, j), c in row.items():
            for (a, b), c0 in lie.psi(i, j):
                for m1, c1 in image[a].items():
                    for m2, c2 in image[b].items():
                        _addto(moved, (m1, m2), c * c0 * c1 * c2)
        if not span.contains(moved):
            return False
    return True
