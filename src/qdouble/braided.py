"""Braided-Lie algebras attached to the double of a finite group.

The transmuted double carries a braided Hopf structure (double product,
dual coproduct, commutator grading and adjoint action); its braided
adjoint action restricts to each matrix block End(V_{C,pi}), giving the
finite braided-Lie algebra L_{C,pi} of the block.  Structure tensors
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
G-orbit.  In the crossed-module category the counit, coproduct, Psi,
bracket and hence PsiT are G-equivariant (Majid, "Quantum and braided Lie
algebras", J. Geom. Phys. 13, 1994), with G acting diagonally on tensor
powers, and both sides of each axiom are composites of them.  So if a
generator s acts by s |> v_i = c_i v_p(i), a side at (p(i), p(j), ...) is
(c_i c_j ...)^-1 s |> (the side at (i, j, ...)), and the sides agree on a
whole orbit of the image group once they agree on one tuple.

The premise is decided once.  ``CrossedModule.verify`` checks on
generators that e acts as 1, that action[g s] = action[g] action[s] (a
homomorphism) and that |s |> v| = s |v| s^-1.  So action[s] is invertible,
with inverse action[s^-1], and if each of its zero-free columns has one
entry it permutes the basis.  Psi is equivariant: for homogeneous x,
  s |> Psi(x (x) y) = (s |x|) |> y (x) s |> x
                    = (s |x| s^-1) |> (s |> y) (x) s |> x = Psi(s |> x (x) s |> y).
PsiT, which ``psit`` computes as ([,] (x) id)(id (x) Psi)(Delta (x) id), is
a composite of equivariant maps once Delta and the bracket are.  What is
left is decided by ``BraidedLie._equivariant_perm``: each generator's
columns have one entry, the counit and coproduct commute with it on every
basis vector, and the bracket on every basis pair (dim^2 |S| work).
Otherwise, for a non-monomial action (the S3 point block with dim pi = 2,
but not the S4 ``dihedral2`` block) or a counit, coproduct or bracket that
is not equivariant, every tuple is its own representative.  The
representatives come from ``groups.orbit_representatives`` on the image
group, read from the verified columns.  L4 runs over every basis vector,
since the unit need not be invariant.
"""

from __future__ import annotations

from itertools import product

from .cyclotomic import ONE, ZERO
from .groups import ClassContext, ConfigError, FiniteGroup, orbit_representatives
from .reps import Rep, induced_matrices
from .double import CrossedModule, DoubleElement, adjoint_structure, hopf_failures
from .quadalg import QuadAlg
from .linalg import SparseSpan, _accumulate, _addto, _columns


def _v_basis(ctx: ClassContext, pi: Rep) -> list:
    """The basis (c, k) of V_{C,pi}, in the order of ``induced_matrices``."""
    return [(c, k) for c in ctx.cls for k in range(pi.dim)]


def _end_basis(ctx: ClassContext, pi: Rep):
    """The matrix units (a, i, b, j) = |a,i><b,j| of End(V_{C,pi}), row-major
    over ``_v_basis``, and their positions."""
    v = _v_basis(ctx, pi)
    labels = [(*ai, *bj) for ai in v for bj in v]
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
    {(a, b): coeff} of (i, j).  Each side sums the coefficient products
    along its paths of three braidings."""
    lhs: dict = {}
    for (a, b), c1 in psi(i, j).items():
        for (b2, k2), c2 in psi(b, k).items():
            for (a3, b3), c3 in psi(a, b2).items():
                _addto(lhs, (a3, b3, k2), c1 * c2 * c3)
    rhs: dict = {}
    for (b, k2), c1 in psi(j, k).items():
        for (a2, b2), c2 in psi(i, b).items():
            for (b3, k3), c3 in psi(b2, k2).items():
                _addto(rhs, (a2, b3, k3), c1 * c2 * c3)
    return lhs, rhs


def _braid_relation_holds(psi, n: int) -> bool:
    """psi_12 psi_23 psi_12 = psi_23 psi_12 psi_23 on every basis triple of
    an n-dimensional space."""
    return _first_unequal(lambda i, j, k: _braid_sides(psi, i, j, k), product(range(n), repeat=3)) is None


def _act(perm, scale, vec: dict) -> dict:
    """s |> vec for the monomial action s |> v_i = scale[i] v_perm[i], on a
    sparse vector keyed by basis indices or by tuples of them."""
    out = {}
    for key, c in vec.items():
        if isinstance(key, tuple):
            for k in key:
                c = c * scale[k]
            out[tuple(perm[k] for k in key)] = c
        else:
            out[perm[key]] = c * scale[key]
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
        out = self._psit_cache.get((i, j))
        if out is None:
            out = {}
            for (a, b, c1) in self.coproduct[i]:
                for (k, c2) in self.action[self.grading[b]][j]:
                    for l, c3 in self.bracket(a, k).items():
                        _addto(out, (l, b), c1 * c2 * c3)
            self._psit_cache[i, j] = out
        return out

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
        monomial and the counit, coproduct and bracket commute with it on
        every basis vector and pair, else None.  Psi and PsiT then commute
        with it too (see the module docstring)."""
        cols = self.action[s]
        if not all(len(col) == 1 for col in cols):
            return None
        perm = [col[0][0] for col in cols]
        scale = [col[0][1] for col in cols]
        for i in range(self.dim):
            delta = _accumulate(((a, b), c) for a, b, c in self.coproduct[i])
            image = _accumulate(((a, b), c * scale[i]) for a, b, c in self.coproduct[perm[i]])
            if self.counit[perm[i]] * scale[i] != self.counit[i] or _act(perm, scale, delta) != image:
                return None
        for i in range(self.dim):
            for j in range(self.dim):
                c = scale[i] * scale[j]
                image = {k: c * v for k, v in self.bracket(perm[i], perm[j]).items()}
                if _act(perm, scale, self.bracket(i, j)) != image:
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
    """The braided-Lie algebra L_{C,pi} on the matrix block End(V_{C,pi}).

    Basis labels are (a, i, b, j): the matrix unit E_{ai}^{bj}, graded by
    a b^-1, acted on by g |> E = A(g) E A(g^-1) with A the Wigner
    construction ``induced_matrices`` of the block.
    """

    def __init__(self, ctx: ClassContext, pi: Rep):
        if ctx.rep == 0 and pi.is_trivial():
            raise ConfigError("the trivial pair is excluded")
        self.ctx, self.pi = ctx, pi
        group = ctx.group
        v = _v_basis(ctx, pi)
        dim = len(v)
        basis, self._pos = _end_basis(ctx, pi)
        grading = [group.table[a][group.inv[b]] for (a, i, b, j) in basis]
        # E_x^y is at x * dim + y, so Delta E_x^y = sum_k E_x^k (x) E_k^y
        coproduct = [[(x * dim + k, k * dim + y, ONE) for k in range(dim)] for x in range(dim) for y in range(dim)]
        counit = [ONE if x == y else ZERO for x in range(dim) for y in range(dim)]
        # g |> E = A(g) E A(g^-1) from the nonzeros of the columns of A(g)
        # and the rows of A(g^-1)
        self._A = A = induced_matrices(ctx, pi)
        self._vpos = {ck: k for k, ck in enumerate(v)}
        action = []
        for g in range(group.n):
            cols = _columns(A[g])
            rows = [[(y, c) for y, c in enumerate(row) if c] for row in A[group.inv[g]]]
            action.append(
                [[(x * dim + y, cx * cy) for x, cx in cols[r] for y, cy in rows[s]]
                 for r in range(dim) for s in range(dim)]
            )
        super().__init__(group, basis, coproduct, counit, grading, action, unit=None)

    def bracket(self, i: int, j: int) -> dict:
        """(id (x) eps) of the fundamental braiding, computed directly: for
        E1 = E_{a ii}^{b jj}, the part of b^-1 |> E2 of grade |E1||E2| times
        pi(zeta_a(x))^{jj}_{ii}, with x the inverse of that grade."""
        out = self._bracket_cache.get((i, j))
        if out is None:
            (a, ii, b, jj) = self.basis[i]
            group, vpos = self.group, self._vpos
            grade = group.table[self.grading[i]][self.grading[j]]
            x = group.inv[grade]
            coeff = self._A[x][vpos[(group.conj(x, a), jj)]][vpos[(a, ii)]]
            action = self.action[group.inv[b]][j] if coeff else ()
            out = {m: cm * coeff for m, cm in action if self.grading[m] == grade}
            self._bracket_cache[i, j] = out
        return out

    def index_of(self, a: int, i: int, b: int, j: int) -> int:
        return self._pos[(a, i, b, j)]


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
    return BlockBraidedLie(ctx, pi)


# -- braided Hopf structure of the transmuted double -------------------------------


def bdg_braided_checks(group: FiniteGroup) -> dict:
    """Verify the braided Hopf axioms of the transmuted double on the basis."""
    n = group.n
    basis = [DoubleElement.basis(group, g, h) for g in range(n) for h in range(n)]
    # the crossed-module braiding moves b1 past a2: Psi(a2 (x) b1) = |a2| |> b1 (x) a2
    found = hopf_failures(
        group,
        DoubleElement.dvee_coproduct,
        DoubleElement.dg_mul,
        DoubleElement.braided_antipode,
        braid=lambda a2, b1: b1.adjoint_act(a2.grading()),
    )
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
        "antipode_axiom": found["antipode"] is None,
        "braided_bialgebra": found["bialgebra"] is None,
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
    """R and its inverse on V (x) V for one block V = V_{C,pi}, as their
    nonzero entries.

    Index pairs run over V-labels (a, i).  R = sum_h delta_h (x) h acts on
    V (x) V through the Wigner construction A of the block:
    R^{ai}_{bj}{}^{ck}_{dl} = [ai = bj] A(a)^{ck}_{dl}, which is
    pi(zeta_d(a))^k_l when c = a d a^-1, and R^-1 reads A(a^-1).  The
    second inverse Rhat equals R^-1 entry by entry, by the cocycle identity
    zeta_c(a)^-1 = zeta_{a c a^-1}(a^-1), so ``Rinv`` stands for both.

    ``R`` and ``Rinv`` are built once, from the nonzero entries of A, as
    zero-free dicts {(ai, bj, ck, dl): coeff} in which an absent key is a
    zero entry.  Every contraction looks a factor's entries up by the
    indices it fixes (``_group_by``), so it runs over stored entries only.
    The conventions are pinned by agreement of the induced fundamental
    braiding with the direct crossed-module formulas.
    """

    def __init__(self, ctx: ClassContext, pi: Rep):
        A = induced_matrices(ctx, pi)
        self.v = v = _v_basis(ctx, pi)
        inv = ctx.group.inv
        self.R: dict = {}
        self.Rinv: dict = {}
        for ai in v:
            for tensor, g in ((self.R, ai[0]), (self.Rinv, inv[ai[0]])):
                for ck, row in zip(v, A[g]):
                    for dl, c in zip(v, row):
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

        identity = {(ai, ai, ck, ck): ONE for ai in self.v for ck in self.v}
        return compose(self.Rinv, self.R) == identity == compose(self.R, self.Rinv)

    def yang_baxter_holds(self) -> bool:
        """Braid relation on the triple tensor power for
        Psi^R(v_i (x) v_k) = R^j_i{}^l_k v_l (x) v_j."""
        pos = {ai: n for n, ai in enumerate(self.v)}
        psi: dict = {}
        for (j, i, l, k), c in self.R.items():
            psi.setdefault((pos[i], pos[k]), {})[(pos[l], pos[j])] = c
        return _braid_relation_holds(lambda i, k: psi.get((i, k), {}), len(pos))


def psit_via_rmatrix(lie: BlockBraidedLie):
    """Fundamental braiding tensor of the block by the R-matrix route:

    PsiT(E_I (x) E_K) = E_M (x) E_P *
        Rhat^j_v{}^s_k R^v_q{}^l_r R^r_n{}^p_u Rinv^m_s{}^u_i

    with I = (i,j), K = (k,l), M = (m,n) and P = (p,q) index pairs of
    End(V); the factors read the stored entries of ``BlockRMatrices`` of the
    block, and Rhat is ``Rinv``.  The chain is contracted left to right,
    each factor's entries looked up by the indices already fixed, so only
    stored (nonzero) entries meet.
    """
    rm = BlockRMatrices(lie.ctx, lie.pi)
    rhat_at = _group_by(rm.Rinv, 0, 3)  # Rhat^j_v{}^s_k by (j, k)
    r_vl_at = _group_by(rm.R, 0, 2)  # R^v_q{}^l_r by (v, l)
    r_r_at = _group_by(rm.R, 0)  # R^r_n{}^p_u by r
    rinv_at = _group_by(rm.Rinv, 1, 2, 3)  # Rinv^m_s{}^u_i by (s, u, i)
    pos = lie._pos
    out = {}
    for i_, j_, k_, l_ in product(rm.v, repeat=4):
        vec: dict = {}
        for (_, v_, s_, _), a in rhat_at.get((j_, k_), ()):
            for (_, q_, _, r_), b in r_vl_at.get((v_, l_), ()):
                for (_, n_, p_, u_), c in r_r_at.get((r_,), ()):
                    for (m_, _, _, _), d in rinv_at.get((s_, u_, i_), ()):
                        _addto(vec, (pos[(*m_, *n_)], pos[(*p_, *q_)]), a * b * c * d)
        out[(pos[(*i_, *j_)], pos[(*k_, *l_)])] = vec
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


def frt(ctx: ClassContext, pi: Rep) -> QuadAlg:
    """FRT-type bialgebra presentation from the block's R-matrix.

    Generators t_{ai}^{bj}, one per matrix unit of End(V_{C,pi}); with R the
    stored entries of ``BlockRMatrices(ctx, pi)``, the relations
    R^{fp}_{ai}{}^{g q}_{c k} t_{fp}^{bj} t_{gq}^{dl}
      = t_{ck}^{gq} t_{ai}^{fp} R^{bj}_{fp}{}^{dl}_{gq}.
    The left side looks R up by (ai, ck), the right side by (bj, dl).
    """
    labels, pos = _end_basis(ctx, pi)
    rm = BlockRMatrices(ctx, pi)
    left_at, right_at = _group_by(rm.R, 1, 3), _group_by(rm.R, 0, 2)
    relations = []
    for ai, bj, ck, dl in product(rm.v, repeat=4):
        row: dict = {}
        for (fp, _, gq, _), c in left_at.get((ai, ck), ()):
            _addto(row, (pos[(*fp, *bj)], pos[(*gq, *dl)]), c)
        for (_, fp, _, gq), c in right_at.get((bj, dl), ()):
            _addto(row, (pos[(*ck, *gq)], pos[(*ai, *fp)]), -c)
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


def covering_map_image(ctx: ClassContext, pi: Rep) -> dict:
    """Unital subalgebra of the double generated by the inclusion images of
    the block's matrix units.

    Exact closure: every element that enlarges the span is multiplied by
    every generator once, so the span ends closed under the generators.  A
    span of rank |G|^2 is all of the double and so closed: the loop stops
    there.  Reports the dimension, surjectivity onto the double, and whether
    the classes generate the group (a necessary condition).
    """
    group = ctx.group
    gens = [inclusion_element(ctx, pi, *ai, *bj) for ai, bj in product(_v_basis(ctx, pi), repeat=2)]
    full = group.n * group.n
    span = SparseSpan()
    work = [elt for elt in [DoubleElement.unit(group)] + gens if span.add(dict(elt.terms))]
    while work and span.rank < full:
        elt = work.pop()
        for g in gens:
            prod = elt.dg_mul(g)
            if prod and span.add(dict(prod.terms)):
                work.append(prod)
                if span.rank == full:
                    break
    return {
        "dimension": span.rank,
        "surjective": span.rank == full,
        "classes_generate": len(group.subgroup_generated(ctx.cls)) == group.n,
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
    transpose = [lie._pos[(b, j, a, i)] for (a, i, b, j) in lie.basis]
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
    ctx, pi = lie.ctx, lie.pi
    group = lie.group
    dim = lie.dim
    K = [[ZERO] * dim for _ in range(dim)]
    for x in range(dim):
        (a, i, b, j) = lie.basis[x]
        for y in range(dim):
            (c, k, d, l) = lie.basis[y]
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
                    w1 = group.word(group.inv[b], group.inv[d], g)
                    if group.table[w1][f] != group.table[f][w1]:
                        continue
                    w2 = group.word(d, b, f)
                    if group.table[w2][g] != group.table[g][w2]:
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
    of the units (a, i, b, j).  ``antipode(ctx, pi, a, i, b, j)`` gives S
    on a generator as {(a', i', b', j'): coeff}."""
    v = _v_basis(ctx, pi)
    relations = []
    for ai, bj in product(v, repeat=2):
        const = -ONE if ai == bj else ZERO
        left, right = {}, {}
        for ck in v:
            for unit, c in antipode(ctx, pi, *ck, *bj).items():
                _addto(left, (pos[(*ai, *ck)], pos[unit]), c)
            for unit, c in antipode(ctx, pi, *ai, *ck).items():
                _addto(right, (pos[unit], pos[(*ck, *bj)]), c)
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
        raise ConfigError("centralizer representation must be real orthogonal")
    if sorted(group.inv[c] for c in ctx.cls) != ctx.cls:
        raise ConfigError("conjugacy class must be stable under inversion")
    lie = lie_cpi(ctx, pi)
    ua = envelope(lie)
    if not braided_antipode_preserves_relations(lie, ua.relations):
        k = _relation_left_by_antipode(lie, ua.relations)
        raise ConfigError(f"braided antipode does not preserve the enveloping algebra's relations: relation {k}")
    fa = frt(ctx, pi)
    H = QuadAlg(fa.generators, fa.relations, _antipode_relations(ctx, pi, lie._pos, _frt_antipode))
    B = QuadAlg(
        ua.generators, ua.relations, _antipode_relations(ctx, pi, lie._pos, braided_antipode_on_generator)
    )
    return H, B


def braided_antipode_preserves_relations(lie: BlockBraidedLie, relations) -> bool:
    """S extended braided-antimultiplicatively, S(xy) = S(Psi1(x,y)) S(Psi2(x,y)),
    maps relations, the degree-2 relation rows of ``envelope(lie)``, into
    their span."""
    return _relation_left_by_antipode(lie, relations) is None


def _relation_left_by_antipode(lie: BlockBraidedLie, relations):
    """The index k of the first row of relations whose image under the
    braided antipode S, extended as in ``braided_antipode_preserves_relations``,
    leaves the span of the rows, or None."""
    image = [
        {lie._pos[unit]: c for unit, c in braided_antipode_on_generator(lie.ctx, lie.pi, *label).items()}
        for label in lie.basis
    ]
    span = SparseSpan()
    for row in relations:
        span.add(row)
    for k, row in enumerate(relations):
        moved = {}
        for (i, j), c in row.items():
            for (a, b), c0 in lie.psi(i, j):
                for m1, c1 in image[a].items():
                    for m2, c2 in image[b].items():
                        _addto(moved, (m1, m2), c * c0 * c1 * c2)
        if not span.contains(moved):
            return k
    return None
