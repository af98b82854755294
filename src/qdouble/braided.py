"""Braided-Lie algebras attached to the double of a finite group.

The transmuted double carries a braided Hopf structure (double product,
dual coproduct, commutator grading and adjoint action); its braided
adjoint action restricts to each matrix block End(V_{C,pi}) and to direct
sums of blocks, giving finite braided-Lie algebras.  Structure tensors
are built twice, from the closed crossed-module formulas and through the
R-matrix of the coquasitriangular structure; agreement of the two routes
is a standing self-check used by the tests.

Axioms checked on a ``BraidedLie`` (with Psi the crossed-module braiding
and PsiT the fundamental braiding ([,] (x) id)(id (x) Psi)(Delta (x) id)):

* L1, braided Jacobi: [x,[y,z]] = [[x1,y'],[x2',z]] with Psi between x2,y;
* L2, cocommutativity of the bracket: [,](id (x) [,]) = [,](id (x) [,])(PsiT (x) id);
* L3, the bracket is a braided-coalgebra map, and counit-compatible;
* L4, when a grouplike unit exists: [eta, x] = x and [x, eta] = eps(x) eta;
* the braid relation for PsiT and its invertibility (regularity).
"""

from __future__ import annotations

from .cyclotomic import Cyc
from .groups import FiniteGroup, ClassContext
from .reps import Rep
from .double import DoubleElement, antipode_axiom_holds, bialgebra_axiom_holds
from .quadalg import QuadAlg
from .linalg import SparseSpan, _addto

ZERO = Cyc.rational(0)
ONE = Cyc.rational(1)


def _braid_relation_holds(psi, n: int) -> bool:
    """psi_12 psi_23 psi_12 = psi_23 psi_12 psi_23 on every basis triple of
    an n-dimensional space; psi(i, j) is the image {(a, b): coeff} of (i, j).
    The sides are A psi_12 and psi_23 A with A = psi_12 psi_23, tabulated for
    one last index k at a time, since psi_12 keeps it."""
    for k in range(n):
        composed: dict = {}
        for i in range(n):
            for j in range(n):
                out = composed[i, j] = {}
                for (a, b), c in psi(j, k).items():
                    for (x, y), c2 in psi(i, a).items():
                        _addto(out, (x, y, b), c * c2)
        for (i, j), image in composed.items():
            lhs: dict = {}
            for (a, b), c in psi(i, j).items():
                for t, c2 in composed[a, b].items():
                    _addto(lhs, t, c * c2)
            rhs: dict = {}
            for (x, y, z), c in image.items():
                for (a, b), c2 in psi(y, z).items():
                    _addto(rhs, (x, a, b), c * c2)
            if lhs != rhs:
                return False
    return True


class BraidedLie:
    """Finite-dimensional braided-Lie algebra in the crossed-module category.

    Structure data is sparse over basis indices:
      coproduct[i] : list of (j, k, coeff)
      counit[i]    : Cyc
      bracket[(i, j)] : dict k -> coeff
      grading[i]   : group element index
      action[g][i] : list of (j, coeff), the module action g |> v_i
    """

    def __init__(self, group, basis, coproduct, counit, grading, action, unit=None):
        self.group = group
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.coproduct = coproduct
        self.counit = counit
        self.grading = grading
        self.action = action
        self.unit = unit  # optional vector (dict index -> Cyc)
        self._bracket_cache: dict = {}
        self._psit_cache: dict = {}

    # braiding of the underlying crossed modules
    def psi(self, i: int, j: int):
        """Psi(v_i (x) v_j) = |v_i| |> v_j (x) v_i."""
        return [((k, i), c) for k, c in self.action[self.grading[i]][j]]

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

    def _nested(self, x: int, y: int, z: int) -> dict:
        """[x, [y, z]]."""
        out: dict = {}
        for k, c in self.bracket(y, z).items():
            for l, c2 in self.bracket(x, k).items():
                _addto(out, l, c * c2)
        return out

    def check_L1(self) -> bool:
        """[x,[y,z]] = [ , ]([ , ] (x) [ , ])(id (x) Psi (x) id)(Delta (x) id (x) id)."""
        for x in range(self.dim):
            for y in range(self.dim):
                for z in range(self.dim):
                    rhs: dict = {}
                    for (x1, x2, c1) in self.coproduct[x]:
                        for ((yy, xx2), c2) in self.psi(x2, y):
                            # [ [x1, yy], [xx2, z] ]
                            for a, ca in self.bracket(x1, yy).items():
                                for b, cb in self.bracket(xx2, z).items():
                                    for l, cl in self.bracket(a, b).items():
                                        _addto(rhs, l, c1 * c2 * ca * cb * cl)
                    if self._nested(x, y, z) != rhs:
                        return False
        return True

    def check_L2(self) -> bool:
        """[,](id (x) [,]) invariant under PsiT on the first two factors."""
        for x in range(self.dim):
            for y in range(self.dim):
                for z in range(self.dim):
                    rhs: dict = {}
                    for (a, b), c in self.psit(x, y).items():
                        for l, c2 in self._nested(a, b, z).items():
                            _addto(rhs, l, c * c2)
                    if self._nested(x, y, z) != rhs:
                        return False
        return True

    def check_L3(self) -> bool:
        """Delta [x,y] = [x1, y1'] (x) [x2', y2] with Psi between, and
        eps[x,y] = eps(x) eps(y)."""
        for x in range(self.dim):
            for y in range(self.dim):
                lhs: dict = {}
                for k, c in self.bracket(x, y).items():
                    for (a, b, c2) in self.coproduct[k]:
                        _addto(lhs, (a, b), c * c2)
                rhs: dict = {}
                for (x1, x2, c1) in self.coproduct[x]:
                    for (y1, y2, c2) in self.coproduct[y]:
                        for ((yy1, xx2), c3) in self.psi(x2, y1):
                            for a, ca in self.bracket(x1, yy1).items():
                                for b, cb in self.bracket(xx2, y2).items():
                                    _addto(rhs, (a, b), c1 * c2 * c3 * ca * cb)
                if lhs != rhs:
                    return False
                eps_lhs = ZERO
                for k, c in self.bracket(x, y).items():
                    eps_lhs = eps_lhs + c * self.counit[k]
                if eps_lhs != self.counit[x] * self.counit[y]:
                    return False
        return True

    def check_L4(self) -> bool:
        """Unit axioms when a grouplike unit is present."""
        if self.unit is None:
            return True
        eta = self.unit
        # grouplike: Delta eta = eta (x) eta, eps eta = 1
        delta_eta: dict = {}
        for i, c in eta.items():
            for (a, b, c2) in self.coproduct[i]:
                _addto(delta_eta, (a, b), c * c2)
        tensor_eta = {}
        for a, ca in eta.items():
            for b, cb in eta.items():
                _addto(tensor_eta, (a, b), ca * cb)
        if delta_eta != tensor_eta:
            return False
        eps_eta = ZERO
        for i, c in eta.items():
            eps_eta = eps_eta + c * self.counit[i]
        if eps_eta != ONE:
            return False
        for x in range(self.dim):
            left: dict = {}
            for i, c in eta.items():
                for k, c2 in self.bracket(i, x).items():
                    _addto(left, k, c * c2)
            if left != {x: ONE}:
                return False
            right: dict = {}
            for i, c in eta.items():
                for k, c2 in self.bracket(x, i).items():
                    _addto(right, k, c * c2)
            expected = {i: self.counit[x] * c for i, c in eta.items() if self.counit[x] * c}
            if right != expected:
                return False
        return True

    def is_regular(self) -> bool:
        """Invertibility of the fundamental braiding, by sparse elimination."""
        span = SparseSpan()
        for i in range(self.dim):
            for j in range(self.dim):
                span.add(dict(self.psit(i, j)))
        return span.rank == self.dim * self.dim

    def check_braid_relation(self) -> bool:
        """PsiT_12 PsiT_23 PsiT_12 = PsiT_23 PsiT_12 PsiT_23 on triple products."""
        return _braid_relation_holds(self.psit, self.dim)


class BlockBraidedLie(BraidedLie):
    """Braided-Lie algebra on a direct sum of matrix blocks End(V_{C,pi}).

    Basis labels are (block, a, i, b, j): the matrix unit E_{ai}^{bj} of
    block (C, pi), graded by a b^-1, with the conjugation action twisted by
    the centralizer cocycle on both indices.
    """

    def __init__(self, blocks):
        # blocks: list of (ClassContext, Rep)
        self.blocks = list(blocks)
        group = blocks[0][0].group
        basis = []
        self._pos = {}
        for t, (ctx, pi) in enumerate(self.blocks):
            if ctx.rep == 0 and pi.is_trivial():
                raise ValueError("the trivial pair is excluded")
            for a in ctx.cls:
                for i in range(pi.dim):
                    for b in ctx.cls:
                        for j in range(pi.dim):
                            self._pos[(t, a, i, b, j)] = len(basis)
                            basis.append((t, a, i, b, j))
        grading = [
            group.table[a][group.inv[b]] for (t, a, i, b, j) in basis
        ]
        coproduct = []
        counit = []
        for (t, a, i, b, j) in basis:
            ctx, pi = self.blocks[t]
            terms = []
            for c in ctx.cls:
                for k in range(pi.dim):
                    terms.append(
                        (self._pos[(t, a, i, c, k)], self._pos[(t, c, k, b, j)], ONE)
                    )
            coproduct.append(terms)
            counit.append(ONE if (a == b and i == j) else ZERO)
        # g |> E_{ai}^{bj}: the twisted conjugation on both indices
        action = []
        for g in range(group.n):
            rows = []
            for (t, a, i, b, j) in basis:
                ctx, pi = self.blocks[t]
                za = pi.matrices[ctx.zeta_in_centralizer(a, g)]
                zb_inv = pi.matrices[ctx.centralizer.inv[ctx.zeta_in_centralizer(b, g)]]
                a2, b2 = group.conj(g, a), group.conj(g, b)
                rows.append([
                    (self._pos[(t, a2, k, b2, l)], za[k][i] * zb_inv[j][l])
                    for k in range(pi.dim) if za[k][i]
                    for l in range(pi.dim) if zb_inv[j][l]
                ])
            action.append(rows)
        super().__init__(group, basis, coproduct, counit, grading, action, unit=None)

    def bracket(self, i: int, j: int) -> dict:
        """(id (x) eps) of the fundamental braiding, computed directly."""
        key = (i, j)
        if key not in self._bracket_cache:
            (t1, a, ii, b, jj) = self.basis[i]
            ctx1, pi1 = self.blocks[t1]
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
                za = ctx1.zeta_in_centralizer(a, x)
                coeff = pi1.matrices[za][jj][ii]
                if coeff:
                    _addto(out, m, cm * coeff)
            self._bracket_cache[key] = out
        return self._bracket_cache[key]

    def index_of(self, block: int, a, i, b, j) -> int:
        group = self.group
        a = group.element(a) if isinstance(a, str) else a
        b = group.element(b) if isinstance(b, str) else b
        return self._pos[(block, a, i, b, j)]


class RegularBraidedLie(BraidedLie):
    """The transmuted double itself as a braided-Lie algebra."""

    def __init__(self, group: FiniteGroup):
        basis = [(g, h) for g in range(group.n) for h in range(group.n)]
        pos = {b: i for i, b in enumerate(basis)}
        self._posgh = pos
        grading = [group.commutator(group.inv[g], h) for (g, h) in basis]
        coproduct = []
        counit = []
        for (g, h) in basis:
            elt = DoubleElement.basis(group, g, h)
            terms = []
            for ((g1, h1), (g2, h2)), c in elt.dvee_coproduct().items():
                terms.append((pos[(g1, h1)], pos[(g2, h2)], c))
            coproduct.append(terms)
            counit.append(ONE if g == 0 else ZERO)
        unit = {pos[(g, 0)]: ONE for g in range(group.n)}
        action = [
            [[(pos[(group.conj(f, g), group.conj(f, h))], ONE)] for (g, h) in basis]
            for f in range(group.n)
        ]
        super().__init__(group, basis, coproduct, counit, grading, action, unit=unit)

    def bracket(self, i: int, j: int) -> dict:
        """[delta_u v, delta_g h] = v |> (delta_g h) if u matches its grade."""
        key = (i, j)
        if key not in self._bracket_cache:
            group = self.group
            (u, v) = self.basis[i]
            (g, h) = self.basis[j]
            moved = (group.conj(v, g), group.conj(v, h))
            out: dict = {}
            grade = group.commutator(group.inv[moved[0]], moved[1])
            if u == grade:
                out[self._posgh[moved]] = ONE
            self._bracket_cache[key] = out
        return self._bracket_cache[key]


def lie_bdg(group: FiniteGroup) -> RegularBraidedLie:
    return RegularBraidedLie(group)


def lie_cpi(ctx: ClassContext, pi: Rep) -> BlockBraidedLie:
    return BlockBraidedLie([(ctx, pi)])


def lie_direct_sum(blocks) -> BlockBraidedLie:
    return BlockBraidedLie(blocks)


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


class BlockRMatrices:
    """R, its inverse and second inverse between two blocks, as sparse maps.

    Index pairs run over V-labels (a, i) of each block; the conventions are
    pinned by agreement of the induced fundamental braiding with the direct
    crossed-module formulas.
    """

    def __init__(self, block1, block2):
        self.ctx1, self.pi1 = block1
        self.ctx2, self.pi2 = block2
        self.group = self.ctx1.group

    def labels1(self):
        return [(a, i) for a in self.ctx1.cls for i in range(self.pi1.dim)]

    def labels2(self):
        return [(c, k) for c in self.ctx2.cls for k in range(self.pi2.dim)]

    def R(self, ai, bj, ck, dl) -> Cyc:
        """R^{ai}_{bj}{}^{ck}_{dl} = [a=b][c = a d a^-1][i=j] pi2(zeta_d(a))^k_l."""
        (a, i), (b, j), (c, k), (d, l) = ai, bj, ck, dl
        if a != b or i != j or c != self.group.conj(a, d):
            return ZERO
        return self.pi2.matrices[self.ctx2.zeta_in_centralizer(d, a)][k][l]

    def Rinv(self, ai, bj, ck, dl) -> Cyc:
        (a, i), (b, j), (c, k), (d, l) = ai, bj, ck, dl
        if a != b or i != j or c != self.group.conj(self.group.inv[a], d):
            return ZERO
        return self.pi2.matrices[self.ctx2.zeta_in_centralizer(d, self.group.inv[a])][k][l]

    def Rhat(self, ai, bj, ck, dl) -> Cyc:
        (a, i), (b, j), (c, k), (d, l) = ai, bj, ck, dl
        if a != b or i != j or d != self.group.conj(a, c):
            return ZERO
        z = self.ctx2.zeta_in_centralizer(c, a)
        zinv = self.ctx2.centralizer.inv[z]
        return self.pi2.matrices[zinv][k][l]

    def second_inverse_holds(self) -> bool:
        """Rhat^i_u{}^v_l R^u_j{}^k_v = delta delta = R^i_u{}^v_l Rhat^u_j{}^k_v."""
        L1, L2 = self.labels1(), self.labels2()
        for i_ in L1:
            for j_ in L1:
                for k_ in L2:
                    for l_ in L2:
                        t1 = ZERO
                        t2 = ZERO
                        for u_ in L1:
                            for v_ in L2:
                                a = self.Rhat(i_, u_, v_, l_)
                                if a:
                                    b = self.R(u_, j_, k_, v_)
                                    if b:
                                        t1 = t1 + a * b
                                a = self.R(i_, u_, v_, l_)
                                if a:
                                    b = self.Rhat(u_, j_, k_, v_)
                                    if b:
                                        t2 = t2 + a * b
                        expect = ONE if (i_ == j_ and k_ == l_) else ZERO
                        if t1 != expect or t2 != expect:
                            return False
        return True

    def braiding_operator(self):
        """Psi^R(E_i (x) E_k) = E_l (x) E_j R^j_i{}^l_k on V1 (x) V2."""
        L1, L2 = self.labels1(), self.labels2()
        out = {}
        for i_i, i_ in enumerate(L1):
            for k_i, k_ in enumerate(L2):
                terms = {}
                for j_i, j_ in enumerate(L1):
                    for l_i, l_ in enumerate(L2):
                        c = self.R(j_, i_, l_, k_)
                        if c:
                            terms[(l_i, j_i)] = c
                out[(i_i, k_i)] = terms
        return out

    def yang_baxter_holds(self) -> bool:
        """Braid relation for Psi^R on the triple tensor power (one block)."""
        if self.ctx1 is not self.ctx2 or self.pi1 is not self.pi2:
            raise ValueError("the YBE check runs on a single block")
        psi = self.braiding_operator()
        return _braid_relation_holds(lambda i, j: psi[(i, j)], len(self.labels1()))


def fundamental_braiding_rmatrix(block1, block2, e_ai, e_bj, e_ck, e_dl):
    """PsiT on matrix units via the R-matrix contraction:

    PsiT(E_I (x) E_K) = E_M (x) E_P *
        Rhat^j_v{}^s_k R^v_q{}^l_r R^r_n{}^p_u Rinv^m_s{}^u_i

    with I = (i,j) in End(V1), K = (k,l) in End(V2), M = (m,n) in End(V2),
    P = (p,q) in End(V1); mixed index pairs use the R-matrix of the
    corresponding block ordering.  The group parts of the R-matrices are
    delta functions, so the contraction is chained through their support.
    """
    r12 = BlockRMatrices(block1, block2)
    r21 = BlockRMatrices(block2, block1)
    group = r12.group
    ctx1, pi1 = block1
    ctx2, pi2 = block2
    i_, j_ = e_ai, e_bj
    k_, l_ = e_ck, e_dl
    out = {}
    ja = j_[0]
    # Rhat^j_v{}^s_k: v group part = ja, s group part = ja k ja^-1
    sa = group.conj(ja, k_[0])
    for vf in range(pi1.dim):
        v_ = (ja, vf)
        for sf in range(pi2.dim):
            s_ = (sa, sf)
            a = r12.Rhat(j_, v_, s_, k_)
            if not a:
                continue
            # R^v_q{}^l_r: q group = ja, l group = ja r ja^-1 -> r = ja^-1 l ja
            ra = group.conj(group.inv[ja], l_[0])
            for qf in range(pi1.dim):
                q_ = (ja, qf)
                for rf in range(pi2.dim):
                    r_ = (ra, rf)
                    b = r12.R(v_, q_, l_, r_)
                    if not b:
                        continue
                    # R^r_n{}^p_u (block2 first): n group = ra, p = ra u ra^-1
                    for nf in range(pi2.dim):
                        n_ = (ra, nf)
                        for ua in ctx1.cls:
                            pa = group.conj(ra, ua)
                            if pa not in ctx1.cls:
                                continue
                            for uf in range(pi1.dim):
                                for pf in range(pi1.dim):
                                    u_, p_ = (ua, uf), (pa, pf)
                                    c = r21.R(r_, n_, p_, u_)
                                    if not c:
                                        continue
                                    # Rinv^m_s{}^u_i: m group = sa, u = sa^-1 i sa
                                    if ua != group.conj(group.inv[sa], i_[0]):
                                        continue
                                    for mf in range(pi2.dim):
                                        m_ = (sa, mf)
                                        d = r21.Rinv(m_, s_, u_, i_)
                                        if d:
                                            _addto(out, ((m_, n_), (p_, q_)), a * b * c * d)
    return out


def psit_via_rmatrix(lie: BlockBraidedLie, t1: int, t2: int):
    """Fundamental braiding tensor between two blocks by the R-matrix route."""
    out = {}
    ctx1, pi1 = lie.blocks[t1]
    ctx2, pi2 = lie.blocks[t2]
    for a in ctx1.cls:
        for i in range(pi1.dim):
            for b in ctx1.cls:
                for j in range(pi1.dim):
                    src1 = lie.index_of(t1, a, i, b, j)
                    for c in ctx2.cls:
                        for k in range(pi2.dim):
                            for d in ctx2.cls:
                                for l in range(pi2.dim):
                                    src2 = lie.index_of(t2, c, k, d, l)
                                    terms = fundamental_braiding_rmatrix(
                                        lie.blocks[t1], lie.blocks[t2],
                                        (a, i), (b, j), (c, k), (d, l),
                                    )
                                    vec = {}
                                    for (((m, mi), (n, ni)), ((p, pi_), (q, qi))), coeff in terms.items():
                                        tgt1 = lie.index_of(t2, m, mi, n, ni)
                                        tgt2 = lie.index_of(t1, p, pi_, q, qi)
                                        _addto(vec, (tgt1, tgt2), coeff)
                                    out[(src1, src2)] = vec
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

    Generators t_{ai}^{bj} per block; relations
    R^{fp}_{ai}{}^{g q}_{c k} t_{fp}^{bj} t_{gq}^{dl}
      = t_{ck}^{gq} t_{ai}^{fp} R^{bj}_{fp}{}^{dl}_{gq}.
    """
    labels = []
    pos = {}
    for t, (ctx, pi) in enumerate(blocks):
        for a in ctx.cls:
            for i in range(pi.dim):
                for b in ctx.cls:
                    for j in range(pi.dim):
                        pos[(t, a, i, b, j)] = len(labels)
                        labels.append((t, a, i, b, j))
    relations = []
    for t1, b1 in enumerate(blocks):
        ctx1, pi1 = b1
        for t2, b2 in enumerate(blocks):
            ctx2, pi2 = b2
            rm = BlockRMatrices(b2, b1)  # R between (C', pi') and (C, pi)
            L1 = [(a, i) for a in ctx1.cls for i in range(pi1.dim)]
            L2 = [(c, k) for c in ctx2.cls for k in range(pi2.dim)]
            for ai in L1:
                for bj in L1:
                    for ck in L2:
                        for dl in L2:
                            row = {}
                            for fp in L1:
                                for gq in L2:
                                    c = rm.R(fp, ai, gq, ck)
                                    if c:
                                        key = (
                                            pos[(t1, fp[0], fp[1], bj[0], bj[1])],
                                            pos[(t2, gq[0], gq[1], dl[0], dl[1])],
                                        )
                                        _addto(row, key, c)
                                    c2 = rm.R(bj, fp, dl, gq)
                                    if c2:
                                        key = (
                                            pos[(t2, ck[0], ck[1], gq[0], gq[1])],
                                            pos[(t1, ai[0], ai[1], fp[0], fp[1])],
                                        )
                                        _addto(row, key, -c2)
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
    ctx0 = blocks[0][0]
    group = ctx0.group
    gens = []
    for ctx, pi in blocks:
        for a in ctx.cls:
            for i in range(pi.dim):
                for b in ctx.cls:
                    for j in range(pi.dim):
                        gens.append(inclusion_element(ctx, pi, a, i, b, j))
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

    def ev(idx1: int, idx2: int) -> Cyc:
        (t1, a, i, b, j) = lie.basis[idx1]
        (t2, c, k, d, l) = lie.basis[idx2]
        if t1 == t2 and a == d and b == c and i == l and k == j:
            return ONE
        return ZERO

    K = [[ZERO] * dim for _ in range(dim)]
    for x in range(dim):
        for y in range(dim):
            total = ZERO
            for m in range(dim):
                (tm, am, im, bm, jm) = lie.basis[m]
                dual_m = lie._pos[(tm, bm, jm, am, im)]
                inner = lie.bracket(y, m)
                for w1, c1 in inner.items():
                    for w, c2 in lie.bracket(x, w1).items():
                        # braid w past the dual vector then pair
                        for (moved, c3) in lie.action[lie.grading[w]][dual_m]:
                            p = ev(moved, w)
                            if p:
                                total = total + c1 * c2 * c3 * p
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
                        * _trace_sub(pi, arg3)
                        * _trace_sub(pi, arg4)
                    )
                    total = total + term
            K[x][y] = total
    return K


def _trace_sub(pi: Rep, idx: int) -> Cyc:
    t = ZERO
    for i in range(pi.dim):
        t = t + pi.matrices[idx][i][i]
    return t


def braided_antipode_on_generator(ctx: ClassContext, pi: Rep, a, i, b, j):
    """S E_{ai}^{bj} = pi(zeta_b(a b^-1)^-1)_j^k E_{a b^-1 a^-1 k}^{a^-1 i};
    requires a real orthogonal pi and an inversion-stable class."""
    group = ctx.group
    a = group.element(a) if isinstance(a, str) else a
    b = group.element(b) if isinstance(b, str) else b
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


def quotient_hopf(ctx: ClassContext, pi: Rep):
    """Hopf quotients of the FRT and enveloping presentations.

    Adds the antipode relations sum_c t_{ai}^{ck} S t_{ck}^{bj} = [a=b][i=j]
    (both sides) to the FRT algebra with S t_{ai}^{bj} = t_{b^-1 j}^{a^-1 i},
    and the braided analogues to the enveloping algebra.  Requires a real
    orthogonal pi and an inversion-stable class.
    """
    group = ctx.group
    if not pi.is_real_orthogonal():
        raise ValueError("centralizer representation must be real orthogonal")
    if sorted(group.inv[c] for c in ctx.cls) != ctx.cls:
        raise ValueError("conjugacy class must be stable under inversion")
    lie = lie_cpi(ctx, pi)
    ua = envelope(lie)
    fa = frt([(ctx, pi)])
    pos = lie._pos

    def t_index(a, i, b, j):
        return pos[(0, a, i, b, j)]

    inhom_frt = []
    inhom_env = []
    for a in ctx.cls:
        for i in range(pi.dim):
            for b in ctx.cls:
                for j in range(pi.dim):
                    const = -ONE if (a == b and i == j) else ZERO
                    # t_{ai}^{ck} S t_{ck}^{bj} with S t_{ck}^{bj} = t_{b^-1 j}^{c^-1 k}
                    row1 = {}
                    row2 = {}
                    for c in ctx.cls:
                        for k in range(pi.dim):
                            key1 = (
                                t_index(a, i, c, k),
                                t_index(group.inv[b], j, group.inv[c], k),
                            )
                            _addto(row1, key1, ONE)
                            key2 = (
                                t_index(group.inv[c], k, group.inv[a], i),
                                t_index(c, k, b, j),
                            )
                            _addto(row2, key2, ONE)
                    inhom_frt.append((row1, const))
                    inhom_frt.append((row2, const))
                    # braided side with the braided antipode on generators
                    row3 = {}
                    row4 = {}
                    for c in ctx.cls:
                        for k in range(pi.dim):
                            for (ta, tk, tb, ti), coeff in braided_antipode_on_generator(
                                ctx, pi, c, k, b, j
                            ).items():
                                _addto(
                                    row3,
                                    (t_index(a, i, c, k), t_index(ta, tk, tb, ti)),
                                    coeff,
                                )
                            for (ta, tk, tb, ti), coeff in braided_antipode_on_generator(
                                ctx, pi, a, i, c, k
                            ).items():
                                _addto(
                                    row4,
                                    (t_index(ta, tk, tb, ti), t_index(c, k, b, j)),
                                    coeff,
                                )
                    inhom_env.append((row3, const))
                    inhom_env.append((row4, const))
    H = QuadAlg(fa.generators, fa.relations, inhomogeneous=inhom_frt)
    B = QuadAlg(ua.generators, ua.relations, inhomogeneous=inhom_env)
    return H, B


def braided_antipode_preserves_relations(lie: BlockBraidedLie) -> bool:
    """S extended braided-antimultiplicatively maps the degree-2 relation
    space of the enveloping presentation into itself."""
    if len(lie.blocks) != 1:
        raise ValueError("implemented per block")
    ctx, pi = lie.blocks[0]

    def s_on_index(idx):
        (t, a, i, b, j) = lie.basis[idx]
        out = {}
        for (ta, tk, tb, ti), coeff in braided_antipode_on_generator(ctx, pi, a, i, b, j).items():
            out[lie._pos[(0, ta, tk, tb, ti)]] = coeff
        return out

    def s2_on_pair(i, j):
        # S(xy) = S(Psi1(x,y)) S(Psi2(x,y)) braided-antimultiplicatively
        out = {}
        for (a, b), c in lie.psi(i, j):
            for m1, c1 in s_on_index(a).items():
                for m2, c2 in s_on_index(b).items():
                    _addto(out, (m1, m2), c * c1 * c2)
        return out

    span = SparseSpan()
    rows = []
    for i in range(lie.dim):
        for j in range(lie.dim):
            row = dict(lie.psit(i, j))
            _addto(row, (i, j), -ONE)
            if row:
                rows.append(row)
                span.add(dict(row))
    for row in rows:
        image = {}
        for (i, j), c in row.items():
            for key, c2 in s2_on_pair(i, j).items():
                _addto(image, key, c * c2)
        if not span.contains(image):
            return False
    return True
