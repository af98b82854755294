"""Matrix representations over the cyclotomic field.

The catalogue covers what the engine needs without a general character
table algorithm: trivial and sign representations, characters of cyclic
and abelian groups, Young seminormal representations of S_n for n <= 5
(rational entries), a dihedral 2-dimensional representation, internal
products, and user-supplied matrices.  Every representation is validated
as a homomorphism on construction, on the group's generating set, by
``homomorphism_failure``: the one check, on sparse columns, that every
G-action of the package goes through.

Every catalogue representation, except an internal product or user-supplied
matrices, is built one way: images of a few generators, extended to the
whole group by ``_extend_from_generators``.  ``irrep_family``
is the only dispatcher to a family, for whole groups and centralizers alike
(a ``Subgroup`` keeps its parent's permutations), and ``irrep_catalog``
builds what it picks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .cyclotomic import ONE, ZERO, Cyc, cyc, root_of_unity
from .groups import ConfigError, FiniteGroup, parse_cycles
from . import linalg


class Rep:
    """A matrix representation: one dim x dim Cyc matrix per group element."""

    def __init__(self, group: FiniteGroup, matrices, name: str = "rep"):
        self.group = group
        self.matrices = [[list(row) for row in m] for m in matrices]
        self.dim = len(self.matrices[0])
        self.name = name
        self._validate()

    def _validate(self):
        check_homomorphism(self.group, self.matrices, self.name)

    def trace(self, g: int) -> Cyc:
        m = self.matrices[g]
        t = ZERO
        for i in range(self.dim):
            t = t + m[i][i]
        return t

    def character(self) -> list[Cyc]:
        """Plain trace character as a class function (one value per class)."""
        return [self.trace(c[0]) for c in self.group.conjugacy_classes()]

    def normalized_character(self) -> list[Cyc]:
        """Trace over dimension; value 1 on the identity class."""
        d = Cyc.rational(Fraction(1, self.dim))
        return [v * d for v in self.character()]

    def is_irreducible(self) -> bool:
        total = ZERO
        for g in range(self.group.n):
            t = self.trace(g)
            total = total + t * t.conj()
        return total == cyc(self.group.n)

    def is_real_orthogonal(self) -> bool:
        """Entries fixed by conjugation and rho(g) rho(g)^T = 1 for every
        generator g; real orthogonal matrices are closed under products."""
        ident = linalg.identity(self.dim, ONE, ZERO)
        for m in (self.matrices[s] for s in self.group.generators):
            for row in m:
                for x in row:
                    if x.conj() != x:
                        return False
            if not linalg.mat_eq(linalg.mat_mul(m, linalg.transpose(m)), ident):
                return False
        return True

    def is_trivial(self) -> bool:
        """One-dimensional and 1 on every generator, hence on the whole group."""
        return self.dim == 1 and all(self.matrices[s][0][0] == ONE for s in self.group.generators)

    def __repr__(self):
        return f"Rep({self.name}, dim={self.dim}, group order {self.group.n})"


def homomorphism_failure(group: FiniteGroup, action):
    """The first witness that g -> action[g] is not a homomorphism, or None.

    action[g][j] is column j of g's matrix as ``linalg._columns`` gives it.
    The witness is (0, None, j) when e does not fix w_j, and (g, s, j) when
    column j of g s, as stored, is not g applied to column j of s, for a
    generator s; the s passing at every g form a subgroup.  Every column is
    some g s, so each is also checked to be zero-free and in increasing i."""
    for j, col in enumerate(action[0]):
        if col != [(j, ONE)]:
            return 0, None, j
    for g, cols in enumerate(action):
        for s in group.generators:
            gs = action[group.table[g][s]]
            for j, col in enumerate(action[s]):
                if linalg._apply(cols, col) != gs[j]:
                    return g, s, j
    return None


def check_homomorphism(group: FiniteGroup, matrices, name: str) -> None:
    """Raise ValueError naming (g, s) unless g -> matrices[g] is a
    homomorphism, decided on columns by ``homomorphism_failure``."""
    failure = homomorphism_failure(group, [linalg._columns(m) for m in matrices])
    if failure is not None:
        g, s, _ = failure
        if s is None:
            raise ValueError(f"{name}: identity does not map to the identity matrix")
        raise ValueError(f"{name}: not a homomorphism at ({g},{s})")


def _kron(a, b):
    na, nb = len(a), len(b)
    out = [[ZERO] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


# -- catalogue ----------------------------------------------------------------


def trivial_rep(group: FiniteGroup) -> Rep:
    images = [(s, [[ONE]]) for s in group.generators]
    return Rep(group, _extend_from_generators(group, images, [[ONE]]), name="trivial")


def sign_rep(group: FiniteGroup) -> Rep:
    """Sign of the underlying permutations (requires permutation images)."""
    if group.perms is None:
        raise ValueError("sign representation needs permutation images")
    images = [(s, [[cyc(_perm_sign(group.perms[s]))]]) for s in group.generators]
    return Rep(group, _extend_from_generators(group, images, [[ONE]]), name="sign")


def _perm_sign(p) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def cyclic_rep(group: FiniteGroup, j: int, generator: int | None = None) -> Rep:
    """Character g^k -> zeta_n^(jk) of a cyclic group."""
    n = group.n
    if generator is None:
        generator = next((g for g in range(n) if group.order_of(g) == n), None)
        if generator is None:
            raise ConfigError("group is not cyclic")
    # pi(e) is zeta_n^0, not 1: a printed N is the lcm of the operand orders
    identity = [[root_of_unity(n, 0)]]
    mats = _extend_from_generators(group, [(generator, [[root_of_unity(n, j)]])], identity)
    return Rep(group, mats, name=f"cyclic_{j}")


def abelian_characters(group: FiniteGroup) -> list[Rep]:
    """All 1-dimensional representations of an abelian group: every choice of
    roots of unity on the generators that respects the group's relations."""
    if not group.is_abelian():
        raise ValueError("character enumeration requires an abelian group")
    gens = group.generators
    orders = [group.order_of(g) for g in gens]
    chars = []
    for exps in itertools.product(*(range(o) for o in orders)):
        images = [(g, [[root_of_unity(o, k)]]) for g, o, k in zip(gens, orders, exps)]
        mats = _extend_from_generators(group, images, [[ONE]])
        try:
            chars.append(Rep(group, mats, name=f"chi{exps}"))
        except ValueError:
            continue  # the images break a relation among the generators
    if len(chars) != group.n:
        raise RuntimeError("abelian character enumeration failed")
    return chars


def _axial_distance(tab_pos, k):
    (r1, c1), (r2, c2) = tab_pos[k], tab_pos[k + 1]
    return (c2 - r2) - (c1 - r1)


def _standard_tableaux(partition):
    n = sum(partition)
    rows = len(partition)
    out = []

    def grow(placement, k):
        if k > n:
            out.append(dict(placement))
            return
        counts = [0] * rows
        for (r, c) in placement.values():
            counts[r] += 1
        for r in range(rows):
            c = counts[r]
            if c < partition[r] and (r == 0 or counts[r - 1] > c):
                placement[k] = (r, c)
                grow(placement, k + 1)
                del placement[k]

    grow({}, 1)
    return out


def seminormal_rep(group: FiniteGroup, partition) -> Rep:
    """Young seminormal form of S_n, rational matrix entries, extended from the
    images of the adjacent transpositions (k, k+1)."""
    if group.perms is None:
        raise ValueError("seminormal representation needs permutation images")
    n = len(group.perms[0])
    if sum(partition) != n or n > 5:
        raise ConfigError(f"unsupported partition {partition} for degree {n}")
    partition = tuple(sorted(partition, reverse=True))
    tableaux = _standard_tableaux(partition)
    index = {frozenset(t.items()): i for i, t in enumerate(tableaux)}
    dim = len(tableaux)

    def transposition_matrix(k):
        m = [[ZERO] * dim for _ in range(dim)]
        for i, t in enumerate(tableaux):
            d = _axial_distance(t, k)
            dd = Fraction(1, d)
            swapped = dict(t)
            swapped[k], swapped[k + 1] = t[k + 1], t[k]
            key = frozenset(swapped.items())
            if key in index:
                j = index[key]
                m[i][i] = cyc(dd)
                if j > i:
                    m[i][j] = cyc(1 - dd * dd)
                    m[j][i] = cyc(1)
            else:
                m[i][i] = cyc(dd)  # +1 or -1, same row or column
        return m

    element = {p: g for g, p in enumerate(group.perms)}
    adjacent = [parse_cycles([[k, k + 1]], n) for k in range(1, n)]
    if any(p not in element for p in adjacent):
        raise ConfigError("seminormal representation needs the full symmetric group")
    gens = [(element[p], transposition_matrix(k)) for k, p in enumerate(adjacent, start=1)]
    mats = _extend_from_generators(group, gens, linalg.identity(dim, ONE, ZERO))
    return Rep(group, mats, name=f"seminormal{partition}")


def _dihedral_generators(group: FiniteGroup) -> tuple[int, int]:
    """A rotation of order 4 and a reflection outside the rotations."""
    rot = next((g for g in range(group.n) if group.order_of(g) == 4), None)
    if rot is None or group.n != 8:
        raise ConfigError("not a dihedral group of order 8")
    rot_sub = group.subgroup_generated([rot])
    ref = next((g for g in range(group.n) if g not in rot_sub and group.order_of(g) == 2), None)
    if ref is None:
        raise ConfigError("not a dihedral group of order 8")
    return rot, ref


def _extend_from_generators(group: FiniteGroup, gens, identity) -> list:
    """Matrices on the whole group from (generator, matrix) images: each
    element's matrix is the product along a shortest word in the generators,
    found by a breadth-first search of the Cayley graph."""
    mats = [None] * group.n
    mats[0] = identity
    reached = [0]
    for x in reached:
        for g, gm in gens:
            y = group.table[x][g]
            if mats[y] is None:
                mats[y] = linalg.mat_mul(mats[x], gm)
                reached.append(y)
    if len(reached) != group.n:
        raise ValueError("the chosen generators do not generate the group")
    return mats


def dihedral_two_dim(group: FiniteGroup) -> Rep:
    """2-dimensional representation of a dihedral group of order 8."""
    rot, ref = _dihedral_generators(group)
    rot_m = [[ZERO, -ONE], [ONE, ZERO]]
    ref_m = [[ONE, ZERO], [ZERO, -ONE]]
    mats = _extend_from_generators(group, [(rot, rot_m), (ref, ref_m)], linalg.identity(2, ONE, ZERO))
    return Rep(group, mats, name="dihedral2")


def product_rep(group: FiniteGroup, rep_a: Rep, sub_a: list[int], rep_b: Rep, sub_b: list[int]) -> Rep:
    """Representation of an internal direct product A x B from reps of the factors.

    sub_a, sub_b list the parent indices of A and B; rep_a, rep_b are
    representations of the corresponding Subgroup views.
    """
    pos_a = {g: i for i, g in enumerate(sub_a)}
    pos_b = {g: i for i, g in enumerate(sub_b)}
    mats = []
    for g in range(group.n):
        found = None
        for a in sub_a:
            b = group.table[group.inv[a]][g]
            if b in pos_b:
                found = (a, b)
                break
        if found is None:
            raise ValueError("element outside the internal product")
        a, b = found
        mats.append(_kron(rep_a.matrices[pos_a[a]], rep_b.matrices[pos_b[b]]))
    return Rep(group, mats, name=f"product({rep_a.name},{rep_b.name})")


# the irrep kinds a scenario may name, beside the class-dependent
# centralizer_character: the parameter each requires (None for none) and its builder
KINDS = {
    "trivial": (None, trivial_rep),
    "sign": (None, sign_rep),
    "cyclic": ("j", cyclic_rep),
    "s3_two_dim": (None, lambda group: seminormal_rep(group, (2, 1))),
    "seminormal": ("partition", lambda group, partition: seminormal_rep(group, tuple(partition))),
    "dihedral2": (None, dihedral_two_dim),
    "user": ("matrices", lambda group, matrices: Rep(group, matrices, name="user")),
}


def irrep_family(group: FiniteGroup):
    """The catalogue family that builds the irreducibles of group, or None.

    The one dispatcher, for whole groups and centralizers alike (a Subgroup
    keeps its parent's permutations).  Choosing builds nothing, so a caller
    can check many groups before building any."""
    if group.is_abelian():
        return abelian_characters
    perms = group.perms
    if perms is not None and len(perms[0]) <= 5 and group.n == math.factorial(len(perms[0])):
        return _symmetric_irreps
    if group.n == 8:
        return _order8_nonabelian_irreps
    return None


def irrep_catalog(group: FiniteGroup) -> list[Rep]:
    """All irreducibles for the supported group families."""
    family = irrep_family(group)
    if family is None:
        raise ConfigError(f"no irreducible catalogue for this group (order {group.n})")
    reps = family(group)
    if sum(r.dim * r.dim for r in reps) != group.n:
        raise RuntimeError("irreducible catalogue is incomplete")
    return reps


def _symmetric_irreps(group: FiniteGroup) -> list[Rep]:
    return [seminormal_rep(group, p) for p in _partitions(len(group.perms[0]))]


def _partitions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _order8_nonabelian_irreps(group: FiniteGroup) -> list[Rep]:
    two = dihedral_two_dim(group)
    rot, ref = _dihedral_generators(group)
    linear = []
    for er, ef in itertools.product([1, -1], repeat=2):
        mats = _extend_from_generators(group, [(rot, [[cyc(er)]]), (ref, [[cyc(ef)]])], [[ONE]])
        try:
            linear.append(Rep(group, mats, name=f"chi({er},{ef})"))
        except ValueError:
            continue
    return linear + [two]


# -- character tools ----------------------------------------------------------


def group_projector(subgroup: FiniteGroup, pi: Rep) -> dict[int, Cyc]:
    """Central idempotent P_pi = (dim/|H|) sum Tr_pi(n^-1) n, as {element: coeff}."""
    if not pi.is_irreducible():
        raise ValueError("group projector requires an irreducible representation")
    scale = cyc(Fraction(pi.dim, subgroup.n))
    return {
        n: scale * pi.trace(subgroup.inv[n])
        for n in range(subgroup.n)
        if pi.trace(subgroup.inv[n])
    }


def centralizer_character(ctx, j: int) -> Rep:
    """Character pi_j of a cyclic centralizer, pinned by pi_j(r) = zeta^j."""
    sub, r = ctx.centralizer, ctx.centralizer.position[ctx.rep]
    if sub.order_of(r) != sub.n:
        raise ConfigError(f"centralizer_character: {ctx.group.labels[ctx.rep]!r} does not generate its centralizer")
    return cyclic_rep(sub, j, generator=r)


def induced_matrices(ctx, pi: Rep) -> list:
    """The Wigner construction: the matrices of G on V_{C,pi}, induced from pi
    on the centralizer, with C as the orbit and pi as the spin.

    Basis (c, i) with c running over the class in sorted order; the matrix
    of g sends (d, j) to sum_i pi(zeta_d(g))^i_j (g d g^-1, i).  The one
    place this action is written: the crossed module V_{C,pi}, the action
    and R-matrices on End(V_{C,pi}), the dual-double calculus and the
    coaction on E read it.  Unvalidated; ``induced_rep`` validates."""
    group = ctx.group
    pos = {c: k for k, c in enumerate(ctx.cls)}
    dim = len(ctx.cls) * pi.dim
    mats = []
    for g in range(group.n):
        m = [[ZERO] * dim for _ in range(dim)]
        for d in ctx.cls:
            block = pi.matrices[ctx.zeta_in_centralizer(d, g)]
            row, col = pos[group.conj(g, d)] * pi.dim, pos[d] * pi.dim
            for i in range(pi.dim):
                m[row + i][col:col + pi.dim] = block[i]
        mats.append(m)
    return mats


def induced_rep(ctx, pi: Rep) -> Rep:
    """Representation of G on C-class x V_pi induced from pi on the centralizer."""
    return Rep(ctx.group, induced_matrices(ctx, pi), name=f"induced({pi.name})")
