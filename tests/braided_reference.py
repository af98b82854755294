"""Test-side reference: the antipode relations, the antipode-preservation
check and the trace oracle as the package wrote them before one builder,
``braided._antipode_relations``, made both Hopf quotients' relations.

``quotient_relations`` keeps the two copies of the seven-deep loop, the FRT
rows with S t_{ck}^{bj} = t_{b^-1 j}^{c^-1 k} written inline and the braided
rows through ``antipode_on_generator``.  ``preserves_relations`` rebuilds
im(PsiT - id) and evaluates S once per Psi term.  ``trace_oracle`` pairs
through an ``ev`` function on basis labels.

``orbits`` is the orbit enumeration the braided-Lie axioms used before
``groups.orbit_representatives``: a flood fill over a flat bytearray of the
n**arity base-n codes, under the generators' permutations alone.

``equivariant_perm`` is the full orbit premise as ``BraidedLie`` decided it
before the verified crossed module was taken to imply part of it: a
bijectivity check on the permutation, and the counit, coproduct, Psi,
bracket and PsiT each compared with the generator's action on every basis
vector and pair, with a permutation-only path when every scale is 1.
"""

from itertools import product

from qdouble.cyclotomic import ONE, ZERO
from qdouble.linalg import SparseSpan, _addto


def antipode_on_generator(ctx, pi, a, i, b, j):
    """S E_{ai}^{bj} = pi(zeta_b(a b^-1)^-1)_j^k E_{a b^-1 a^-1 k}^{a^-1 i}."""
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


def quotient_relations(ctx, pi, pos):
    """The inhomogeneous relations (FRT, enveloping) of ``quotient_hopf``,
    each a list of (quadratic part, constant)."""
    group = ctx.group

    def t_index(a, i, b, j):
        return pos[(a, i, b, j)]

    inhom_frt = []
    inhom_env = []
    for a in ctx.cls:
        for i in range(pi.dim):
            for b in ctx.cls:
                for j in range(pi.dim):
                    const = -ONE if (a == b and i == j) else ZERO
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
                    row3 = {}
                    row4 = {}
                    for c in ctx.cls:
                        for k in range(pi.dim):
                            for (ta, tk, tb, ti), coeff in antipode_on_generator(
                                ctx, pi, c, k, b, j
                            ).items():
                                _addto(
                                    row3,
                                    (t_index(a, i, c, k), t_index(ta, tk, tb, ti)),
                                    coeff,
                                )
                            for (ta, tk, tb, ti), coeff in antipode_on_generator(
                                ctx, pi, a, i, c, k
                            ).items():
                                _addto(
                                    row4,
                                    (t_index(ta, tk, tb, ti), t_index(c, k, b, j)),
                                    coeff,
                                )
                    inhom_env.append((row3, const))
                    inhom_env.append((row4, const))
    return inhom_frt, inhom_env


def preserves_relations(lie) -> bool:
    """S extended braided-antimultiplicatively maps im(PsiT - id) into itself."""
    ctx, pi = lie.ctx, lie.pi

    def s_on_index(idx):
        (a, i, b, j) = lie.basis[idx]
        out = {}
        for (ta, tk, tb, ti), coeff in antipode_on_generator(ctx, pi, a, i, b, j).items():
            out[lie._pos[(ta, tk, tb, ti)]] = coeff
        return out

    def s2_on_pair(i, j):
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


def trace_oracle(lie):
    """K(x, y) = ev(|[x,[y,e_m]]| |> e^m (x) [x,[y,e_m]]) summed over m, with
    ev(E_{ai}^{bj} (x) E_{ck}^{dl}) = [a=d][b=c] delta_i^l delta_k^j."""
    dim = lie.dim

    def ev(idx1, idx2):
        (a, i, b, j) = lie.basis[idx1]
        (c, k, d, l) = lie.basis[idx2]
        if a == d and b == c and i == l and k == j:
            return ONE
        return ZERO

    K = [[ZERO] * dim for _ in range(dim)]
    for x in range(dim):
        for y in range(dim):
            total = ZERO
            for m in range(dim):
                (am, im, bm, jm) = lie.basis[m]
                dual_m = lie._pos[(bm, jm, am, im)]
                for w1, c1 in lie.bracket(y, m).items():
                    for w, c2 in lie.bracket(x, w1).items():
                        for (moved, c3) in lie.action[lie.grading[w]][dual_m]:
                            p = ev(moved, w)
                            if p:
                                total = total + c1 * c2 * c3 * p
            K[x][y] = total
    return K


def orbits(n: int, arity: int, perms):
    """One representative tuple for each orbit of the tuples in
    range(n)**arity under the permutations ``perms`` of range(n), each
    acting on every factor.  A tuple is coded in base n and the
    representative is the least code of its orbit, so representatives come
    in lexicographic order.  With no permutations every tuple is its own
    representative.  Each permutation is lifted to the codes of the first
    arity - 1 factors, so a code moves by one divmod and two lookups."""
    lifted = []
    for perm in perms:
        head = [0]
        for _ in range(arity - 1):
            head = [c * n + p for c in head for p in perm]
        lifted.append((head, perm))
    seen = bytearray(n ** arity)
    for code, t in enumerate(product(range(n), repeat=arity)):
        if seen[code]:
            continue
        seen[code] = 1
        orbit = [code]
        for member in orbit:
            q, r = divmod(member, n)
            for head, perm in lifted:
                image = head[q] * n + perm[r]
                if not seen[image]:
                    seen[image] = 1
                    orbit.append(image)
        yield t


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


def equivariant_perm(lie, s: int):
    """The permutation p of s |> v_i = c_i v_p(i) if the action of s is
    monomial and bijective and the counit, coproduct, Psi, bracket and PsiT
    commute with it on every basis vector and pair, else None."""
    cols = lie.action[s]
    if not all(len(col) == 1 and col[0][1] for col in cols):
        return None
    perm = [col[0][0] for col in cols]
    scale = [col[0][1] for col in cols]
    if len(set(perm)) != lie.dim:
        return None
    if all(c == ONE for c in scale):
        scale = None
    for i in range(lie.dim):
        delta, image = {}, {}
        for (a, b, c) in lie.coproduct[i]:
            _addto(delta, (a, b), c)
        for (a, b, c) in lie.coproduct[perm[i]]:
            _addto(image, (a, b), c if scale is None else c * scale[i])
        eps = lie.counit[perm[i]] if scale is None else lie.counit[perm[i]] * scale[i]
        if eps != lie.counit[i] or _act(perm, scale, delta) != image:
            return None
    for tensor in (lambda i, j: dict(lie.psi(i, j)), lie.bracket, lie.psit):
        for i in range(lie.dim):
            for j in range(lie.dim):
                image = tensor(perm[i], perm[j])
                if scale is not None:
                    c = scale[i] * scale[j]
                    image = {k: c * v for k, v in image.items()}
                if _act(perm, scale, tensor(i, j)) != image:
                    return None
    return perm
