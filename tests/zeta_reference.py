"""Test-side references: the centralizer-cocycle formulas for the action on
V_{C,pi} and the structures on it, written out from zeta_c(g) as the
package wrote them before it read them all from ``reps.induced_matrices``.

Each takes a block (ctx, pi) and returns plain data keyed by class labels,
so the tests can compare the package with formulas that do not call it.
"""

from qdouble.cyclotomic import ZERO


def vcpi_action(ctx, pi):
    """Matrices of V_{C,pi}: g sends (c, j) to sum_i pi(zeta_c(g))^i_j (g c g^-1, i)."""
    group = ctx.group
    pos = {c: k for k, c in enumerate(ctx.cls)}
    dim = len(ctx.cls) * pi.dim
    action = []
    for h in range(group.n):
        m = [[ZERO] * dim for _ in range(dim)]
        for c in ctx.cls:
            target = group.conj(h, c)
            block = pi.matrices[ctx.zeta_in_centralizer(c, h)]
            for i in range(pi.dim):
                for j in range(pi.dim):
                    m[pos[target] * pi.dim + i][pos[c] * pi.dim + j] = block[i][j]
        action.append(m)
    return action


def end_action(ctx, pi, g, a, i, b, j):
    """g |> E_{ai}^{bj} = sum pi(zeta_a(g))^k_i pi(zeta_b(g)^-1)^j_l E_{a'k}^{b'l},
    as {(a', k, b', l): coeff} with a' = g a g^-1, b' = g b g^-1."""
    group = ctx.group
    za = pi.matrices[ctx.zeta_in_centralizer(a, g)]
    zb_inv = pi.matrices[ctx.centralizer.inv[ctx.zeta_in_centralizer(b, g)]]
    a2, b2 = group.conj(g, a), group.conj(g, b)
    return {
        (a2, k, b2, l): za[k][i] * zb_inv[j][l]
        for k in range(pi.dim)
        if za[k][i]
        for l in range(pi.dim)
        if zb_inv[j][l]
    }


def bracket_coefficient(ctx, pi, a, ii, jj, x):
    """The coefficient pi(zeta_a(x))^{jj}_{ii} of the block bracket."""
    return pi.matrices[ctx.zeta_in_centralizer(a, x)][jj][ii]


def R(ctx2, pi2, ai, bj, ck, dl):
    """R^{ai}_{bj}{}^{ck}_{dl} = [a=b][i=j][c = a d a^-1] pi2(zeta_d(a))^k_l."""
    group = ctx2.group
    (a, i), (b, j), (c, k), (d, l) = ai, bj, ck, dl
    if a != b or i != j or c != group.conj(a, d):
        return ZERO
    return pi2.matrices[ctx2.zeta_in_centralizer(d, a)][k][l]


def Rinv(ctx2, pi2, ai, bj, ck, dl):
    """[a=b][i=j][c = a^-1 d a] pi2(zeta_d(a^-1))^k_l."""
    group = ctx2.group
    (a, i), (b, j), (c, k), (d, l) = ai, bj, ck, dl
    if a != b or i != j or c != group.conj(group.inv[a], d):
        return ZERO
    return pi2.matrices[ctx2.zeta_in_centralizer(d, group.inv[a])][k][l]


def Rhat(ctx2, pi2, ai, bj, ck, dl):
    """The second inverse: [a=b][i=j][d = a c a^-1] pi2(zeta_c(a)^-1)^k_l."""
    group = ctx2.group
    (a, i), (b, j), (c, k), (d, l) = ai, bj, ck, dl
    if a != b or i != j or d != group.conj(a, c):
        return ZERO
    z = ctx2.zeta_in_centralizer(c, a)
    return pi2.matrices[ctx2.centralizer.inv[z]][k][l]


def act_dual(ctx, pi, h, d, j):
    """h |> E^{dj} = pi(zeta_d(h)^-1)^j_l E^{(h d h^-1) l}, as (target, l, coeff)."""
    group = ctx.group
    zinv = ctx.centralizer.inv[ctx.zeta_in_centralizer(d, h)]
    target = group.conj(h, d)
    return [(target, l, pi.matrices[zinv][j][l]) for l in range(pi.dim)]


def coact_E(ctx, pi, key):
    """The left coaction on E at the class coordinate (c, i)."""
    group = ctx.group
    c, i = key
    terms = []
    for f in range(group.n):
        cprime = group.conj(group.inv[f], c)
        z = ctx.zeta_in_centralizer(c, group.inv[f])
        for k in range(pi.dim):
            coeff = pi.matrices[z][k][i]
            if coeff:
                terms.append(((f, group.conj(group.inv[f], group.inv[c])), (cprime, k), coeff))
    return terms
