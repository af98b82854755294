"""Test-side reference: the coactions on E, V_{C,pi}, E' and Estar as the
package wrote them before one builder, ``transfer._coaction``, made all of
them.

Each is its own copy of the loop over f in G.  ``coact_E`` reads the induced
matrices directly rather than through the crossed module V_{C,pi}.
"""

from qdouble.cyclotomic import ONE
from qdouble.reps import induced_matrices


def coact_E(ctx, pi):
    """Left coaction on E in class coordinates; basis keys (c, i)."""
    group = ctx.group
    induced = induced_matrices(ctx, pi)
    pos = {c: k * pi.dim for k, c in enumerate(ctx.cls)}

    def coaction(key):
        c, i = key
        terms = []
        for f in range(group.n):
            cprime = group.conj(group.inv[f], c)
            rows = induced[group.inv[f]]
            for k in range(pi.dim):
                coeff = rows[pos[cprime] + k][pos[c] + i]
                if coeff:
                    terms.append(((f, group.conj(group.inv[f], group.inv[c])), (cprime, k), coeff))
        return terms

    return coaction


def coact_VCpi(module):
    """Left coaction of a crossed module: sum_g delta_g (x) g^-1|w|^-1 g (x) g^-1 |> w."""
    group = module.group

    def coaction(widx):
        terms = []
        for g in range(group.n):
            mid = group.conj(group.inv[g], group.inv[module.grading[widx]])
            for out_w, val in module.column(group.inv[g], widx):
                terms.append(((g, mid), out_w, val))
        return terms

    return coaction


def coact_Eprime(module):
    """Left coaction on E' = kG (x) W; flat basis index g*dim + w."""
    group = module.group

    def coaction(idx):
        g, widx = divmod(idx, module.dim)
        terms = []
        for f in range(group.n):
            mid = group.conj(group.inv[f], g)
            for out_w, val in module.column(group.inv[f], widx):
                terms.append(((f, mid), mid * module.dim + out_w, val))
        return terms

    return coaction


def coact_Estar(module):
    """Left coaction on Estar = C(G) (x) W; flat basis index g*dim + w."""
    group = module.group

    def coaction(idx):
        g, widx = divmod(idx, module.dim)
        terms = []
        for f in range(group.n):
            mid = group.conj(
                group.inv[f], group.word(g, group.inv[module.grading[widx]], group.inv[g])
            )
            terms.append(((f, mid), group.table[group.inv[f]][g] * module.dim + widx, ONE))
        return terms

    return coaction
