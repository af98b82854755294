"""Test-side reference: the bundle transfers and coactions in the dense
form the package used before sections became sparse maps.

Sections of E' and Estar here are dense lists over the flat index
g * dim + w, fibre vectors are dense lists over W, and elements of the
total space map (g, h) to a dense W-vector.  The action is the dense
mat-vec ``_act`` of one action matrix, densified from the module's columns.

The coactions on E, V_{C,pi}, E' and Estar are as the package wrote them
before one builder, ``transfer._coaction``, made all of them: each is its
own copy of the loop over f in G, E' and Estar keyed by the flat index.
``coact_E`` reads the induced matrices directly rather than through the
crossed module V_{C,pi}.
"""

from fractions import Fraction

import linalg_reference as linalg_ref
from qdouble import linalg
from qdouble.cyclotomic import ONE, ZERO, cyc
from qdouble.reps import induced_matrices


def mat_vec(a, v):
    """The dense product of a matrix and a vector."""
    return [r[0] for r in linalg.mat_mul(a, [[x] for x in v])]


def _matrix(module, h):
    """The dense matrix of h on the module, from its stored columns."""
    m = [[ZERO] * module.dim for _ in range(module.dim)]
    for j, col in enumerate(module.action[h]):
        for i, c in col:
            m[i][j] = c
    return m


def _act(module, h, vec):
    return mat_vec(_matrix(module, h), vec)


def default_embedding(ctx, pi, module):
    """Embedding V_pi -> W as v_i -> (r, i); valid when W = V_{C,pi}."""
    cols = []
    for i in range(pi.dim):
        label = (ctx.group.labels[ctx.rep], i)
        cols.append([ONE if b == label else ZERO for b in module.basis])
    return cols


def check_embedding(ctx, pi, module, embed):
    for col in embed:
        for i, c in enumerate(col):
            if c and module.grading[i] != ctx.rep:
                raise ValueError("embedding does not land in the grade-r component")
    for n_idx in ctx.centralizer.generators:
        n = ctx.centralizer.embedding[n_idx]
        for j in range(pi.dim):
            lhs = _act(module, n, embed[j])
            rhs = [ZERO] * module.dim
            for i in range(pi.dim):
                coeff = pi.matrices[n_idx][i][j]
                if coeff:
                    rhs = [x + coeff * y for x, y in zip(rhs, embed[i])]
            if any(x - y for x, y in zip(lhs, rhs)):
                raise ValueError("embedding does not intertwine the centralizer action")


def transfer_to_group_algebra(ctx, pi, module, embed=None):
    """E -> E': (c, i) -> (|C_G|/|G|) c^-1 (x) q_c |> embed(v_i)."""
    group = ctx.group
    if embed is None:
        embed = default_embedding(ctx, pi, module)
    check_embedding(ctx, pi, module, embed)
    scale = cyc(Fraction(ctx.centralizer.n, group.n))
    cols = {}
    for c in ctx.cls:
        moved = [[x * scale for x in _act(module, ctx.q[c], embed[i])] for i in range(pi.dim)]
        for i in range(pi.dim):
            col = [ZERO] * (group.n * module.dim)
            for widx, val in enumerate(moved[i]):
                if val:
                    col[group.inv[c] * module.dim + widx] = val
            cols[(c, i)] = col
    return cols


def transfer_to_functions(ctx, pi, module, embed=None):
    """E -> Estar: (c, i) -> sum_n delta_{q_c n} (x) n^-1 |> v."""
    group = ctx.group
    if embed is None:
        embed = default_embedding(ctx, pi, module)
    check_embedding(ctx, pi, module, embed)
    cols = {}
    for c in ctx.cls:
        for i in range(pi.dim):
            col = [ZERO] * (group.n * module.dim)
            for n_idx in range(ctx.centralizer.n):
                n = ctx.centralizer.embedding[n_idx]
                moved = _act(module, group.inv[n], embed[i])
                g = group.table[ctx.q[c]][n]
                for widx, val in enumerate(moved):
                    if val:
                        col[g * module.dim + widx] = col[g * module.dim + widx] + val
            cols[(c, i)] = col
    return cols


def functions_to_group_algebra(group, module):
    """The dense (|G| dim)^2 matrix of delta_g (x) w -> (1/|G|) g|w|^-1 g^-1 (x) g |> w."""
    scale = cyc(Fraction(1, group.n))
    dim = group.n * module.dim
    mat = [[ZERO] * dim for _ in range(dim)]
    for g in range(group.n):
        for widx in range(module.dim):
            target_g = group.conj(g, group.inv[module.grading[widx]])
            for out_w, val in module.action[g][widx]:
                mat[target_g * module.dim + out_w][g * module.dim + widx] = val * scale
    return mat


def factorization_check(ctx, pi, module, embed=None):
    """Direct transfer to E' equals transfer to Estar followed by the Fourier transfer."""
    direct = transfer_to_group_algebra(ctx, pi, module, embed)
    to_star = transfer_to_functions(ctx, pi, module, embed)
    bridge = functions_to_group_algebra(ctx.group, module)
    for key, col in to_star.items():
        composed = mat_vec(bridge, col)
        if any(x - y for x, y in zip(composed, direct[key])):
            return False
    return True


def projector_fixed_space(blocks, group, module):
    dim = group.n * module.dim
    rows = []
    for g, m in blocks.items():
        for i in range(module.dim):
            row = [ZERO] * dim
            for j in range(module.dim):
                row[g * module.dim + j] = m[i][j] - (ONE if i == j else ZERO)
            rows.append(row)
    for g in range(group.n):
        if g not in blocks:
            for j in range(module.dim):
                row = [ZERO] * dim
                row[g * module.dim + j] = ONE
                rows.append(row)
    return linalg_ref.nullspace(rows, dim, ONE, ZERO)


def averaging_to_group_algebra(group, module, element):
    """(delta_g h, w) -> (1/|G|) sum_k (delta_{g k^-1}, k h k^-1, k |> w) on
    elements (g, h) -> dense W-vector."""
    scale = cyc(Fraction(1, group.n))
    out = {}
    for (g, h), wvec in element.items():
        for k in range(group.n):
            key = (group.table[g][group.inv[k]], group.conj(k, h))
            moved = _act(module, k, wvec)
            acc = out.get(key)
            if acc is None:
                out[key] = [scale * x for x in moved]
            else:
                out[key] = [a + scale * x for a, x in zip(acc, moved)]
    return {k: v for k, v in out.items() if any(v)}


def averaging_to_functions(group, module, element):
    out = {}
    for (g, h), wvec in element.items():
        kept = [x if group.inv[module.grading[i]] == h else ZERO for i, x in enumerate(wvec)]
        if any(kept):
            out[(g, h)] = kept
    return out


def theta_H(ctx, module, c, wvec):
    group = ctx.group
    out = {}
    for n_idx in range(ctx.centralizer.n):
        n = ctx.centralizer.embedding[n_idx]
        moved = _act(module, n, wvec)
        for widx, val in enumerate(moved):
            if val:
                key = (group.table[ctx.q[c]][group.inv[n]], group.inv[module.grading[widx]])
                cur = out.setdefault(key, [ZERO] * module.dim)
                cur[widx] = cur[widx] + val
    return out


def theta_functions_inverse(group, module, element):
    out = [ZERO] * (group.n * module.dim)
    for (g, h), wvec in element.items():
        if g == 0:
            for widx, val in enumerate(wvec):
                if val:
                    out[h * module.dim + widx] = out[h * module.dim + widx] + val
    return out


def transfer_via_total_space(ctx, pi, module, embed=None):
    group = ctx.group
    if embed is None:
        embed = default_embedding(ctx, pi, module)
    cols = {}
    for c in ctx.cls:
        for i in range(pi.dim):
            upstairs = theta_H(ctx, module, c, embed[i])
            averaged = averaging_to_group_algebra(group, module, upstairs)
            cols[(c, i)] = theta_functions_inverse(group, module, averaged)
    return cols


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
            for out_w, val in module.action[group.inv[g]][widx]:
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
            for out_w, val in module.action[group.inv[f]][widx]:
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
