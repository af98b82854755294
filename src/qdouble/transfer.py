"""Fourier transforms, bundle trivialisations and section transfer maps.

Sections of the three associated bundles are handled in trivialized
coordinates throughout:

* E    on  C(G/C_G), carrier basis (c, i) for c in the class, i a fiber index,
* E'   on  the group algebra, carrier basis (g, w),
* Estar on C(G), carrier basis (g, w),

with w running over a crossed module W.  Coactions are stored as explicit
tensors (basis -> DoubleElement (x) basis), which turns covariance claims
into finite exact checks.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import ONE, ZERO, Cyc, cyc
from .groups import ClassContext, FiniteGroup
from .reps import Rep, group_projector
from .double import CrossedModule, DoubleElement, build_VCpi
from . import linalg
from .linalg import _addto


# -- Fourier -------------------------------------------------------------------


def fourier(group: FiniteGroup, vec):
    """Group algebra to functions: g -> delta_{g^-1}."""
    out = [ZERO] * group.n
    for g, c in enumerate(vec):
        if c:
            out[group.inv[g]] = out[group.inv[g]] + c
    return out


# delta_g -> g^-1 back to the group algebra: the map g <-> g^-1 is an involution
fourier_inv = fourier


def integral_group_algebra(group: FiniteGroup, vec) -> Cyc:
    """Normalised translation-invariant integral: g -> [g = e]."""
    return vec[0]


def integral_functions(group: FiniteGroup, fun) -> Cyc:
    total = ZERO
    for c in fun:
        total = total + c
    return total * cyc(Fraction(1, group.n))


def mass_shell_ft(ctx: ClassContext, f: dict) -> list:
    """Extend a function on the class by zero and apply the inverse transform."""
    group = ctx.group
    fun = [ZERO] * group.n
    for c, value in f.items():
        if c not in ctx.cls:
            raise ValueError("function support must lie in the class")
        fun[c] = cyc(value) if not isinstance(value, Cyc) else value
    return fourier_inv(group, fun)


# -- projector elements ---------------------------------------------------------


def projector_element(ctx: ClassContext, pi: Rep) -> DoubleElement:
    """P_{r,pi} = delta_r (x) P_pi in the double."""
    group = ctx.group
    sub = ctx.centralizer
    terms = {}
    for n_idx, coeff in group_projector(sub, pi).items():
        terms[(ctx.rep, sub.embedding[n_idx])] = coeff
    return DoubleElement(group, terms)


def conjugated_projector(ctx: ClassContext, pi: Rep, g: int) -> DoubleElement:
    """g P_{r,pi} g^-1 for a group element g."""
    group = ctx.group
    base = projector_element(ctx, pi)
    return DoubleElement(
        group,
        {(group.conj(g, a), group.conj(g, h)): c for (a, h), c in base.terms.items()},
    )


# -- embeddings -----------------------------------------------------------------


def default_embedding(ctx: ClassContext, pi: Rep, module: CrossedModule):
    """Embedding V_pi -> W as v_i -> (r, i); valid when W = V_{C,pi}."""
    cols = []
    for i in range(pi.dim):
        label = (ctx.group.labels[ctx.rep], i)
        vec = [ONE if b == label else ZERO for b in module.basis]
        cols.append(vec)
    return cols


def check_embedding(ctx: ClassContext, pi: Rep, module: CrossedModule, embed) -> None:
    """The columns must be grade-r vectors intertwining the centralizer action
    (checked on the centralizer's generators, which suffices)."""
    for col in embed:
        for i, c in enumerate(col):
            if c and module.grading[i] != ctx.rep:
                raise ValueError("embedding does not land in the grade-r component")
    for n_idx in ctx.centralizer.generators:
        n = ctx.centralizer.embedding[n_idx]
        for j in range(pi.dim):
            lhs = module.act(n, embed[j])
            rhs = [ZERO] * module.dim
            for i in range(pi.dim):
                coeff = pi.matrices[n_idx][i][j]
                if coeff:
                    rhs = [x + coeff * y for x, y in zip(rhs, embed[i])]
            if any(x - y for x, y in zip(lhs, rhs)):
                raise ValueError("embedding does not intertwine the centralizer action")


# -- transfer maps ---------------------------------------------------------------


def transfer_to_group_algebra(ctx: ClassContext, pi: Rep, module: CrossedModule, embed=None):
    """Map E -> E' over the group algebra.

    Sends the basis section (c, i) to (|C_G|/|G|) c^-1 (x) q_c |> embed(v_i);
    output columns are vectors over the basis (g, w) of kG (x) W.
    """
    group = ctx.group
    if embed is None:
        embed = default_embedding(ctx, pi, module)
    check_embedding(ctx, pi, module, embed)
    scale = cyc(Fraction(ctx.centralizer.n, group.n))
    cols = {}
    for k, c in enumerate(ctx.cls):
        moved = [
            [x * scale for x in module.act(ctx.q[c], embed[i])] for i in range(pi.dim)
        ]
        for i in range(pi.dim):
            col = [ZERO] * (group.n * module.dim)
            for widx, val in enumerate(moved[i]):
                if val:
                    col[group.inv[c] * module.dim + widx] = val
            cols[(c, i)] = col
    return cols


def transfer_to_functions(ctx: ClassContext, pi: Rep, module: CrossedModule, embed=None):
    """Map E -> Estar over the function algebra: (c,i) -> sum_n delta_{q_c n} (x) n^-1 |> v."""
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
                moved = module.act(group.inv[n], embed[i])
                g = group.table[ctx.q[c]][n]
                for widx, val in enumerate(moved):
                    if val:
                        col[g * module.dim + widx] = col[g * module.dim + widx] + val
            cols[(c, i)] = col
    return cols


def functions_to_group_algebra(group: FiniteGroup, module: CrossedModule):
    """Fourier-induced transfer C(G) (x) W -> kG (x) W.

    delta_g (x) w  ->  (1/|G|) g|w|^-1 g^-1 (x) g |> w.
    """
    scale = cyc(Fraction(1, group.n))
    dim = group.n * module.dim
    mat = [[ZERO] * dim for _ in range(dim)]
    for g in range(group.n):
        for widx in range(module.dim):
            target_g = group.conj(g, group.inv[module.grading[widx]])
            for out_w, val in module.column(g, widx):
                mat[target_g * module.dim + out_w][g * module.dim + widx] = val * scale
    return mat


def projector_cov(ctx: ClassContext, pi: Rep, module: CrossedModule):
    """Covariantized projector on C(class) (x) W, block diagonal over c."""
    return {c: module.double_matrix(conjugated_projector(ctx, pi, ctx.q[c])) for c in ctx.cls}


def projector_star(ctx: ClassContext, pi: Rep, module: CrossedModule):
    """Projector on C(G) (x) W: delta_g (x) zeta_r(g)^-1 P zeta_r(g) |> w."""
    group = ctx.group
    return {
        g: module.double_matrix(conjugated_projector(ctx, pi, group.inv[ctx.factorize(g)[1]]))
        for g in range(group.n)
    }


def projector_fixed_space(blocks, group: FiniteGroup, module: CrossedModule, points=None):
    """Basis of the joint fixed space of a pointwise projector family."""
    points = list(blocks) if points is None else points
    dim = group.n * module.dim
    rows = []
    for g in points:
        m = blocks[g]
        for i in range(module.dim):
            row = [ZERO] * dim
            for j in range(module.dim):
                row[g * module.dim + j] = m[i][j] - (ONE if i == j else ZERO)
            rows.append(row)
    # points not covered by the family are forced to zero
    for g in range(group.n):
        if g not in blocks:
            for j in range(module.dim):
                row = [ZERO] * dim
                row[g * module.dim + j] = ONE
                rows.append(row)
    return linalg.nullspace(rows, dim, ONE, ZERO)


# -- averaging on the total space -------------------------------------------------


def averaging_to_group_algebra(group: FiniteGroup, module: CrossedModule, element):
    """av on D~(G) (x) W: (delta_g h, w) -> (1/|G|) sum_k (delta_{g k^-1}, k h k^-1, k |> w).

    element and result are dicts (g, h) -> W-vector.
    """
    scale = cyc(Fraction(1, group.n))
    out: dict[tuple[int, int], list] = {}
    for (g, h), wvec in element.items():
        for k in range(group.n):
            key = (group.table[g][group.inv[k]], group.conj(k, h))
            moved = module.act(k, wvec)
            acc = out.get(key)
            if acc is None:
                out[key] = [scale * x for x in moved]
            else:
                out[key] = [a + scale * x for a, x in zip(acc, moved)]
    return {k: v for k, v in out.items() if any(v)}


def averaging_to_functions(group: FiniteGroup, module: CrossedModule, element):
    """av onto the C(G)-invariants: keeps components with h = |w|^-1."""
    out = {}
    for (g, h), wvec in element.items():
        kept = [
            x if group.inv[module.grading[i]] == h else ZERO for i, x in enumerate(wvec)
        ]
        if any(kept):
            out[(g, h)] = kept
    return out


def theta_H(ctx: ClassContext, module: CrossedModule, c: int, wvec):
    """Trivialisation of E^W into the total space: dict (g,h) -> W-vector."""
    group = ctx.group
    out: dict[tuple[int, int], list] = {}
    for n_idx in range(ctx.centralizer.n):
        n = ctx.centralizer.embedding[n_idx]
        moved = module.act(n, wvec)
        for widx, val in enumerate(moved):
            if val:
                key = (group.table[ctx.q[c]][group.inv[n]], group.inv[module.grading[widx]])
                cur = out.setdefault(key, [ZERO] * module.dim)
                cur[widx] = cur[widx] + val
    return out


def theta_functions_inverse(group: FiniteGroup, module: CrossedModule, element):
    """Inverse trivialisation of E' from the total space (reads the delta_e slot)."""
    out = [ZERO] * (group.n * module.dim)
    for (g, h), wvec in element.items():
        if g == 0:
            for widx, val in enumerate(wvec):
                if val:
                    out[h * module.dim + widx] = out[h * module.dim + widx] + val
    return out


def transfer_via_total_space(ctx: ClassContext, pi: Rep, module: CrossedModule, embed=None):
    """E -> E' computed upstairs: theta, average, read off the trivialisation."""
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


def factorization_check(ctx: ClassContext, pi: Rep, module: CrossedModule, embed=None) -> bool:
    """Direct transfer to E' equals transfer to Estar followed by Fourier transfer."""
    direct = transfer_to_group_algebra(ctx, pi, module, embed)
    to_star = transfer_to_functions(ctx, pi, module, embed)
    bridge = functions_to_group_algebra(ctx.group, module)
    for key, col in to_star.items():
        composed = linalg.mat_vec(bridge, col)
        if any(x - y for x, y in zip(composed, direct[key])):
            return False
    return True


# -- coactions as explicit tensors -------------------------------------------------


def _coaction(group: FiniteGroup, mid, move):
    """The left coaction key -> sum_f delta_f (x) mid(key, f) (x) move(key, f), where
    move lists the (key', coeff) of the fibre moved by one column of a G-action."""
    return lambda key: [
        ((f, mid(key, f)), out, coeff) for f in range(group.n) for out, coeff in move(key, f)
    ]


def coact_VCpi(module: CrossedModule):
    """Left coaction of a crossed module: sum_g delta_g (x) g^-1|w|^-1 g (x) g^-1 |> w."""
    group = module.group
    return _coaction(
        group,
        lambda w, f: group.conj(group.inv[f], group.inv[module.grading[w]]),
        lambda w, f: module.column(group.inv[f], w),
    )


def coact_E(ctx: ClassContext, pi: Rep):
    """Left coaction on E, basis keys (c, i): the V_{C,pi} coaction read through
    (c, i) <-> c (x) v_i; the coefficient of (f^-1 c f, k) is pi(zeta_c(f^-1))^k_i."""
    keys = [(c, i) for c in ctx.cls for i in range(pi.dim)]
    index = {key: w for w, key in enumerate(keys)}
    on_module = coact_VCpi(build_VCpi(ctx, pi))
    return lambda key: [(pair, keys[w], coeff) for pair, w, coeff in on_module(index[key])]


def coact_Eprime(module: CrossedModule):
    """Left coaction on E' = kG (x) W; flat basis index g*dim + w."""
    group, dim = module.group, module.dim

    def mid(i, f):
        return group.conj(group.inv[f], i // dim)

    return _coaction(group, mid, lambda i, f: [
        (mid(i, f) * dim + w, v) for w, v in module.column(group.inv[f], i % dim)
    ])


def coact_Estar(module: CrossedModule):
    """Left coaction on Estar = C(G) (x) W; flat basis index g*dim + w."""
    group, dim = module.group, module.dim

    def mid(i, f):
        g, w = divmod(i, dim)
        return group.conj(group.inv[f], group.word(g, group.inv[module.grading[w]], group.inv[g]))

    return _coaction(group, mid, lambda i, f: [
        (group.table[group.inv[f]][i // dim] * dim + i % dim, ONE)
    ])


def coaction_equivariance(map_cols, coact_in, coact_out) -> bool:
    """(id (x) map) after Delta_in equals Delta_out after map, basis by basis.

    map_cols: dict source-key -> output vector over a flat output basis;
    coact_in yields (double-basis, source-key, coeff) triples, coact_out
    yields (double-basis, flat-output-index, coeff) triples.
    """
    for key, col in map_cols.items():
        lhs: dict = {}
        for pair, mid_key, coeff in coact_in(key):
            mid_col = map_cols[mid_key]
            for out_idx, val in enumerate(mid_col):
                if val:
                    _addto(lhs, (pair, out_idx), coeff * val)
        rhs: dict = {}
        for out_idx, val in enumerate(col):
            if val:
                for pair, out_key, coeff in coact_out(out_idx):
                    _addto(rhs, (pair, out_key), val * coeff)
        if lhs != rhs:
            return False
    return True
