"""Fourier transforms, bundle trivialisations and section transfer maps.

Sections of the three associated bundles are handled in trivialized
coordinates throughout:

* E    on  C(G/C_G), carrier basis (c, i) for c in the class, i a fiber index,
* E'   on  the group algebra, carrier basis (g, w),
* Estar on C(G), carrier basis (g, w),

with w running over a crossed module W.  Every section is one zero-free
map, in one of three shapes:

* {(g, w): Cyc}     a section of E' or Estar,
* {w: Cyc}          a fibre vector; an embedding V_pi -> W lists pi.dim of them,
* {(g, h, w): Cyc}  an element of the total space D~(G) (x) W.

The action of G on W is read in the one form a ``CrossedModule`` stores
it, the sparse columns ``module.action[h][w]`` of h |> w.
``projector_fixed_space`` poses its nullspace over the section keys (g, w),
so its kernel vectors are sections as they come.
``fourier``, ``mass_shell_ft`` and the integrals act on functions on G,
dense lists over the group.  Coactions are stored as explicit tensors
(basis -> DoubleElement (x) basis), which turns covariance claims into
finite exact checks.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import ONE, ZERO, Cyc, cyc
from .groups import ClassContext, FiniteGroup
from .reps import Rep, group_projector
from .double import CrossedModule, DoubleElement, build_VCpi
from . import linalg
from .linalg import _accumulate, _addto, _columns


# -- Fourier -------------------------------------------------------------------


def fourier(group: FiniteGroup, vec):
    """Group algebra to functions: g -> delta_{g^-1}; it is its own inverse,
    since g <-> g^-1 is an involution."""
    out = [ZERO] * group.n
    for g, c in enumerate(vec):
        if c:
            out[group.inv[g]] = out[group.inv[g]] + c
    return out


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
    return fourier(group, fun)


# -- projector elements ---------------------------------------------------------


def projector_element(ctx: ClassContext, pi: Rep) -> DoubleElement:
    """P_{r,pi} = delta_r (x) P_pi in the double."""
    group = ctx.group
    sub = ctx.centralizer
    terms = {}
    for n_idx, coeff in group_projector(sub, pi).items():
        terms[(ctx.rep, sub.embedding[n_idx])] = coeff
    return DoubleElement(group, terms)


# -- embeddings -----------------------------------------------------------------


def _move(module: CrossedModule, h: int, vec: dict) -> dict:
    """h |> vec for a fibre vector {w: Cyc}, read column by column."""
    return _accumulate((i, a * c) for w, c in vec.items() for i, a in module.action[h][w])


def default_embedding(ctx: ClassContext, pi: Rep, module: CrossedModule):
    """Embedding V_pi -> W as v_i -> (r, i); valid when W = V_{C,pi}."""
    labels = [(ctx.group.labels[ctx.rep], i) for i in range(pi.dim)]
    return [{w: ONE for w, b in enumerate(module.basis) if b == label} for label in labels]


def check_embedding(ctx: ClassContext, pi: Rep, module: CrossedModule, embed) -> None:
    """The zero-free fibre vectors must be grade-r vectors intertwining the
    centralizer action (checked on the centralizer's generators, which suffices)."""
    for col in embed:
        if any(module.grading[w] != ctx.rep for w in col):
            raise ValueError("embedding does not land in the grade-r component")
    for n_idx in ctx.centralizer.generators:
        n = ctx.centralizer.embedding[n_idx]
        for j, col in enumerate(_columns(pi.matrices[n_idx])):
            rhs = _accumulate((w, c * y) for i, c in col for w, y in embed[i].items())
            if _move(module, n, embed[j]) != rhs:
                raise ValueError("embedding does not intertwine the centralizer action")


def _embedding(ctx: ClassContext, pi: Rep, module: CrossedModule, embed):
    """The checked embedding, the default one when embed is None."""
    embed = default_embedding(ctx, pi, module) if embed is None else embed
    check_embedding(ctx, pi, module, embed)
    return embed


# -- transfer maps ---------------------------------------------------------------


def transfer_to_group_algebra(ctx: ClassContext, pi: Rep, module: CrossedModule, embed=None):
    """Map E -> E' over the group algebra: the basis section (c, i) goes to
    (|C_G|/|G|) c^-1 (x) q_c |> embed(v_i), a section {(g, w): Cyc}."""
    group = ctx.group
    embed = _embedding(ctx, pi, module, embed)
    scale = cyc(Fraction(ctx.centralizer.n, group.n))
    return {
        (c, i): {
            (group.inv[c], w): x * scale for w, x in _move(module, ctx.q[c], embed[i]).items()
        }
        for c in ctx.cls
        for i in range(pi.dim)
    }


def transfer_to_functions(ctx: ClassContext, pi: Rep, module: CrossedModule, embed=None):
    """Map E -> Estar over the function algebra: (c,i) -> sum_n delta_{q_c n} (x) n^-1 |> v."""
    group = ctx.group
    embed = _embedding(ctx, pi, module, embed)
    return {
        (c, i): _accumulate(
            ((group.table[ctx.q[c]][n], w), x)
            for n in ctx.centralizer.embedding
            for w, x in _move(module, group.inv[n], embed[i]).items()
        )
        for c in ctx.cls
        for i in range(pi.dim)
    }


def functions_to_group_algebra(group: FiniteGroup, module: CrossedModule, section: dict) -> dict:
    """Fourier-induced transfer C(G) (x) W -> kG (x) W of one section:

    delta_g (x) w  ->  (1/|G|) g|w|^-1 g^-1 (x) g |> w.
    """
    scale = cyc(Fraction(1, group.n))
    return _accumulate(
        ((group.conj(g, group.inv[module.grading[w]]), i), a * scale * c)
        for (g, w), c in section.items()
        for i, a in module.action[g][w]
    )


def projector_cov(ctx: ClassContext, pi: Rep, module: CrossedModule):
    """Covariantized projector on C(class) (x) W, block diagonal over c."""
    base = projector_element(ctx, pi)
    return {c: module.double_matrix(base.adjoint_act(ctx.q[c])) for c in ctx.cls}


def projector_star(ctx: ClassContext, pi: Rep, module: CrossedModule):
    """Projector on C(G) (x) W: delta_g (x) zeta_r(g)^-1 P zeta_r(g) |> w."""
    group, base = ctx.group, projector_element(ctx, pi)
    return {
        g: module.double_matrix(base.adjoint_act(group.inv[ctx.factorize(g)[1]])) for g in range(group.n)
    }


def projector_fixed_space(blocks, group: FiniteGroup, module: CrossedModule):
    """Basis of the joint fixed space of a pointwise projector family
    {g: matrix}, as sections {(g, w): Cyc}: the nullspace of the rows of
    P(g) - 1, posed over the section keys (g, w)."""
    rows = []
    for g, m in blocks.items():
        for i, mi in enumerate(m):
            row = {(g, j): x for j, x in enumerate(mi) if x}
            _addto(row, (g, i), -ONE)
            rows.append(row)
    # points not covered by the family are forced to zero
    rows += [{(g, j): ONE} for g in range(group.n) if g not in blocks for j in range(module.dim)]
    return linalg.nullspace(rows, [(g, w) for g in range(group.n) for w in range(module.dim)], ONE)


# -- averaging on the total space -------------------------------------------------


def averaging_to_group_algebra(group: FiniteGroup, module: CrossedModule, element: dict) -> dict:
    """av on D~(G) (x) W: (delta_g h, w) -> (1/|G|) sum_k (delta_{g k^-1}, k h k^-1, k |> w),
    on elements {(g, h, w): Cyc}."""
    scale = cyc(Fraction(1, group.n))
    return _accumulate(
        ((group.table[g][group.inv[k]], group.conj(k, h), i), scale * (a * c))
        for (g, h, w), c in element.items()
        for k in range(group.n)
        for i, a in module.action[k][w]
    )


def averaging_to_functions(group: FiniteGroup, module: CrossedModule, element: dict) -> dict:
    """av onto the C(G)-invariants: keeps the components with h = |w|^-1."""
    return {
        (g, h, w): c
        for (g, h, w), c in element.items()
        if group.inv[module.grading[w]] == h
    }


def theta_H(ctx: ClassContext, module: CrossedModule, c: int, wvec: dict) -> dict:
    """Trivialisation of E^W into the total space, {(g, h, w): Cyc}."""
    group = ctx.group
    return _accumulate(
        ((group.table[ctx.q[c]][group.inv[n]], group.inv[module.grading[w]], w), x)
        for n in ctx.centralizer.embedding
        for w, x in _move(module, n, wvec).items()
    )


def theta_functions_inverse(element: dict) -> dict:
    """Inverse trivialisation of E' from the total space (reads the delta_e slot)."""
    return {(h, w): x for (g, h, w), x in element.items() if g == 0}


def transfer_via_total_space(ctx: ClassContext, pi: Rep, module: CrossedModule, embed=None):
    """E -> E' computed upstairs: theta, average, read off the trivialisation."""
    group = ctx.group
    embed = _embedding(ctx, pi, module, embed)
    return {
        (c, i): theta_functions_inverse(
            averaging_to_group_algebra(group, module, theta_H(ctx, module, c, embed[i]))
        )
        for c in ctx.cls
        for i in range(pi.dim)
    }


def factorization_check(ctx: ClassContext, pi: Rep, module: CrossedModule, embed=None) -> bool:
    """Direct transfer to E' equals transfer to Estar followed by Fourier transfer."""
    direct = transfer_to_group_algebra(ctx, pi, module, embed)
    to_star = transfer_to_functions(ctx, pi, module, embed)
    return all(
        functions_to_group_algebra(ctx.group, module, col) == direct[key]
        for key, col in to_star.items()
    )


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
        lambda w, f: module.action[group.inv[f]][w],
    )


def coact_E(ctx: ClassContext, pi: Rep):
    """Left coaction on E, basis keys (c, i): the V_{C,pi} coaction read through
    (c, i) <-> c (x) v_i; the coefficient of (f^-1 c f, k) is pi(zeta_c(f^-1))^k_i."""
    keys = [(c, i) for c in ctx.cls for i in range(pi.dim)]
    index = {key: w for w, key in enumerate(keys)}
    on_module = coact_VCpi(build_VCpi(ctx, pi))
    return lambda key: [(pair, keys[w], coeff) for pair, w, coeff in on_module(index[key])]


def coact_Eprime(module: CrossedModule):
    """Left coaction on E' = kG (x) W, basis keys (g, w)."""
    group = module.group

    def mid(key, f):
        return group.conj(group.inv[f], key[0])

    return _coaction(group, mid, lambda key, f: [
        ((mid(key, f), w), v) for w, v in module.action[group.inv[f]][key[1]]
    ])


def coact_Estar(module: CrossedModule):
    """Left coaction on Estar = C(G) (x) W, basis keys (g, w)."""
    group = module.group

    def mid(key, f):
        g, w = key
        return group.conj(group.inv[f], group.word(g, group.inv[module.grading[w]], group.inv[g]))

    return _coaction(group, mid, lambda key, f: [((group.table[group.inv[f]][key[0]], key[1]), ONE)])


def coaction_equivariance(map_cols, coact_in, coact_out) -> bool:
    """(id (x) map) after Delta_in equals Delta_out after map, basis by basis.

    map_cols: dict source-key -> zero-free section {output-key: coeff};
    coact_in yields (double-basis, source-key, coeff) triples, coact_out
    yields (double-basis, output-key, coeff) triples.
    """
    for key, col in map_cols.items():
        lhs = _accumulate(
            ((pair, out), coeff * val)
            for pair, mid_key, coeff in coact_in(key)
            for out, val in map_cols[mid_key].items()
        )
        rhs = _accumulate(
            ((pair, out_key), val * coeff)
            for out, val in col.items()
            for pair, out_key, coeff in coact_out(out)
        )
        if lhs != rhs:
            return False
    return True
