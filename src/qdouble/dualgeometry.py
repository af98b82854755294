"""The mirror picture on the function algebra: Peter-Weyl covariant
operators, bicovariant inner products weighted per class, the constraint
system linking operator eigenvalues to edge weights, and the free-field
characterisation of the irreducible crossed modules.

Characters here are always normalized (trace over dimension); the
constraint sums only balance under that reading.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .cyclotomic import ONE, ZERO, cyc
from .groups import ClassContext, ConfigError, FiniteGroup
from .reps import Rep, irrep_catalog
from .poly import Poly, dot
from .linalg import _addto

if TYPE_CHECKING:
    from .double import CrossedModule


def dual_operator(group: FiniteGroup, eigenvalues: dict):
    """Matrix of L* on the delta basis from per-irrep eigenvalues.

    L*(delta_h) = sum_rho (dim/|G|) lambda*_rho sum_f Tr_rho(h^-1 f) delta_f.
    """
    irreps = irrep_catalog(group)
    lam = {}
    for r in irreps:
        v = eigenvalues[r.name]
        lam[r.name] = v if isinstance(v, Poly) else Poly.constant(v)
    n = group.n
    scale = {rho.name: cyc(Fraction(rho.dim, n)) for rho in irreps}
    return [
        [
            dot((lam[r.name], r.trace(group.table[group.inv[h]][f]) * scale[r.name]) for r in irreps)
            for h in range(n)
        ]
        for f in range(n)
    ]


def peter_weyl_blocks(group: FiniteGroup, g: int):
    """Per-irrep components of delta_g: dict name -> function vector."""
    out = {}
    for rho in irrep_catalog(group):
        scale = cyc(Fraction(rho.dim, group.n))
        vec = [ZERO] * group.n
        for h in range(group.n):
            vec[h] = rho.trace(group.table[group.inv[g]][h]) * scale
        out[rho.name] = vec
    return out


def is_bicovariant_operator(group: FiniteGroup, matrix) -> bool:
    """Bicomodule map for the coregular coactions: commutes with both
    translation actions of the group on functions, checked on generators."""
    n = group.n
    for h in group.generators:
        # left translation L_h: delta_g -> delta_{hg}; right: delta_g -> delta_{gh}
        for (move, name) in ((lambda g: group.table[h][g], "L"), (lambda g: group.table[g][h], "R")):
            for g in range(n):
                for f in range(n):
                    if matrix[move(f)][move(g)] != matrix[f][g]:
                        return False
    return True


class DualInnerProduct:
    """Bicovariant bimodule inner product data on a function-algebra calculus."""

    def __init__(self, group: FiniteGroup, subset, weights: dict, variables=()):
        self.group = group
        self.subset = sorted(subset)
        self.vars = tuple(variables)
        self.bidirectional = [c for cls_ in _bidirectional(group, self.subset) for c in cls_]
        self.weights = {
            c0: value if isinstance(value, Poly) else Poly.constant(value, self.vars)
            for c0, value in group.per_class(weights, "weights").items()
        }

    def pair(self, c: int, d: int):
        """(e_c, e_d) = [d = c^-1] l*_{[c]} on the bidirectional part."""
        zero = Poly.constant(0, self.vars)
        if c not in self.bidirectional or d != self.group.inv[c]:
            return zero
        return self.weights[self.group.class_of(c)[0]]

    def star_compatible(self) -> bool:
        """Needs a fully bidirectional subset and real weights."""
        if set(self.bidirectional) != set(self.subset):
            return False
        return all(w.conj() == w for w in self.weights.values())


def _bidirectional(group: FiniteGroup, subset) -> list[list[int]]:
    """The classes of ``subset``, a union of non-identity conjugacy classes,
    whose inverse class is in it too, in class order."""
    members = set(subset)
    for c in subset:
        if not members.issuperset(group.class_of(c)):
            raise ConfigError("subset must be a union of conjugacy classes")
        if c == 0:
            raise ConfigError("the identity cannot appear in the subset")
    return [cls_ for cls_ in group.conjugacy_classes() if cls_[0] in members and group.inv[cls_[0]] in members]


def dual_constraints(group: FiniteGroup, subset, weight_vars: dict, lambda_vars: dict):
    """Constraint polynomials and the closed form for the eigenvalues.

    Returns (constraints, lambda_formula) where constraints must vanish and
    lambda_formula maps irrep name to
    2 sum_C l*_C (1 - chi_rho(C)) |C| over bidirectional classes.
    """
    irreps = irrep_catalog(group)
    bidirectional = _bidirectional(group, sorted(group.element(s) if isinstance(s, str) else s for s in subset))
    variables = tuple(dict.fromkeys(list(weight_vars.values()) + list(lambda_vars.values())))
    lam = {
        rho.name: Poly.variable(lambda_vars[rho.name], variables)
        if lambda_vars[rho.name] is not None
        else Poly.constant(0, variables)
        for rho in irreps
    }
    weights = {
        cls_[0]: Poly.variable(weight_vars[cls_[0]], variables) for cls_ in bidirectional
    }
    norm_chi = {rho.name: rho.normalized_character() for rho in irreps}
    class_index = {tuple(cls_): k for k, cls_ in enumerate(group.conjugacy_classes())}

    def chi(rho, cls_):
        return norm_chi[rho.name][class_index[tuple(cls_)]]

    mass = {rho.name: cyc(Fraction(rho.dim * rho.dim, group.n)) for rho in irreps}  # dim^2 / |G|
    constraints = []
    # classes not in the bidirectional part (and not the identity class)
    for cls_ in group.conjugacy_classes():
        if cls_[0] == 0 or cls_ in bidirectional:
            continue
        constraints.append(dot(((lam[r.name], chi(r, cls_) * mass[r.name]) for r in irreps), variables))
    # the balancing sum over the bidirectional part
    balance = (
        (lam[r.name], mass[r.name] * (cyc(1) + chi(r, cls_) * cyc(len(cls_))))
        for cls_ in bidirectional
        for r in irreps
    )
    constraints.append(dot(balance, variables))
    # weight formulas l*_C = -(1/2) sum_rho (dim^2/|G|) lambda*_rho chi_rho(C)*
    for cls_ in bidirectional:
        terms = (
            (lam[r.name], chi(r, cls_).conj() * cyc(Fraction(-r.dim * r.dim, 2 * group.n))) for r in irreps
        )
        constraints.append(weights[cls_[0]] - dot(terms, variables))
    closed_form = {
        r.name: dot(((weights[c[0]], (cyc(1) - chi(r, c)) * cyc(2 * len(c))) for c in bidirectional), variables)
        for r in irreps
    }
    return constraints, closed_form


def second_order_check(group: FiniteGroup, matrix, dip: DualInnerProduct) -> bool:
    """Second-order Leibniz rule for L* against the dual inner product,
    checked directly on products of delta functions."""
    n = group.n
    for g in range(n):
        for h in range(n):
            # (d delta_g, d delta_h) from the edge-weight pairing
            pairing = {}
            for c in dip.subset:
                d = group.inv[c]
                if d not in dip.subset:
                    continue
                w = dip.pair(c, d)
                if not w:
                    continue
                # (R_c - id)(delta_g) (e_c, (R_d - id)(delta_h) e_d) collapses to
                # w * (delta_{gc^-1} - delta_g)(R_c applied to (delta_{hd^-1} - delta_h))
                for f in range(n):
                    a = (ONE if group.table[f][c] == g else ZERO) - (ONE if f == g else ZERO)
                    if not a:
                        continue
                    b = (ONE if group.table[group.table[f][c]][d] == h else ZERO) - (
                        ONE if group.table[f][c] == h else ZERO
                    )
                    if not b:
                        continue
                    _addto(pairing, f, w * (a * b))
            # box(delta_g delta_h) = box(delta_g)delta_h + delta_g box(delta_h) + 2(d,d)
            for f in range(n):
                left = matrix[f][g] if g == h else _zero_like(matrix[f][g])
                mid = (matrix[f][g] if f == h else _zero_like(matrix[f][g])) + (
                    matrix[f][h] if f == g else _zero_like(matrix[f][h])
                )
                rhs = mid + (pairing.get(f, _zero_like(matrix[f][g])) * 2)
                if left != rhs:
                    return False
    return True


def _zero_like(value):
    return value - value


def freefield_solutions(
    ctx: ClassContext,
    pi: Rep,
    module: CrossedModule,
    eigenvalues: dict,
):
    """Joint kernel of the wave constraint and the covariant projector, as
    a basis of sections {(g, w): Cyc} of E'.

    eigenvalues: regular real spectrum, one key per class (zero on the identity,
    equal on inverse classes, otherwise distinct).  Solutions live in the
    eigenspace of the class-inverse eigenvalue; the projector transports
    the base-point projector along the section of the inverse element, so
    the fixed space reproduces the transfer image.
    """
    # imported here so that the dual report, which never calls this, does not load transfer
    from .transfer import projector_element, projector_fixed_space

    group = ctx.group
    values = group.class_function({k: cyc(v) for k, v in eigenvalues.items()}, "eigenvalues")
    if any(values[g] != values[group.inv[g]] for g in range(group.n)):
        raise ValueError("spectrum must agree on inverse classes")
    if values[0]:
        raise ValueError("the identity class must have eigenvalue zero")
    classes = group.conjugacy_classes()
    if len({values[c[0]] for c in classes}) != len({min(c[0], group.class_inverse(c)[0]) for c in classes}):
        raise ValueError("spectrum is not regular (eigenvalue collision)")
    target = values[group.inv[ctx.rep]]
    # eigenspace membership: group elements g with lambda_{class(g)} = target
    allowed = [g for g in range(group.n) if values[g] == target]
    base, blocks = projector_element(ctx, pi), {}
    for g in allowed:
        ginv = group.inv[g]
        if ginv in ctx.cls:
            conjugator = ctx.q[ginv]
        else:
            # transport along the class context of the inverse element
            other = ClassContext(group, group.class_of(ginv)[0])
            conjugator = other.q[ginv]
        blocks[g] = module.double_matrix(base.adjoint_act(conjugator))
    return projector_fixed_space(blocks, group, module)
