"""The character table of D(G) on commuting pairs and the decomposition it
gives, against the dense route it replaced: the exact rank of each label's
block idempotent on the module, divided by |C| dim pi."""

from fractions import Fraction

import pytest

import qdouble.double
import qdouble.linalg as la
from qdouble.cyclotomic import cyc
from qdouble.double import (
    CrossedModule,
    _inner,
    adjoint_structure,
    block_idempotent,
    build_VCpi,
    decompose_DG_module,
    double_characters,
    double_irreps,
    regular_crossed_module,
)
from qdouble.groups import FiniteGroup


def _dihedral_8():
    return FiniteGroup.from_generators([[[1, 2, 3, 4]], [[1, 3]]], degree=4)


GROUPS = {
    "S3": FiniteGroup.s3_with_uvw_labels,
    "S4": lambda: FiniteGroup.symmetric(4),
    "D8": _dihedral_8,
    **{f"C{n}": (lambda n=n: FiniteGroup.cyclic(n)) for n in range(1, 7)},
}


def reference_decompose(module) -> dict:
    """Multiplicity of each V_{C,pi} as the dense exact rank of its block
    idempotent on the module over |C| dim pi."""
    group = module.group
    out = {}
    for ctx, pi in double_irreps(group):
        r = la.rank(module.double_matrix(block_idempotent(ctx, pi)))
        mult, rest = divmod(r, len(ctx.cls) * pi.dim)
        assert not rest
        if mult:
            out[(group.labels[ctx.rep], pi.name)] = mult
    return out


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_table_is_orthonormal(name):
    group = GROUPS[name]()
    table = double_characters(group)
    assert len(table) == len(double_irreps(group))
    chis = list(table.values())
    for i, a in enumerate(chis):
        assert all(a.values()), "the maps are zero-free"
        for j, b in enumerate(chis):
            assert _inner(a, b, group.n) == cyc(int(i == j))


@pytest.mark.parametrize("name", ["S3", "D8", "S4"])
def test_table_of_an_irreducible_is_its_module_character(name):
    group = GROUPS[name]()
    table = double_characters(group)
    for ctx, pi in double_irreps(group):
        assert build_VCpi(ctx, pi).character() == table[(group.labels[ctx.rep], pi.name)]


def _adjoint_module(group):
    return CrossedModule(group, *adjoint_structure(group))


@pytest.mark.parametrize("name", ["S3", "C4", "D8"])
@pytest.mark.parametrize("build", [regular_crossed_module, _adjoint_module], ids=["regular", "adjoint"])
def test_multiplicities_match_the_dense_reference(name, build):
    module = build(GROUPS[name]())
    assert decompose_DG_module(module) == reference_decompose(module)


def test_direct_sum_of_s4_blocks_matches_the_dense_reference():
    s4 = FiniteGroup.symmetric(4)
    labels = double_irreps(s4)
    a, b, c = (build_VCpi(*labels[k]) for k in (2, 7, 20))
    module = a.direct_sum(b).direct_sum(a).direct_sum(c)
    dec = decompose_DG_module(module)
    assert dec == reference_decompose(module)
    assert sorted(dec.values()) == [1, 1, 2]


def test_s4_regular_module_has_the_closed_form_multiplicities():
    s4 = FiniteGroup.symmetric(4)
    module = regular_crossed_module(s4)
    assert module.dim == 576
    assert decompose_DG_module(module) == {
        (s4.labels[ctx.rep], pi.name): len(ctx.cls) * pi.dim for ctx, pi in double_irreps(s4)
    }


def test_dropped_label_breaks_the_dimension_sum(monkeypatch):
    s3 = FiniteGroup.s3_with_uvw_labels()
    table = double_characters(s3)
    del table[("uv", "chi(1,)")]
    monkeypatch.setattr(qdouble.double, "double_characters", lambda group: table)
    with pytest.raises(ValueError, match="incomplete catalogue"):
        decompose_DG_module(regular_crossed_module(s3))


@pytest.mark.parametrize("scale", [Fraction(1, 2), -3], ids=["fractional", "negative"])
def test_scaled_character_value_breaks_integrality(monkeypatch, scale):
    """The label's multiplicity in the regular module, sum_g chi(g, e) = 2,
    becomes 3/2 or -2."""
    s3 = FiniteGroup.s3_with_uvw_labels()
    table = double_characters(s3)
    chi = table[("uv", "chi(1,)")]
    uv = s3.element("uv")
    assert chi[(uv, 0)] == cyc(1)
    chi[(uv, 0)] = cyc(scale)
    monkeypatch.setattr(qdouble.double, "double_characters", lambda group: table)
    with pytest.raises(RuntimeError, match="not a non-negative integer"):
        decompose_DG_module(regular_crossed_module(s3))


class _ScaledTrace:
    """pi with its trace at one centralizer element multiplied by scale."""

    def __init__(self, pi, at, scale):
        self.pi, self.at, self.scale, self.name = pi, at, scale, pi.name

    def trace(self, k):
        value = self.pi.trace(k)
        return value * cyc(self.scale) if k == self.at else value


def test_scaled_character_value_breaks_orthonormality(monkeypatch):
    s3 = FiniteGroup.s3_with_uvw_labels()
    labels = double_irreps(s3)
    ctx, pi = labels[-1]
    k = next(k for k in range(1, ctx.centralizer.n) if pi.trace(k))
    labels[-1] = (ctx, _ScaledTrace(pi, k, 2))
    monkeypatch.setattr(qdouble.double, "double_irreps", lambda group: labels)
    with pytest.raises(RuntimeError, match="not orthonormal"):
        double_characters(s3)
