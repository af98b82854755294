from fractions import Fraction
from itertools import product

import pytest

from qdouble.cyclotomic import cyc
from qdouble.reps import centralizer_character
from qdouble.double import DoubleElement
from qdouble.braided import (
    lie_cpi,
    lie_bdg,
    lie_direct_sum,
    psit_via_rmatrix,
    BlockRMatrices,
    envelope,
    frt,
    covering_map_image,
    inclusion_element,
    killing_form,
    killing_trace_oracle,
    quotient_hopf,
    braided_antipode_preserves_relations,
    bdg_braided_checks,
)
from qdouble.regression import S3Data
import qdouble.linalg as la

ZERO, ONE = cyc(0), cyc(1)


@pytest.fixture(scope="module")
def data():
    return S3Data.get()


def test_printed_fundamental_braiding_case_ii(data):
    q = data.q
    for j in (0, 1, 2):
        lie = lie_cpi(data.ctx2, data.pi[j])
        for a in data.ctx2.cls:
            for b in data.ctx2.cls:
                for c in data.ctx2.cls:
                    for dd in data.ctx2.cls:
                        i1 = lie.index_of(0, a, 0, b, 0)
                        i2 = lie.index_of(0, c, 0, dd, 0)
                        coeff = q ** (j * ((a == c) + (b == c) - (a == dd) - (b == dd)))
                        assert lie.psit(i1, i2) == {(i2, i1): coeff}


def test_bracket_simplification_c_equals_d(data):
    G = data.G
    for ctx in (data.ctx2, data.ctx3):
        lie = lie_cpi(ctx, centralizer_character(ctx, 1))
        for a in ctx.cls:
            for b in ctx.cls:
                for c in ctx.cls:
                    got = lie.bracket(lie.index_of(0, a, 0, b, 0), lie.index_of(0, c, 0, c, 0))
                    if a == b:
                        tgt = G.conj(G.inv[b], c)
                        assert got == {lie.index_of(0, tgt, 0, tgt, 0): ONE}
                    else:
                        assert got == {}


def test_point_class_is_trivial_braided_algebra(data):
    from qdouble.double import centralizer_irreps

    two = [p for p in centralizer_irreps(data.ctx1) if p.dim == 2][0]
    lie = lie_cpi(data.ctx1, two)
    # flip braiding and bracket [E_i^j, E_k^l] = delta_i^j E_k^l
    for i1 in range(lie.dim):
        for i2 in range(lie.dim):
            assert lie.psit(i1, i2) == {(i2, i1): ONE}
            (_, a, i, b, j) = lie.basis[i1]
            expected = {i2: ONE} if i == j else {}
            assert lie.bracket(i1, i2) == expected


def test_axioms_all_s3_blocks(data):
    from qdouble.double import centralizer_irreps

    for ctx in (data.ctx1, data.ctx2, data.ctx3):
        for pi in centralizer_irreps(ctx):
            if ctx.rep == 0 and pi.dim == 1 and all(m[0][0] == ONE for m in pi.matrices):
                continue
            lie = lie_cpi(ctx, pi)
            assert lie.check_L1()
            assert lie.check_L2()
            assert lie.check_L3()
            assert lie.check_L4()
            assert lie.check_braid_relation()
            assert lie.is_regular()


def test_axiom_negative_control(data):
    lie = lie_cpi(data.ctx2, data.pi[1])
    # corrupt one bracket value
    key = next(k for k in ((i, j) for i in range(4) for j in range(4)) if lie.bracket(*k))
    lie._bracket_cache[key] = {k: v * cyc(2) for k, v in lie.bracket(*key).items()}
    lie._psit_cache.clear()
    assert not (lie.check_L1() and lie.check_L2() and lie.check_L3())
    assert not all(lie.axioms().values())


@pytest.mark.parametrize("block", ["case_ii_3_cycle", "point_class_two_dim"])
def test_regularity_negative_control(data, block):
    """Two basis pairs sent to the same target make the braiding singular."""
    from qdouble.double import centralizer_irreps

    if block == "case_ii_3_cycle":
        lie = lie_cpi(data.ctx2, data.pi[1])
    else:
        lie = lie_cpi(data.ctx1, next(p for p in centralizer_irreps(data.ctx1) if p.dim == 2))
    assert lie.is_regular()
    pairs = [(i, j) for i in range(lie.dim) for j in range(lie.dim)]
    lie._psit_cache[pairs[0]] = dict(lie.psit(*pairs[1]))
    assert not lie.is_regular()
    assert lie.axioms()["regular"] is False


def test_action_table_is_conjugation_of_matrix_units(data):
    """lie.action[g][idx] = rho(g) E rho(g^-1) for E = |a,i><b,j| in V_{C,pi},
    on every non-trivial S3 block and the S4 4-cycle block."""
    from qdouble.double import build_VCpi, centralizer_irreps
    from qdouble.groups import FiniteGroup, class_context

    blocks = [
        (ctx, pi)
        for ctx in (data.ctx1, data.ctx2, data.ctx3)
        for pi in centralizer_irreps(ctx)
        if not (ctx.rep == 0 and pi.is_trivial())
    ]
    S4 = FiniteGroup.symmetric(4)
    ctx4 = class_context(S4, "s1s2s3")
    blocks.append((ctx4, centralizer_character(ctx4, 1)))
    for ctx, pi in blocks:
        lie = lie_cpi(ctx, pi)
        G = ctx.group
        rho = build_VCpi(ctx, pi).action
        pos = {c: k for k, c in enumerate(ctx.cls)}
        dim = len(rho[0])
        for g in range(G.n):
            for idx, (_, a, i, b, j) in enumerate(lie.basis):
                # rho(g) |r><s| rho(g^-1) has entries rho(g)[x][r] rho(g^-1)[s][y]
                r, s = pos[a] * pi.dim + i, pos[b] * pi.dim + j
                expected = {}
                for x in range(dim):
                    for y in range(dim):
                        coeff = rho[g][x][r] * rho[G.inv[g]][s][y]
                        if coeff:
                            (a2, k), (b2, l) = divmod(x, pi.dim), divmod(y, pi.dim)
                            expected[lie.index_of(0, ctx.cls[a2], k, ctx.cls[b2], l)] = coeff
                assert dict(lie.action[g][idx]) == expected


def test_regular_braided_lie_on_double(data):
    lie = lie_bdg(data.G)
    assert lie.check_L3()
    assert lie.check_L4()
    assert lie.is_regular()
    # bracket with a trivially graded first argument reduces to the action
    G = data.G
    for v in range(G.n):
        i = lie._posgh[(0, v)]
        for (g, h) in ((data.u, data.v), (data.uv, data.w)):
            j = lie._posgh[(g, h)]
            moved = (G.conj(v, g), G.conj(v, h))
            grade = G.commutator(G.inv[moved[0]], moved[1])
            expected = {lie._posgh[moved]: ONE} if grade == 0 else {}
            assert lie.bracket(i, j) == expected


def test_bdg_braided_structure(data):
    results = bdg_braided_checks(data.G)
    assert all(results.values()), results


def test_rmatrix_identities_all_blocks(data):
    from qdouble.double import centralizer_irreps

    for ctx in (data.ctx2, data.ctx3):
        for pi in centralizer_irreps(ctx):
            rm = BlockRMatrices((ctx, pi), (ctx, pi))
            assert rm.yang_baxter_holds()
            assert rm.second_inverse_holds()


def test_route_agreement_direct_sum(data):
    lie = lie_direct_sum([(data.ctx2, data.pi[1]), (data.ctx2, data.pi[2])])
    assert lie.dim == 8
    for t1 in (0, 1):
        for t2 in (0, 1):
            rt = psit_via_rmatrix(lie, t1, t2)
            for key, vec in rt.items():
                assert vec == lie.psit(*key)


def test_direct_sum_axioms(data):
    lie = lie_direct_sum([(data.ctx2, data.pi[1]), (data.ctx2, data.pi[2])])
    assert lie.check_L3()
    assert lie.check_L2()
    assert lie.is_regular()


def test_envelope_dims_case_ii(data):
    for j in (0, 1, 2):
        lie = lie_cpi(data.ctx2, data.pi[j])
        env = envelope(lie)
        fa = frt([(data.ctx2, data.pi[j])])
        # j = 0: polynomial algebra on 4 generators; j = 1, 2: the four extra
        # vanishing products leave 6 = 16 - 6 - 4 independent degree-2 monomials
        expected_d2 = 10 if j == 0 else 6
        assert env.graded_dimension(2) == expected_d2
        assert env.hilbert_prefix(3) == fa.hilbert_prefix(3)


# P = 1 mod 6, so zeta_N -> W ** (6 // N) for N | 6 is a ring map from the
# P-integral part of Q(zeta_N) to F_P, compatible across the orders N.
P = 1_000_000_009
W = next(w for w in (pow(x, (P - 1) // 6, P) for x in range(2, 100)) if pow(w, 2, P) != 1 and pow(w, 3, P) != 1)


def _mod_p(x):
    assert 6 % x.order == 0
    w = pow(W, 6 // x.order, P)
    total = 0
    for i, c in enumerate(x.coeffs):
        c = Fraction(c)
        total += c.numerator * pow(c.denominator, -1, P) * pow(w, i, P)
    return total % P


def _rank_mod_p(rows):
    """Rank over F_P by leading-term reduction of int rows {key: value}."""
    pivots = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, P)
                pivots[col] = {k: v * inv % P for k, v in row.items()}
                break
            f = row[col]
            for k, v in pivots[col].items():
                v = (row.get(k, 0) - f * v) % P
                if v:
                    row[k] = v
                else:
                    del row[k]
    return len(pivots)


def _graded_dims_mod_p(alg, maxdeg):
    """n^d minus the rank mod P of the rows T^a (x) R (x) T^b, a + 2 + b = d."""
    rels = [{k: _mod_p(c) for k, c in r.items()} for r in alg._all_quadratic_parts()]
    return [
        alg.n**d
        - _rank_mod_p(
            {prefix + k + suffix: v for k, v in rel.items()}
            for rel in rels
            for a in range(d - 1)
            for prefix in product(range(alg.n), repeat=a)
            for suffix in product(range(alg.n), repeat=d - 2 - a)
        )
        for d in range(maxdeg + 1)
    ]


def test_graded_dims_match_rank_mod_p(data):
    """Rank mod P is at most the rank over Q(zeta_3), so equal graded dims of
    U(L) and of the FRT algebra are an independent witness of the exact ones."""
    from qdouble.double import centralizer_irreps

    blocks = 0
    for ctx in (data.ctx1, data.ctx2, data.ctx3):
        for pi in centralizer_irreps(ctx):
            if ctx.rep == 0 and pi.dim == 1 and all(m[0][0] == ONE for m in pi.matrices):
                continue
            for alg in (envelope(lie_cpi(ctx, pi)), frt([(ctx, pi)])):
                assert alg.hilbert_prefix(3) == _graded_dims_mod_p(alg, 3)
            blocks += 1
    assert blocks == 7


def test_envelope_relations_case_ii(data):
    """For j = 1, 2 the extra relations kill the four mixed products."""
    lie = lie_cpi(data.ctx2, data.pi[1])
    env = envelope(lie)
    e11 = lie.index_of(0, data.uv, 0, data.uv, 0)
    e12 = lie.index_of(0, data.uv, 0, data.vu, 0)
    e21 = lie.index_of(0, data.vu, 0, data.uv, 0)
    e22 = lie.index_of(0, data.vu, 0, data.vu, 0)
    from qdouble.linalg import SparseSpan

    span = SparseSpan()
    for rel in env.relations:
        span.add(dict(rel))
    for key in ((e11, e12), (e11, e21), (e22, e12), (e22, e21)):
        assert span.contains({key: ONE})


def test_inclusion_elements_printed(data):
    G = data.G
    q = data.q
    for j in (0, 1, 2):
        pi = data.pi[j]
        r11 = inclusion_element(data.ctx2, pi, "uv", 0, "uv", 0)
        expected = DoubleElement(
            G,
            {
                (data.e, data.vu): ONE,
                (data.uv, data.vu): q ** (-j),
                (data.vu, data.vu): q ** j,
            },
        )
        assert r11 == expected


def test_inclusion_intertwines_brackets(data):
    """[r(x), r(y)] in the double equals r([x, y]) for the adjoint bracket."""
    G = data.G
    lie = lie_cpi(data.ctx3, data.pipm[1])

    def r_of(idx):
        (t, a, i, b, j) = lie.basis[idx]
        return inclusion_element(data.ctx3, data.pipm[1], a, i, b, j)

    for x in range(lie.dim):
        for y in range(lie.dim):
            # braided adjoint action in the transmuted double:
            # [X, Y] = sum X_1 (|X_2| |> Y) Sbar(X_2)
            X, Y = r_of(x), r_of(y)
            total = DoubleElement(G)
            for ((g1, h1), (g2, h2)), c in X.dvee_coproduct().items():
                a = DoubleElement.basis(G, g1, h1, c)
                mid = DoubleElement.basis(G, g2, h2)
                moved = Y.adjoint_act(mid.grading())
                total = total + a.dg_mul(moved).dg_mul(mid.braided_antipode())
            expected = DoubleElement(G)
            for k, cc in lie.bracket(x, y).items():
                expected = expected + r_of(k).scale(cc)
            assert total == expected


def test_inclusion_respects_grading(data):
    lie = lie_cpi(data.ctx3, data.pipm[0])
    for idx in range(lie.dim):
        (t, a, i, b, j) = lie.basis[idx]
        elt = inclusion_element(data.ctx3, data.pipm[0], a, i, b, j)
        for (g, h) in elt.terms:
            assert DoubleElement.basis(data.G, g, h).grading() == lie.grading[idx]


def test_covering_image_rejects_and_flags(data):
    img = covering_map_image([(data.ctx2, data.pi[0])])
    assert img == {"dimension": 6, "surjective": False, "classes_generate": False}


def test_killing_forms_match_for_plus(data):
    lie = lie_cpi(data.ctx3, data.pipm[0])
    K = killing_form(lie)
    T = killing_trace_oracle(lie)
    assert all(K[i][j] == T[i][j] for i in range(9) for j in range(9))


def test_killing_point_class(data):
    from qdouble.double import centralizer_irreps

    two = [p for p in centralizer_irreps(data.ctx1) if p.dim == 2][0]
    lie = lie_cpi(data.ctx1, two)
    K = killing_form(lie)
    for i1 in range(lie.dim):
        (_, _, i, _, j) = lie.basis[i1]
        for i2 in range(lie.dim):
            (_, _, k, _, l) = lie.basis[i2]
            expected = cyc(4) if (i == j and k == l) else ZERO
            assert K[i1][i2] == expected


def test_quotient_requires_real_orthogonal(data):
    with pytest.raises(ValueError):
        quotient_hopf(data.ctx2, data.pi[1])


def test_quotient_case_ii_pi0(data):
    H, B = quotient_hopf(data.ctx2, data.pi[0])
    assert H.graded_dimension(2) == B.graded_dimension(2) == 5
    # the antipode relation t_1^1 t_2^2 + t_1^2 t_2^1 = 1 is present
    lie = lie_cpi(data.ctx2, data.pi[0])
    t11 = lie.index_of(0, data.uv, 0, data.uv, 0)
    t12 = lie.index_of(0, data.uv, 0, data.vu, 0)
    t21 = lie.index_of(0, data.vu, 0, data.uv, 0)
    t22 = lie.index_of(0, data.vu, 0, data.vu, 0)
    wanted = {(t11, t22): ONE, (t12, t21): ONE}
    found = any(
        dict(q) == wanted and c == -ONE for q, c in H.inhomogeneous
    )
    assert found


def test_braided_antipode_preserves_relations(data):
    for pi in (data.pipm[0], data.pipm[1]):
        lie = lie_cpi(data.ctx3, pi)
        assert braided_antipode_preserves_relations(lie)


def test_braided_antipode_printed_form(data):
    """For the 2-cycle class with pi_+: Sbar E_a^b = E_{aba}^a."""
    from qdouble.braided import braided_antipode_on_generator

    G = data.G
    for a in data.ctx3.cls:
        for b in data.ctx3.cls:
            out = braided_antipode_on_generator(data.ctx3, data.pipm[0], a, 0, b, 0)
            target = G.word(a, G.inv[b], G.inv[a])
            assert out == {(target, 0, G.inv[a], 0): ONE}
