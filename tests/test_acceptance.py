"""Acceptance gate: one test per criterion, printing a PASS/FAIL line for
every sub-check.

Four printed values inside criteria 1, 3, 6 and 13 are contradicted by
identities the suite itself verifies exactly (the cocycle identity, the
averaging map that reproduces the printed 36-term table, an invariant
dimension count confirmed by independent elimination, an exhibited extra
solution branch, and the reference's own closed Killing formula).  The
corresponding ``*_literal_*`` tests below assert those clauses verbatim and
are expected to FAIL; they are deliberately left red, with the full
blocking analysis in the project notes.  Everything else must pass.
"""

import pytest

from qdouble import regression
from qdouble.cyclotomic import cyc
from qdouble.poly import Poly
from qdouble.regression import S3Data


def _run(criterion):
    results = criterion()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    failed = [name for name, ok, _ in results if not ok]
    assert not failed, f"failed sub-checks: {failed}"


def test_criterion_01_cocycle_tables():
    _run(regression.criterion_1)


def test_criterion_02_double_irreps():
    _run(regression.criterion_2)


def test_criterion_03_transfer():
    _run(regression.criterion_3)


def test_criterion_04_calculus_matrices():
    _run(regression.criterion_4)


def test_criterion_05_metric_determinant():
    _run(regression.criterion_5)


def test_criterion_06_connections():
    _run(regression.criterion_6)


def test_criterion_07_curvature():
    _run(regression.criterion_7)


def test_criterion_08_geometric_laplacian():
    _run(regression.criterion_8)


def test_criterion_09_dual_geometry():
    _run(regression.criterion_9)


def test_criterion_10_free_fields():
    _run(regression.criterion_10)


def test_criterion_11_braided_lie_axioms():
    _run(regression.criterion_11)


def test_criterion_12_quadratic_dimensions():
    _run(regression.criterion_12)


def test_criterion_13_killing_forms():
    _run(regression.criterion_13)


def test_criterion_14_covering_maps():
    _run(regression.criterion_14)


def test_criterion_15_property_suites():
    _run(regression.criterion_15)


# -- reference clauses asserted verbatim; red by design (defective inputs) ------------
#
# Each failure message points at the exact computation that contradicts the
# printed value; do not "fix" these by weakening the assertion.


def test_criterion_01_literal_zeta_u_table():
    """Criterion 1 asks for the printed 18 case-(iii) entries exactly,
    including zeta_u(vu) = r.  The cocycle identity (also criterion 15)
    forces zeta_u(vu) = zeta_u(v) zeta_u(u) = r^2 = e."""
    d = S3Data.get()
    got = d.G.labels[d.ctx3.zeta[d.u][d.vu]]
    assert got == "v", (
        f"computed zeta_u(vu) = {got}; the printed value r = v contradicts the "
        "cocycle identity, which forces e here"
    )


def test_criterion_03_literal_transfer_scalar():
    """Criterion 3 asks for image scalars 1/3.  The averaging map with the
    normalised integral, which reproduces the printed 36-term table exactly
    and is idempotent, gives |C_G|/|G| = 1/2 (the general formula of the
    same source)."""
    from fractions import Fraction
    from qdouble.double import build_VCpi
    from qdouble.transfer import transfer_to_group_algebra

    d = S3Data.get()
    module = build_VCpi(d.ctx2, d.pi[1])
    cols = transfer_to_group_algebra(d.ctx2, d.pi[1], module)
    got = cols[(d.uv, 0)][(d.vu, 0)]
    assert got == cyc(Fraction(1, 3)), (
        f"computed scalar {got!r} = |C_G|/|G| = 1/2; printed 1/3 is "
        "inconsistent with the printed averaging table and the factorization"
    )


def test_criterion_06_literal_wqlc_dimensions():
    """Criterion 6 asks for family dimensions 3 (special stratum) and 1
    (generic).  The covariant space is 11-dimensional (representation count
    3 + 3 + 5, confirmed by exact elimination and an independently verified
    extra solution), so the true counts are 4 and 2."""
    from qdouble.geometry import connection_solve

    d = S3Data.get()
    stratum_dim = d.wqlc_family().n_params()
    generic_dim = connection_solve(
        d.basis_end2(), d.ip_generic(), ["covariant", "torsion_free", "cotorsion_free"]
    ).n_params()
    assert (stratum_dim, generic_dim) == (3, 1), (
        f"computed ({stratum_dim}, {generic_dim}); the printed moduli miss one "
        "covariant direction (entry Gamma^u_{vu,vu} is not forced to vanish)"
    )


def test_criterion_06_literal_riemann_necessity():
    """Criterion 6 asks that curvature compatibility yield s = 0.  Within
    s = 0 the branches f in {r/4, r} are exact and complete, but s = 0 is not
    forced: at s = 1 the ideal is exactly (4f - 3r - 11, 2 r^2 + 15 r + 21),
    which has real solutions."""
    from qdouble.geometry import riemann_compat_residuals
    from qdouble.poly import groebner, normal_form

    d = S3Data.get()
    rres = riemann_compat_residuals(d.printed_wqlc_slice())
    P3 = ("r", "s", "f")
    assert not normal_form(Poly.variable("s", P3), groebner(rres)), (
        "s does not vanish on the full compatibility variety; see the "
        "exhibited branch in criterion 6"
    )


def test_criterion_13_literal_killing_minus_pattern():
    """Criterion 13 asks for the printed K_- pattern.  The closed Killing
    formula of the same reference, which reproduces its other three worked
    Killing values, gives [[-1,-3,-1],[1,3,1],[-1,-3,-1]] instead."""
    from qdouble.braided import lie_cpi, killing_form

    d = S3Data.get()
    lie = lie_cpi(d.ctx3, d.pipm[1])
    K = killing_form(lie)
    printed = [[1, -3, -1], [-1, -3, -1], [-1, -3, 1]]
    pattern = [
        [K[lie.index_of(dd, 0, b, 0)][lie.index_of(b, 0, dd, 0)] for dd in (d.u, d.v, d.w)]
        for b in (d.u, d.v, d.w)
    ]
    assert all(
        pattern[i][j] == cyc(printed[i][j]) for i in range(3) for j in range(3)
    ), f"closed-formula pattern {[[str(x.as_rational()) for x in row] for row in pattern]}"


def test_criterion_13_literal_trace_oracle_agreement():
    """Criterion 13 asks the closed formula to agree with the diagrammatic
    trace on every pair.  Composing the written trace verbatim agrees for
    pi_+ and the point class but not for pi_- or the 3-cycle blocks; the
    reference simplification chain is internally inconsistent there."""
    from qdouble.braided import lie_cpi, killing_form, killing_trace_oracle

    d = S3Data.get()
    lie = lie_cpi(d.ctx3, d.pipm[1])
    K = killing_form(lie)
    T = killing_trace_oracle(lie)
    assert all(K[i][j] == T[i][j] for i in range(9) for j in range(9)), (
        "trace oracle and closed formula disagree on the pi_- block"
    )


# -- module-level printed remarks, documented as strict expected failures --------------


@pytest.mark.xfail(
    strict=True,
    reason="printed remark: the transmuted antipode squares to the ribbon twist, "
    "not the identity (verified exactly); involutive only on trivially graded elements",
)
def test_printed_braided_antipode_involutive():
    from qdouble.double import DoubleElement

    d = S3Data.get()
    x = DoubleElement.basis(d.G, d.u, d.v)
    assert x.braided_antipode().braided_antipode() == x


@pytest.mark.xfail(
    strict=True,
    reason="printed kernel claim for the function-algebra transfer: the pointwise "
    "projector has fixed space of dimension |G| dim(pi); the image needs the bundle "
    "invariance as well (verified exactly)",
)
def test_printed_star_projector_kernel_dimension():
    from qdouble.double import build_VCpi
    from qdouble.transfer import projector_star, projector_fixed_space

    d = S3Data.get()
    pi = d.pi[1]
    module = build_VCpi(d.ctx2, pi)
    blocks = projector_star(d.ctx2, pi, module)
    fixed = projector_fixed_space(blocks, d.G, module)
    assert len(fixed) == len(d.ctx2.cls) * pi.dim
