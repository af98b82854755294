"""Ground-truth regression suite over the worked symmetric-group examples.

Each check returns (name, ok, detail).  Checks marked ``divergence:`` pin
places where the engine's exactly-verified output differs from a reference
table value; the analysis behind each one lives in the project notes, and
the corresponding literal claims are kept as deliberate failures in the
test suite.  Everything here runs in exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import ONE, ZERO, cyc, root_of_unity
from .groups import FiniteGroup, class_context
from .reps import (
    abelian_characters,
    centralizer_character,
    irrep_catalog,
    induced_rep,
)
from .double import (
    DoubleElement,
    build_VCpi,
    centralizer_irreps,
    double_irreps,
    block_idempotent,
    hopf_failures,
    killing_Q,
)
from .transfer import (
    transfer_to_group_algebra,
    transfer_via_total_space,
    averaging_to_group_algebra,
    factorization_check,
)
from .calculus import fodc_group_algebra, lambda_basis
from .geometry import (
    ip_from_lengths,
    connection_solve,
    ConnectionFamily,
    metric_compat_residuals,
    star_compat_residuals,
    riemann_compat_residuals,
    residuals_vanish,
    ricci,
    ricci_scalar,
    geometric_laplacian,
    laplacian_consistency_residuals,
    strip_monomial_content,
)
from .dualgeometry import dual_constraints, freefield_solutions
from .braided import (
    BlockRMatrices,
    lie_cpi,
    psit_via_rmatrix,
    envelope,
    frt,
    covering_map_image,
    inclusion_element,
    killing_form,
    killing_trace_oracle,
    quotient_hopf,
    bdg_braided_checks,
    _braid_relation_holds,
)
from .poly import Poly, groebner, normal_form
from .quadalg import QuadAlg
from . import linalg


class S3Data:
    """Shared S3 objects for the whole suite."""

    _instance = None

    def __init__(self):
        self.G = FiniteGroup.s3_with_uvw_labels()
        G = self.G
        self.e, self.u, self.v, self.uv, self.vu, self.w = (
            G.element(x) for x in ("e", "u", "v", "uv", "vu", "w")
        )
        self.q = root_of_unity(3, 1)
        self.ctx2 = class_context(G, "uv", q_override={"uv": "e", "vu": "u"})
        self.ctx3 = class_context(G, "v", q_override={"v": "e", "u": "w", "w": "u"})
        self.ctx1 = class_context(G, "e")
        self.pi = {j: centralizer_character(self.ctx2, j) for j in (0, 1, 2)}
        self.pipm = {j: centralizer_character(self.ctx3, j) for j in (0, 1)}
        self._wqlc = None
        self._ip = {}

    @classmethod
    def get(cls):
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    def basis_end2(self):
        calc = fodc_group_algebra(induced_rep(self.ctx2, self.pi[1]))
        return lambda_basis(calc, preferred=["u", "v", "uv", "vu"])

    def ip_generic(self):
        if "generic" not in self._ip:
            V = ("l1", "l2")
            self._ip["generic"] = ip_from_lengths(
                self.basis_end2(),
                {"u": Poly.variable("l1", V), "uv": Poly.variable("l2", V)},
                V,
            )
        return self._ip["generic"]

    def ip_stratum(self):
        if "stratum" not in self._ip:
            W = ("l2",)
            l2 = Poly.variable("l2", W)
            self._ip["stratum"] = ip_from_lengths(
                self.basis_end2(), {"u": l2 * cyc(Fraction(2, 3)), "uv": l2}, W
            )
        return self._ip["stratum"]

    def wqlc_family(self):
        """The full torsion/cotorsion-free family on the special stratum, in
        coordinates (r, s, f, x) extending the printed three-parameter slice."""
        if self._wqlc is None:
            basis = self.basis_end2()
            fam = connection_solve(
                basis, self.ip_stratum(), ["covariant", "torsion_free", "cotorsion_free"]
            )
            U, VU, UV = 0, 3, 2
            functionals = [
                ("r", {(VU, UV, UV): 1, (VU, VU, VU): 1, (VU, U, U): Fraction(1, 3)}),
                ("s", {(VU, U, U): Fraction(-1, 6)}),
                ("f", {(VU, VU, VU): 1}),
                ("x", {(U, VU, VU): 1}),
            ]
            self._wqlc = fam.reparameterize(functionals)
        return self._wqlc

    def printed_wqlc_slice(self):
        """The printed three-parameter family (the x = 0 slice)."""
        return self.wqlc_family().substitute({"x": 0})


def printed_wqlc_matrices():
    """The printed Christoffel matrices over (r, s, f)."""
    V = ("r", "s", "f")
    r = Poly.variable("r", V)
    s = Poly.variable("s", V)
    f = Poly.variable("f", V)
    z = Poly.constant(0, V)
    G_u = [
        [r, -(s * 6 + r), s, s],
        [-(s * 6 + r), (s * 6 + r) * (-2), s * 6 + r, s * 6 + r],
        [s, s * 6 + r, z, r + s * 2 - f * 2],
        [s, s * 6 + r, r + s * 2 - f * 2, z],
    ]
    G_vu = [
        [s * (-6), s * (-3), s * 3, s * 3],
        [s * (-3), s * (-6), s * 3, s * 3],
        [s * 3, s * 3, -f + r + s * 2, r * 2 + s * 4 - f * 3],
        [s * 3, s * 3, r * 2 + s * 4 - f * 3, f],
    ]

    def swap(M):
        sw = {0: 1, 1: 0, 2: 3, 3: 2}
        return [[M[sw[i]][sw[j]] for j in range(4)] for i in range(4)]

    out = {}
    for idx, M in enumerate([G_u, swap(G_u), swap(G_vu), G_vu]):
        for j in range(4):
            for k in range(4):
                out[(idx, j, k)] = M[j][k]
    return out


def _check(name, ok, detail=""):
    return (name, bool(ok), detail)


# -- criterion 1: cocycle tables ---------------------------------------------------


def criterion_1():
    d = S3Data.get()
    G = d.G
    order = ["e", "u", "v", "w", "uv", "vu"]
    r, r2 = "uv", "vu"
    expected_ii = {
        "uv": ["e", "e", r, r2, r, r2],
        "vu": ["e", "e", r2, r, r2, r],
    }
    # zeta_u printed with final entry r; the cocycle identity forces e there
    expected_iii = {
        "v": ["e", "e", "v", "e", "v", "v"],
        "u": ["e", "v", "v", "e", "v", "e"],
        "w": ["e", "e", "v", "v", "e", "v"],
    }
    checks = []
    ok = True
    for c, row in expected_ii.items():
        got = [G.labels[d.ctx2.zeta[G.element(c)][G.element(x)]] for x in order]
        ok = ok and got == row
    checks.append(_check("c1 cocycle table case (ii), 12 entries", ok))
    ok = True
    for c, row in expected_iii.items():
        got = [G.labels[d.ctx3.zeta[G.element(c)][G.element(x)]] for x in order]
        ok = ok and got == row
    checks.append(_check("c1 cocycle table case (iii), 18 entries (zeta_u(vu) = e forced)", ok))
    got_entry = G.labels[d.ctx3.zeta[d.u][d.vu]]
    checks.append(
        _check(
            "c1 divergence: printed zeta_u(vu) = r violates the cocycle identity",
            got_entry == "e",
            f"computed {got_entry}",
        )
    )
    # the identity that forces it
    ident = True
    for ctx in (d.ctx2, d.ctx3, d.ctx1):
        for c in ctx.cls:
            for g in range(G.n):
                for h in range(G.n):
                    lhs = ctx.zeta[c][G.table[g][h]]
                    rhs = G.table[ctx.zeta[G.conj(h, c)][g]][ctx.zeta[c][h]]
                    ident = ident and lhs == rhs
    checks.append(_check("c1 cocycle identity over all (c,g,h)", ident))
    return checks


# -- criterion 2: irreducible blocks -----------------------------------------------


def criterion_2():
    d = S3Data.get()
    G = d.G
    pairs = double_irreps(G)
    dims = sorted(len(ctx.cls) * pi.dim for ctx, pi in pairs)
    checks = [
        _check("c2 block dimensions {1,1,2,2,2,2,3,3}", dims == [1, 1, 2, 2, 2, 2, 3, 3]),
        _check("c2 sum of squares = 36", sum(x * x for x in dims) == 36),
    ]
    blocks = [block_idempotent(ctx, pi) for ctx, pi in pairs]
    total = DoubleElement(G)
    for b in blocks:
        total = total + b
    checks.append(_check("c2 idempotents sum to 1", total == DoubleElement.unit(G)))
    checks.append(_check("c2 idempotent", all(b.dg_mul(b) == b for b in blocks)))
    checks.append(
        _check(
            "c2 pairwise orthogonal",
            all(
                not blocks[i].dg_mul(blocks[j])
                for i in range(len(blocks))
                for j in range(len(blocks))
                if i != j
            ),
        )
    )
    basis = [DoubleElement.basis(G, g, h) for g in range(G.n) for h in range(G.n)]
    checks.append(
        _check(
            "c2 central",
            all(b.dg_mul(x) == x.dg_mul(b) for b in blocks for x in basis),
        )
    )
    return checks


# -- criterion 3: transfer ----------------------------------------------------------


def criterion_3():
    d = S3Data.get()
    G = d.G
    ctx, pi = d.ctx2, d.pi[1]
    module = build_VCpi(ctx, pi)
    cols = transfer_to_group_algebra(ctx, pi, module)
    half = cyc(Fraction(1, 2))
    col_e = cols[(d.uv, 0)]
    checks = [
        _check("c3 image of delta_[e] = (|C_G|/|G|) vu (x) r", col_e == {(d.vu, 0): half}),
        _check(
            "c3 image of delta_[u] = (|C_G|/|G|) uv (x) r^-1", cols[(d.vu, 0)] == {(d.uv, 1): half}
        ),
        _check(
            "c3 divergence: printed scalar 1/3 vs computed |C_G|/|G| = 1/2",
            col_e.get((d.vu, 0)) == half and half != cyc(Fraction(1, 3)),
        ),
    ]
    # the printed 36-term averaging table entry for delta_u (x) uv (x) r
    av = averaging_to_group_algebra(G, module, {(d.u, d.uv, 0): ONE})
    q = d.q
    sixth = cyc(Fraction(1, 6))
    expected = {
        (d.u, d.uv, 0): sixth,
        (d.w, d.uv, 0): q * sixth,
        (d.v, d.uv, 0): q * q * sixth,
        (d.e, d.vu, 1): sixth,
        (d.uv, d.vu, 1): q * sixth,
        (d.vu, d.vu, 1): q * q * sixth,
    }
    checks.append(_check("c3 averaging table entry av(delta_u (x) uv (x) r)", av == expected))
    checks.append(
        _check("c3 factorization through the function-algebra bundle", factorization_check(ctx, pi, module))
    )
    via = transfer_via_total_space(ctx, pi, module)
    checks.append(
        _check(
            "c3 transfer equals the total-space averaging route",
            all(via[k] == cols[k] for k in cols),
        )
    )
    return checks


# -- criterion 4: calculus matrices --------------------------------------------------


def criterion_4():
    d = S3Data.get()
    rho = induced_rep(d.ctx2, d.pi[1])
    calc = fodc_group_algebra(rho)
    q = d.q
    qi = q * q

    def eg(g):
        return calc.e_matrices[g]

    printed = {
        d.u: [[-ONE, ONE], [ONE, -ONE]],
        d.v: [[-ONE, qi], [q, -ONE]],
        d.uv: [[q - ONE, ZERO], [ZERO, qi - ONE]],
        d.vu: [[qi - ONE, ZERO], [ZERO, q - ONE]],
    }
    ok = all(linalg.mat_eq(eg(g), m) for g, m in printed.items())
    checks = [_check("c4 matrices e^u, e^v, e^uv, e^vu as printed", ok)]
    s1 = [[eg(d.u)[i][j] + eg(d.v)[i][j] + eg(d.w)[i][j] for j in range(2)] for i in range(2)]
    s2 = [[eg(d.uv)[i][j] + eg(d.vu)[i][j] for j in range(2)] for i in range(2)]
    checks.append(_check("c4 e^u + e^v + e^w = e^uv + e^vu", linalg.mat_eq(s1, s2)))
    lb = d.basis_end2()
    printed_rho_u = [[1, 0, 0, 0], [-1, -1, 1, 1], [0, 0, 0, 1], [0, 0, 1, 0]]
    printed_rho_v = [[-1, -1, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    printed_gam_u = [[-1, 0, 0, 0], [-1, 0, 0, 1], [-2, -1, 1, 1], [-1, 1, 0, 0]]
    printed_gam_v = [[0, -1, 1, 0], [0, -1, 0, 0], [1, -1, 0, 0], [-1, -2, 1, 1]]

    def as_cyc(m):
        return [[cyc(x) for x in row] for row in m]

    ok = (
        linalg.mat_eq(lb.rho_matrix(d.u), as_cyc(printed_rho_u))
        and linalg.mat_eq(lb.rho_matrix(d.v), as_cyc(printed_rho_v))
        and linalg.mat_eq(lb.gamma(d.u), as_cyc(printed_gam_u))
        and linalg.mat_eq(lb.gamma(d.v), as_cyc(printed_gam_v))
    )
    checks.append(_check("c4 rho(u), rho(v), gamma(u), gamma(v) as printed", ok))
    checks.append(
        _check(
            "c4 gamma-rho commutation and well-definedness",
            lb.gamma_rho_commutation_holds() and lb.gamma_well_defined(),
        )
    )
    return checks


# -- criterion 5: metric determinant --------------------------------------------------


def criterion_5():
    d = S3Data.get()
    ip = d.ip_generic()
    V = ("l1", "l2")
    l1, l2 = Poly.variable("l1", V), Poly.variable("l2", V)
    expected = l2 ** 3 * (l1 * cyc(12) - l2 * cyc(7)) * cyc(Fraction(1, 16))
    checks = [
        _check("c5 det = (1/16) l2^3 (12 l1 - 7 l2) as a polynomial identity", ip.det() == expected),
        _check("c5 symbol-level metric conditions on all triples", ip.metric_conditions_hold()),
        _check("c5 star compatibility of the Gram matrix", ip.star_compatible()),
        _check("c5 regularity bound satisfied", ip.is_regular_candidate()),
        _check(
            "c5 strict Gram covariance holds exactly on the stratum 3 l1 = 2 l2",
            (not ip.covariant()) and d.ip_stratum().covariant(),
        ),
    ]
    return checks


# -- criterion 6: connections ----------------------------------------------------------


def criterion_6():
    d = S3Data.get()
    checks = []
    fam4 = d.wqlc_family()
    basis = d.basis_end2()
    gen = connection_solve(basis, d.ip_generic(), ["covariant", "torsion_free", "cotorsion_free"])
    checks.append(
        _check(
            "c6 divergence: family dimensions 4 (stratum) / 2 (generic), printed 3 / 1",
            fam4.n_params() == 4 and gen.n_params() == 2,
            "one covariant direction beyond the printed moduli; see notes",
        )
    )
    printed = printed_wqlc_matrices()
    slice3 = d.printed_wqlc_slice()
    entry_ok = all(slice3.gamma[key] == printed[key] for key in printed)
    checks.append(_check("c6 printed WQLC family reproduced as the x = 0 slice", entry_ok))
    mres = metric_compat_residuals(fam4, d.ip_stratum())
    P4 = ("r", "s", "f", "x")
    mbasis = groebner([strip_monomial_content(r, keep=P4) for r in mres])
    forced = all(not normal_form(Poly.variable(t, P4), mbasis) for t in P4)
    checks.append(
        _check(
            "c6 metric compatibility forces r = s = 0 (and also f = x = 0)",
            forced and residuals_vanish(mres, {p: 0 for p in P4}),
        )
    )
    # star compatibility on the printed family
    cfam = d.printed_wqlc_slice().complex_split()
    sres = star_compat_residuals(cfam)
    P6 = cfam.params

    def pv(n):
        return Poly.variable(n, P6)

    star_family = {
        "s_re": 0,
        "s_im": 0,
        "f_re": 0,
        "r_re": 0,
        "r_im": pv("f_im"),
    }
    suff = residuals_vanish(sres, star_family)
    cands = [
        ("s_re", pv("s_re")),
        ("s_im", pv("s_im")),
        ("f_re", pv("f_re")),
        ("r_re", pv("r_re")),
        ("r=f", pv("r_im") - pv("f_im")),
    ]
    # t or t^2 in the ideal: t vanishes on every common zero
    sbasis = groebner(sres)
    certified = [
        desc for desc, t in cands
        if not normal_form(t, sbasis) or not normal_form(t * t, sbasis)
    ]
    checks.append(
        _check(
            "c6 star compatibility yields s = 0, r = f, Re f = 0 on the printed family",
            suff and len(certified) == 5,
            f"certified {certified}",
        )
    )
    # Riemann compatibility on the printed family
    rres = riemann_compat_residuals(d.printed_wqlc_slice())
    P3 = ("r", "s", "f")
    rvar = Poly.variable("r", P3)
    suff = residuals_vanish(rres, {"s": 0, "f": rvar * cyc(Fraction(1, 4))}) and residuals_vanish(
        rres, {"s": 0, "f": rvar}
    )
    fvar = Poly.variable("f", P3)

    def slice_is(s, generators):
        """(residuals at this s) = (generators), by normal forms both ways."""
        at_s = [x for x in (p.substitute({"s": s}) for p in rres) if x]
        basis, gbasis = groebner(at_s), groebner(generators)
        return not any(normal_form(p, gbasis) for p in at_s) and not any(
            normal_form(g, basis) for g in generators
        )

    checks.append(
        _check(
            "c6 within s = 0: Riemann compatibility is exactly f in {r/4, r}",
            suff and slice_is(0, [(fvar * 4 - rvar) * (fvar - rvar)]),
        )
    )
    # at s = 1, f = (3r + 11)/4 over 2r^2 + 15r + 21, whose discriminant 57 > 0
    a, b, c = 2, 15, 21
    checks.append(
        _check(
            "c6 divergence: Riemann variety has components off s = 0",
            b * b - 4 * a * c > 0
            and slice_is(1, [fvar * 4 - rvar * 3 - 11, rvar * rvar * a + rvar * b + c]),
            "real branch over 2r^2 + 15r + 21 = 0 at s = 1; see notes",
        )
    )
    return checks


# -- criterion 7: curvature -------------------------------------------------------------


def criterion_7():
    d = S3Data.get()
    fam = d.printed_wqlc_slice()
    V = ("l2",) + fam.vars
    r, s, f, l2 = (Poly.variable(name, V) for name in ("r", "s", "f", "l2"))
    scal = ricci_scalar(fam, d.ip_stratum())
    expected = l2 * (
        f * f * 12 - f * r * 15 - f * s * 54 + r * r * 6 + r * s * 48 + s * s * 105
    )
    checks = [_check("c7 Ricci scalar identity on the WQLC family", scal == expected)]
    star = fam.substitute({"s": 0, "r": f})
    ten = ricci(star)
    M = [[6, 3, -3, -3], [3, 6, -3, -3], [-3, -3, 4, 1], [-3, -3, 1, 4]]
    f2 = f ** 2
    ok = all(
        ten[(i, j)] == f2 * cyc(Fraction(M[i][j], 2)) for i in range(4) for j in range(4)
    )
    checks.append(_check("c7 Ricci tensor (f^2/2) pattern in the star family", ok))
    zero_fam = fam.substitute({"r": 0, "s": 0, "f": 0})
    checks.append(
        _check(
            "c7 zero connection has zero curvature",
            all(not x for x in ricci(zero_fam).values()),
        )
    )
    return checks


# -- criterion 8: geometric Laplacian -----------------------------------------------------


def criterion_8():
    d = S3Data.get()
    fam = d.printed_wqlc_slice()
    ip = d.ip_stratum()
    V = ("l2",) + fam.vars + ("lam1", "lam2")
    r, s, f, l2 = (Poly.variable(name, V) for name in ("r", "s", "f", "l2"))
    lam2 = l2 * (Poly.constant(1, V) + (f - r - s * 3) * 3)
    lam1 = l2 * cyc(Fraction(2, 3)) + (lam2 - l2) * cyc(Fraction(2, 3))
    res = laplacian_consistency_residuals(fam, ip, {"e": 0, "u": lam1, "uv": lam2})
    checks = [
        _check(
            "c8 consistency relation lambda_2 = l2 [1 + 3(f - r - 3s)]",
            all(not x for x in res),
        )
    ]
    geo = geometric_laplacian(fam, ip)
    checks.append(
        _check(
            "c8 geometric eigenvalue on the 3-cycle class",
            geo[d.uv] == lam2 and geo[d.vu] == lam2,
        )
    )
    checks.append(_check("c8 identity eigenvalue zero", not geo[0]))
    # the one-dimensional calculus: regular spectra are not realizable
    calc1 = fodc_group_algebra(induced_rep(d.ctx2, d.pi[0]))
    lb1 = lambda_basis(calc1, preferred=["u"])
    W = ("l", "g0", "lam1", "lam2")
    ip1 = ip_from_lengths(lb1, {"u": Poly.variable("l", W), "uv": 0}, W)
    fam1 = ConnectionFamily(lb1, {(0, 0, 0): Poly.variable("g0", W)}, ("g0",))
    res1 = laplacian_consistency_residuals(
        fam1, ip1, {"e": 0, "u": Poly.variable("lam1", W), "uv": Poly.variable("lam2", W)}
    )
    forced = not normal_form(Poly.variable("lam2", W), groebner(res1))
    checks.append(
        _check(
            "c8 sign calculus forces lambda_2 = 0 (no geometric regular spectrum)",
            forced,
        )
    )
    return checks


# -- criterion 9: dual geometry ------------------------------------------------------------


def criterion_9():
    d = S3Data.get()
    G = d.G
    irreps = irrep_catalog(G)
    by_dim = {r.dim: r for r in irreps}
    triv = [r for r in irreps if r.is_trivial()][0]
    sign = [r for r in irreps if r.dim == 1 and r is not triv][0]
    two = by_dim[2]
    lam_names = {triv.name: None, sign.name: "a1", two.name: "a2"}
    checks = []

    # case (i): S = {uv, vu}
    cons, closed = dual_constraints(G, ["uv", "vu"], {d.uv: "w1"}, lam_names)
    V = cons[0].vars
    w1 = Poly.variable("w1", V)
    # the constraints must force lambda*_sign = 0 and be satisfied by the
    # closed-form solution (0, 6 l*_1)
    forced_sign = not normal_form(Poly.variable("a1", V), groebner(cons))
    sigma_zero = all(not c.substitute({"a1": 0, "a2": w1 * 6}) for c in cons)
    formula_ok = closed[sign.name].is_zero() and closed[
        two.name
    ] == Poly.variable("w1", closed[two.name].vars) * 6
    checks.append(
        _check(
            "c9 case S={uv,vu}: lambda*_sign = 0, lambda*_2 = 6 l*_1",
            forced_sign and sigma_zero and formula_ok,
        )
    )
    # case (ii): S = {u, v, w}
    cons, closed = dual_constraints(G, ["u", "v", "w"], {d.u: "w2"}, lam_names)
    w2 = Poly.variable("w2", closed[sign.name].vars)
    formula_ok = closed[sign.name] == w2 * 12 and closed[two.name] == w2 * 6
    consistent = all(
        not c.substitute({"a1": w2 * 12, "a2": w2 * 6}) for c in cons
    )
    checks.append(
        _check("c9 case S={u,v,w}: lambda*_sign = 12 l*_2, lambda*_2 = 6 l*_2", formula_ok and consistent)
    )
    # case (iii): the union
    cons, closed = dual_constraints(G, ["u", "v", "w", "uv", "vu"], {d.uv: "w1", d.u: "w2"}, lam_names)
    Vv = closed[sign.name].vars
    w1p = Poly.variable("w1", Vv)
    lam_sign = w1p * (-8)
    lam_two = w1p * 2
    sub = {"a1": lam_sign, "a2": lam_two, "w2": w1p * cyc(Fraction(-2, 3))}
    consistent = all(not c.substitute(sub) for c in cons)
    closed_consistent = (
        closed[sign.name].substitute(sub) == lam_sign.extend(closed[sign.name].vars)
        and closed[two.name].substitute(sub) == lam_two.extend(closed[two.name].vars)
    )
    checks.append(
        _check(
            "c9 union case: lambda*_sign = -8 l*_1, lambda*_2 = 2 l*_1, l*_2 = -(2/3) l*_1",
            consistent and closed_consistent,
        )
    )
    return checks


# -- criterion 10: free fields ----------------------------------------------------------


def criterion_10():
    d = S3Data.get()
    spectrum = {"e": 0, "u": 1, "uv": 2}
    checks = []
    allok_dim = True
    allok_img = True
    for ctx, pis in ((d.ctx1, None), (d.ctx2, d.pi), (d.ctx3, d.pipm)):
        pi_list = list(pis.values()) if pis else centralizer_irreps(ctx)
        for pi in pi_list:
            module = build_VCpi(ctx, pi)
            sols = freefield_solutions(ctx, pi, module, spectrum)
            expect = len(ctx.cls) * pi.dim
            if len(sols) != expect:
                allok_dim = False
            cols = transfer_to_group_algebra(ctx, pi, module)
            if not linalg.same_row_space(list(cols.values()), sols):
                allok_img = False
    checks.append(_check("c10 solution space dimension |C| dim(pi) for all 8 pairs", allok_dim))
    checks.append(_check("c10 solution space equals the transfer image", allok_img))
    # degenerate spectrum must be rejected
    try:
        freefield_solutions(d.ctx2, d.pi[1], build_VCpi(d.ctx2, d.pi[1]), {"e": 0, "u": 1, "uv": 1})
        rejected = False
    except ValueError:
        rejected = True
    checks.append(_check("c10 non-regular spectrum rejected", rejected))
    return checks


# -- criterion 11: braided-Lie axioms ------------------------------------------------------


def criterion_11():
    d = S3Data.get()
    s3_blocks = [
        (ctx, pi)
        for ctx, pis in ((d.ctx1, None), (d.ctx2, d.pi), (d.ctx3, d.pipm))
        for pi in (list(pis.values()) if pis else centralizer_irreps(ctx))
        if not (ctx.rep == 0 and pi.is_trivial())  # trivial pair: unit object only
    ]
    S4 = FiniteGroup.symmetric(4)
    ctx = class_context(S4, S4.element("s3"))
    s1_pos = ctx.centralizer.position[S4.element("s1")]
    s4_blocks = [
        (ctx, p) for p in abelian_characters(ctx.centralizer) if p.matrices[s1_pos][0][0] == ONE
    ]
    # The 4-cycle block (j = 1) joins the S4 route check only.  There a^2
    # does not commute with every element of the class, so conjugating by a
    # and by a^-1 differ, and a route that does one where it needs the other
    # fails; on the blocks above a^2 commutes with the class and it cannot.
    four_cycle = class_context(S4, S4.element("s1s2s3"))
    route_only = [(four_cycle, centralizer_character(four_cycle, 1))]
    checks = []
    for blocks, extra, axioms_name, route_name in (
        (
            s3_blocks,
            [],
            "c11 axioms L1-L4, braid relation, regularity for the S3 blocks",
            "c11 R-matrix route equals the direct formulas (S3)",
        ),
        (
            s4_blocks,
            route_only,
            "c11 axioms for the 2-cycle class of S4 with pi_pm",
            "c11 R-matrix route for S4",
        ),
    ):
        axioms = routes = True
        for n, (ctx, pi) in enumerate(blocks + extra):
            lie = lie_cpi(ctx, pi)
            if n < len(blocks):
                axioms = all(lie.axioms().values()) and axioms
            rt = psit_via_rmatrix(lie, 0, 0)
            routes = routes and all(
                rt[(i, j)] == lie.psit(i, j) for i in range(lie.dim) for j in range(lie.dim)
            )
        checks.append(_check(axioms_name, axioms))
        checks.append(_check(route_name, routes))
    return checks


# -- criterion 12: quadratic dimensions ----------------------------------------------------


def criterion_12():
    d = S3Data.get()
    checks = []
    # H and B carry the relations of A and U(L) plus antipode relations
    H, B = quotient_hopf(d.ctx3, d.pipm[0])
    env, fa = QuadAlg(B.generators, B.relations), QuadAlg(H.generators, H.relations)
    checks.append(_check("c12 dim_2 U(L) = 33 for ({u,v,w}, pi+)", env.graded_dimension(2) == 33))
    checks.append(_check("c12 dim_2 A = 33 for ({u,v,w}, pi+)", fa.graded_dimension(2) == 33))
    checks.append(_check("c12 dim_2 H = 24", H.graded_dimension(2) == 24))
    checks.append(_check("c12 dim_2 B = 24", B.graded_dimension(2) == 24))
    ok = True
    for pi in centralizer_irreps(d.ctx1):
        if pi.is_trivial():
            continue
        lie_e = lie_cpi(d.ctx1, pi)
        env_e = envelope(lie_e)
        dsq = pi.dim * pi.dim
        if env_e.graded_dimension(2) != dsq * (dsq + 1) // 2:
            ok = False
    checks.append(_check("c12 dim_2 U(L) for C = {e} equals d^2(d^2+1)/2", ok))
    # transmutation consistency through degree 3 for the small S3 blocks
    ok = True
    for ctx, pis in ((d.ctx2, (0, 1, 2)),):
        for j in pis:
            lie_j = lie_cpi(ctx, d.pi[j])
            e_j = envelope(lie_j)
            f_j = frt([(ctx, d.pi[j])])
            if e_j.hilbert_prefix(3) != f_j.hilbert_prefix(3):
                ok = False
    checks.append(_check("c12 dim_n U(L) = dim_n A for n <= 3 on the 3-cycle blocks", ok))
    return checks


# -- criterion 13: killing forms -------------------------------------------------------------


def criterion_13():
    d = S3Data.get()
    checks = []
    liep = lie_cpi(d.ctx3, d.pipm[0])
    Kp = killing_form(liep)
    ok = all(
        Kp[liep.index_of(0, a, 0, b, 0)][liep.index_of(0, c, 0, dd, 0)]
        == (cyc(3) if (b == c and a == dd) else ZERO)
        for a in d.ctx3.cls
        for b in d.ctx3.cls
        for c in d.ctx3.cls
        for dd in d.ctx3.cls
    )
    checks.append(_check("c13 K+ = 3 delta_bc delta_ad", ok))
    liem = lie_cpi(d.ctx3, d.pipm[1])
    Km = killing_form(liem)
    checks.append(
        _check(
            "c13 both 9x9 Gram matrices invertible",
            linalg.rank(Kp) == 9 and linalg.rank(Km) == 9,
        )
    )
    computed_pattern = [
        [
            Km[liem.index_of(0, dd, 0, b, 0)][liem.index_of(0, b, 0, dd, 0)]
            for dd in (d.u, d.v, d.w)
        ]
        for b in (d.u, d.v, d.w)
    ]
    closed_minus = [[-1, -3, -1], [1, 3, 1], [-1, -3, -1]]
    checks.append(
        _check(
            "c13 divergence: K- from the closed formula differs from the printed pattern",
            all(
                computed_pattern[i][j] == cyc(closed_minus[i][j])
                for i in range(3)
                for j in range(3)
            ),
            "printed [[1,-3,-1],[-1,-3,-1],[-1,-3,1]]; see notes",
        )
    )
    q = d.q
    okq = True
    for j in (1, 2):
        lie_j = lie_cpi(d.ctx2, d.pi[j])
        Kj = killing_form(lie_j)
        expect = q ** (2 * j)
        for a in d.ctx2.cls:
            for b in d.ctx2.cls:
                for c in d.ctx2.cls:
                    for dd in d.ctx2.cls:
                        want = expect if (a == b and c == dd) else ZERO
                        if Kj[lie_j.index_of(0, a, 0, b, 0)][lie_j.index_of(0, c, 0, dd, 0)] != want:
                            okq = False
    checks.append(_check("c13 3-cycle class gives q^{2j} delta delta for j = 1, 2", okq))
    lie0 = lie_cpi(d.ctx2, d.pi[0])
    K0 = killing_form(lie0)
    ok0 = all(
        K0[lie0.index_of(0, a, 0, b, 0)][lie0.index_of(0, c, 0, dd, 0)]
        == (cyc(4) if (a == b and c == dd) else ZERO)
        for a in d.ctx2.cls
        for b in d.ctx2.cls
        for c in d.ctx2.cls
        for dd in d.ctx2.cls
    )
    checks.append(
        _check(
            "c13 divergence: j = 0 gives 1 + q^0 + 2 q^0 = 4, not q^0 = 1",
            ok0,
            "the printed simplification needs 1 + q^j + q^{2j} = 0",
        )
    )
    oracle = killing_trace_oracle(liep)
    checks.append(
        _check(
            "c13 trace oracle matches the closed formula for pi_+",
            all(oracle[i][j] == Kp[i][j] for i in range(9) for j in range(9)),
        )
    )
    oracle_m = killing_trace_oracle(liem)
    checks.append(
        _check(
            "c13 divergence: trace composition differs from the closed formula for pi_-",
            any(oracle_m[i][j] != Km[i][j] for i in range(9) for j in range(9)),
            "the two printed derivations disagree; see notes",
        )
    )
    return checks


# -- criterion 14: covering maps --------------------------------------------------------------


def criterion_14():
    d = S3Data.get()
    G = d.G
    checks = []
    img_p = covering_map_image([(d.ctx3, d.pipm[0])])
    img_m = covering_map_image([(d.ctx3, d.pipm[1])])
    checks.append(
        _check(
            "c14 surjectivity for ({u,v,w}, pi_pm)",
            img_p["surjective"] and img_m["surjective"] and img_p["classes_generate"],
        )
    )
    dims = {}
    for pi in centralizer_irreps(d.ctx1):
        dims[pi.dim if not pi.is_trivial() else 0] = covering_map_image(
            [(d.ctx1, pi)]
        )["dimension"]
    checks.append(
        _check(
            "c14 image dimensions 1, 2, 6 for the point class",
            dims.get(0) == 1 and dims.get(1) == 2 and dims.get(2) == 6,
            str(dims),
        )
    )
    okdims = all(
        covering_map_image([(d.ctx2, d.pi[j])])["dimension"] == 6 for j in (0, 1, 2)
    )
    checks.append(_check("c14 image dimension 6 for the 3-cycle blocks", okdims))
    r11 = inclusion_element(d.ctx2, d.pi[1], "uv", 0, "uv", 0)
    r22 = inclusion_element(d.ctx2, d.pi[1], "vu", 0, "vu", 0)
    ok1 = r11.dg_mul(r11) == r22
    expected = DoubleElement(
        G, {(d.e, d.e): ONE, (d.vu, d.e): ONE, (d.uv, d.e): ONE}
    )
    ok2 = r11.dg_mul(r22) == expected
    checks.append(_check("c14 (r_1^1)^2 = r_2^2 and r_1^1 r_2^2 = (d_e + d_vu + d_uv) (x) e", ok1 and ok2))
    return checks


# -- criterion 15: property suites -------------------------------------------------------------


def criterion_15():
    d = S3Data.get()
    G = d.G
    checks = []
    n = G.n
    basis = [(g, h) for g in range(n) for h in range(n)]
    structures = (
        (DoubleElement.dg_coproduct, DoubleElement.dg_mul, DoubleElement.dg_antipode),
        (DoubleElement.dvee_coproduct, DoubleElement.dvee_mul, DoubleElement.dvee_antipode),
    )
    # the first failing axiom and basis key (pair, for the bialgebra) of either structure
    L = G.labels
    hopf = bialgebra = ""
    for coproduct, product, antipode in structures:
        found = hopf_failures(G, coproduct, product, antipode)
        for axiom in ("coassociativity", "counit", "antipode"):
            if found[axiom] and not hopf:
                g, h = found[axiom][0]
                hopf = f"{axiom} fails for {coproduct.__name__} at d_{L[g]}|{L[h]}"
        if found["bialgebra"] and not bialgebra:
            (g, h), (u, v) = found["bialgebra"][0]
            bialgebra = f"{product.__name__} fails at a = d_{L[g]}|{L[h]}, b = d_{L[u]}|{L[v]}"
    checks.append(_check("c15 Hopf axioms for both structures on the full S3 basis", not hopf, hopf))
    checks.append(_check("c15 bialgebra compatibility on all S3 pairs", not bialgebra, bialgebra))
    # star, pairing and quantum Killing form identities
    ok = all(
        DoubleElement.basis(G, g, h).star().star() == DoubleElement.basis(G, g, h)
        for (g, h) in basis
    )
    checks.append(_check("c15 star is involutive", ok))
    ok = True
    for (g, h) in basis:
        x = DoubleElement.basis(G, g, h)
        rebuilt = DoubleElement(G)
        for gg in range(n):
            for hh in range(n):
                c = killing_Q(x, DoubleElement.basis(G, gg, G.conj(G.inv[gg], hh)))
                if c:
                    rebuilt = rebuilt + DoubleElement.basis(G, hh, gg, c)
        if rebuilt != x:
            ok = False
    checks.append(_check("c15 factorisability: the Killing pairing inverts to the identity", ok))
    # Schur orthogonality for the irreducible catalogue
    ok = True
    irreps = irrep_catalog(G)
    for r1 in irreps:
        for r2 in irreps:
            for i in range(r1.dim):
                for j in range(r1.dim):
                    for k in range(r2.dim):
                        for l in range(r2.dim):
                            total = ZERO
                            for g in range(n):
                                total = total + r1.matrices[g][i][j] * r2.matrices[G.inv[g]][k][l]
                            expected = ZERO
                            if r1 is r2 and i == l and k == j:
                                expected = cyc(Fraction(n, r1.dim))
                            if total != expected:
                                ok = False
    checks.append(_check("c15 Schur orthogonality for the S3 catalogue", ok))
    # Yang-Baxter and second-inverse identities for each S3 block
    ok_ybe = True
    ok_inv = True
    for ctx, pi in double_irreps(G):
        if ctx.rep == 0 and pi.is_trivial():
            continue
        rm = BlockRMatrices((ctx, pi), (ctx, pi))
        ok_ybe = ok_ybe and rm.yang_baxter_holds()
        ok_inv = ok_inv and rm.second_inverse_holds()
    checks.append(_check("c15 Yang-Baxter equation for each block R-matrix", ok_ybe))
    checks.append(_check("c15 second-inverse identities", ok_inv))
    # crossed-module braid relation on V (x) V (x) V
    ok = True
    for ctx, pi in double_irreps(G):
        module = build_VCpi(ctx, pi)
        psi = module.braiding_with(module)
        ok = _braid_relation_holds(lambda i, j: dict(psi(i, j)), module.dim) and ok
    checks.append(_check("c15 braid relation for the crossed-module braiding", ok))
    bd = bdg_braided_checks(G)
    checks.append(_check("c15 braided Hopf structure of the transmuted double", all(bd.values()), str(bd)))
    return checks


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
    criterion_14,
    criterion_15,
]


def run_regression():
    return [check for crit in ALL_CRITERIA for check in crit()]
