"""Leading-term ``Poly.exact_div``, ``RatFunc`` negation, the ``Cyc``
route of ``ConnectionFamily.reparameterize`` and the Gauss-Jordan pass
``poly._det_adjugate``, against the reference routes in ``poly_reference.py``:
the same values, and on the engine's own data the same ``Cyc`` order tags.
"""

import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from qdouble import geometry, poly
from qdouble.calculus import GroupAlgebraCalculus, lambda_basis
from qdouble.cyclotomic import Cyc, _phi, root_of_unity
from qdouble.geometry import ConnectionFamily, connection_solve, ip_from_lengths
from qdouble.poly import Poly, RatFunc
from qdouble.regression import S3Data
from qdouble.reps import induced_rep
from poly_reference import reference_adjugate, reference_det, reference_exact_div, reference_reparameterize

ORDERS = (1, 3, 4, 12)


def _tagged(p: Poly):
    """The terms with each coefficient's order tag, so equal values at
    different orders compare unequal."""
    return p.vars, {e: (c.order, c.coeffs) for e, c in p.terms.items()}


def _random_cyc(rng):
    n = rng.choice(ORDERS)
    while True:
        c = Cyc(n, [rng.randint(-3, 3) for _ in range(_phi(n))])
        if c:
            return c


def _random_pairs(seed=21, count=300):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        V = ("x", "y", "z")[: rng.randint(1, 3)]
        a, b = (
            Poly(V, {
                tuple(rng.randint(0, 2) for _ in V): _random_cyc(rng)
                for _ in range(rng.randint(1, 4))
            })
            for _ in range(2)
        )
        out.append((a, b))
    return out


def test_exact_div_recovers_the_factor_with_the_reference_tags():
    for a, b in _random_pairs():
        ab = a * b
        q = ab.exact_div(b)
        assert q == a
        assert _tagged(q) == _tagged(reference_exact_div(ab, b))


def test_exact_div_raises_on_a_remainder_and_on_zero():
    nonconstant = 0
    for a, b in _random_pairs(count=60):
        if b.degree() > 0:
            nonconstant += 1
            with pytest.raises(ValueError, match="inexact"):
                (a * b + 1).exact_div(b)
        with pytest.raises(ZeroDivisionError):
            a.exact_div(Poly.constant(0, a.vars))
    assert nonconstant > 40


def _c6_raw_family():
    d = S3Data.get()
    return connection_solve(
        d.basis_end2(), d.ip_stratum(), ["covariant", "torsion_free", "cotorsion_free"]
    )


C6_FUNCTIONALS = [
    ("r", {(3, 2, 2): 1, (3, 3, 3): 1, (3, 0, 0): Fraction(1, 3)}),
    ("s", {(3, 0, 0): Fraction(-1, 6)}),
    ("f", {(3, 3, 3): 1}),
    ("x", {(0, 3, 3): 1}),
]


def test_reparameterize_over_cyc_matches_the_ratfunc_route_on_c6():
    raw = _c6_raw_family()
    new = raw.reparameterize(C6_FUNCTIONALS)
    ref = reference_reparameterize(raw, C6_FUNCTIONALS)
    assert (new.vars, new.params) == (ref.vars, ref.params) == (("r", "s", "f", "x"),) * 2
    assert new.gamma.keys() == ref.gamma.keys()
    for key in ref.gamma:
        assert _tagged(new.gamma[key]) == _tagged(ref.gamma[key]), key
    assert any(c.order > 1 for p in new.gamma.values() for c in p.terms.values())


def test_reparameterize_rejects_a_nonlinear_family():
    V = ("p", "q")
    p, q = (Poly.variable(v, V) for v in V)
    fam = ConnectionFamily(S3Data.get().basis_end2(), {(0, 0, 0): p + p * q, (1, 1, 1): q}, V)
    with pytest.raises(ValueError, match="not constant"):
        fam.reparameterize([("a", {(0, 0, 0): 1}), ("b", {(1, 1, 1): 1})])


def test_ratfunc_negation_keeps_the_reduced_fraction():
    V = ("x", "y")
    x, y = (Poly.variable(v, V) for v in V)
    f = RatFunc(x * x + y * Cyc.zeta(3), (x - y) * (x + 1))
    g = -f
    assert _tagged(g.num) == _tagged(-f.num)
    assert _tagged(g.den) == _tagged(f.den)
    assert g + f == 0


# -- determinant and adjugate ----------------------------------------------------

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=120)
XY = ("x", "y")
MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1))
COEFFICIENT = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(-2, 2, max_denominator=3),
    st.sampled_from([root_of_unity(3, 1), root_of_unity(4, 1)]),
)


@st.composite
def poly_matrices(draw):
    """An n x n matrix over Q(zeta)[x, y], n = 1..4, with entries of degree at
    most one in each variable; half have a zero leading entry, so the pass
    swaps rows or finds det = 0, and a quarter repeat a row, so det = 0."""
    n = draw(st.integers(1, 4))
    entry = st.lists(COEFFICIENT, min_size=4, max_size=4).map(lambda cs: Poly(XY, dict(zip(MONOMIALS, cs))))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = Poly.constant(0, XY)
    if n > 1 and draw(st.integers(0, 3)) == 0:
        rows[-1] = list(rows[draw(st.integers(0, n - 2))])
    return rows


def _oracle_property(routine, config=PROPERTY):
    """The property test of a (det, adjugate) routine against the minor
    oracle: the same det, variables included, and the same adjugate, or no
    adjugate when det = 0."""

    @config
    @given(poly_matrices())
    def check(rows):
        det, adj = routine(rows)
        expected = reference_det(rows)
        assert det == expected and det.vars == expected.vars
        if expected:
            assert adj == reference_adjugate(rows, XY)
        else:
            assert adj is None

    return check


def test_det_adjugate_agrees_with_the_minor_oracle():
    _oracle_property(poly._det_adjugate)()


def test_a_pass_that_skips_the_swap_sign_fails_the_oracle():
    """Negative control: without the sign flip on a row swap the property
    fails (found unshrunk, as only the failure matters here)."""
    source = inspect.getsource(poly._det_adjugate)
    assert source.count("sign = -sign") == 1
    namespace = dict(vars(poly))
    exec(source.replace("sign = -sign", "pass"), namespace)
    with pytest.raises(AssertionError):
        _oracle_property(namespace["_det_adjugate"], settings(PROPERTY, phases=[Phase.generate]))()


def _sign_block_metric():
    """The 1 x 1 metric of the sign calculus: the class of uv with the
    trivial centralizer character induces the sign representation."""
    data = S3Data.get()
    basis = lambda_basis(GroupAlgebraCalculus(induced_rep(data.ctx2, data.pi[0])), preferred=["u"])
    return ip_from_lengths(basis, {"u": Poly.variable("l", ("l",)), "uv": 0}, ("l",))


@pytest.mark.parametrize(
    "build",
    [lambda: S3Data.get().ip_generic(), lambda: S3Data.get().ip_stratum(), _sign_block_metric],
    ids=["generic", "stratum", "sign-block"],
)
def test_metric_det_and_adjugate_keep_the_oracle_tags(build):
    ip = build()
    assert _tagged(ip.det()) == _tagged(reference_det(ip.matrix))
    expected = reference_adjugate(ip.matrix, ip.vars)
    adj = ip.adjugate()
    assert len(adj) == len(expected) == ip.basis.dim
    for row, expected_row in zip(adj, expected):
        assert [_tagged(x) for x in row] == [_tagged(x) for x in expected_row]


def test_an_inner_product_runs_one_pass(monkeypatch):
    calls, run = [], poly._det_adjugate
    monkeypatch.setattr(geometry, "_det_adjugate", lambda rows: calls.append(rows) or run(rows))
    ip = _sign_block_metric()
    assert ip.det() == Poly.variable("l", ("l",)) and ip.adjugate() == [[1]]
    ip.det(), ip.adjugate()
    assert len(calls) == 1
