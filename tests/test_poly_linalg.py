import math
import random
from fractions import Fraction

import pytest

from qdouble.cyclotomic import Cyc, cyc, root_of_unity
from qdouble.poly import Poly, RatFunc, poly_gcd
from qdouble.quadalg import QuadAlg
import qdouble.linalg as la


def test_poly_arithmetic():
    V = ("x", "y")
    x, y = Poly.variable("x", V), Poly.variable("y", V)
    p = (x + y) ** 2
    assert p == x * x + x * y * 2 + y * y
    assert p.substitute({"x": 1, "y": 2}).as_cyc() == cyc(9)
    assert p.degree("x") == 2 and p.degree() == 2
    assert (p - p).is_zero()


def test_poly_hash_agrees_with_aligning_eq():
    x, y = Poly.variable("x", ("x", "y")), Poly.variable("y", ("x", "y"))
    p = x * root_of_unity(3, 1) + y * y
    swapped = Poly.variable("x", ("y", "x")) * root_of_unity(3, 1).promote(6) + (
        Poly.variable("y", ("y", "x")) ** 2
    )
    wider = p.extend(("x", "y", "z"))
    assert p == swapped == wider
    assert hash(p) == hash(swapped) == hash(wider)
    assert len({p, swapped, wider}) == 1
    V = ("x",)
    for value in (3, Fraction(-2, 5), cyc(3), root_of_unity(4, 1), 0):
        const = Poly.constant(value, V)
        for other in (value, cyc(value), Poly.constant(value), Poly.constant(value, ("y", "z"))):
            assert const == other and hash(const) == hash(other), (value, other)
    assert hash(Poly(V)) == hash(0) and Poly(V) == 0


def test_poly_conj_fixes_real_parameters():
    V = ("t",)
    t = Poly.variable("t", V)
    i = root_of_unity(4, 1)
    p = t * i + Poly.constant(3, V)
    assert p.conj() == t * root_of_unity(4, 3) + Poly.constant(3, V)


def test_gcd():
    V = ("x", "y")
    x, y = Poly.variable("x", V), Poly.variable("y", V)
    a = (x - y) * (x + cyc(2))
    b = (x - y) * (x * x + y)
    g = poly_gcd(a, b)
    assert g.monic_normalize() == (x - y).monic_normalize()


def test_ratfunc_field():
    V = ("x",)
    x = Poly.variable("x", V)
    f = RatFunc(x * x - Poly.constant(1, V), x - Poly.constant(1, V))
    assert f.as_poly() == x + Poly.constant(1, V)
    g = RatFunc(Poly.constant(1, V), x)
    assert (g * RatFunc(x)).as_poly() == Poly.constant(1, V)
    with pytest.raises(ZeroDivisionError):
        g / RatFunc(Poly.constant(0, V))


def test_exact_dense_linear_algebra():
    m = [[cyc(2), cyc(1)], [cyc(1), cyc(1)]]
    inv = la.inverse(m)
    assert la.mat_eq(la.mat_mul(m, inv), la.identity(2, cyc(1), cyc(0)))
    assert la.rank(m) == 2
    singular = [[cyc(1), cyc(2)], [cyc(2), cyc(4)]]
    assert la.rank(singular) == 1
    ns = la.nullspace(singular, 2, cyc(1), cyc(0))
    assert len(ns) == 1
    assert la.solve(singular, [cyc(1), cyc(2)]) is not None
    assert la.solve(singular, [cyc(1), cyc(3)]) is None


def test_sparse_span():
    span = la.SparseSpan()
    assert span.add({0: cyc(1), 1: cyc(2)})
    assert span.add({1: cyc(1)})
    assert not span.add({0: cyc(3), 1: cyc(1)})
    assert span.rank == 2
    assert span.contains({0: cyc(5), 1: cyc(-1)})
    assert not span.contains({2: cyc(1)})


def _accumulation_pairs(rng):
    """Seeded (key, Cyc) pairs at orders 1, 2, 3, 4 and 12, shuffled.

    Even keys cancel: each term comes with its negative.  An odd key's terms
    are q + c zeta with q > |c|, so every partial sum has a positive
    normalised trace and is never zero on the way."""
    pairs = []
    for key in range(12):
        terms = []
        for _ in range(rng.randint(1, 4)):
            order = rng.choice([1, 2, 3, 4, 12])
            c = rng.randint(-3, 3)
            q = Fraction(abs(c) + rng.randint(1, 3), rng.randint(1, 2))
            terms.append(Cyc.rational(q) + root_of_unity(order, rng.randrange(order)) * c)
        if key % 2 == 0:
            terms += [-t for t in terms]
        pairs += [(key, t) for t in terms]
    rng.shuffle(pairs)
    return pairs


def test_accumulate_is_the_zero_free_per_key_sum():
    pairs = _accumulation_pairs(random.Random(23))
    got = la._accumulate(pairs)
    chain, orders = {}, {}
    for key, c in pairs:
        chain[key] = chain.get(key, cyc(0)) + c
        orders[key] = math.lcm(orders.get(key, 1), c.order)
    assert got == {k: v for k, v in chain.items() if v}
    assert sorted(got) == list(range(1, 12, 2))
    assert all(got.values())
    assert {k: v.order for k, v in got.items()} == {k: chain[k].order for k in got}
    assert all(v.order == orders[k] for k, v in got.items())
    assert len({v.order for v in got.values()}) >= 3


def test_addto_deletes_a_key_that_cancels():
    z = root_of_unity(12, 5)
    d = {"a": z, "b": cyc(1)}
    la._addto(d, "a", -z)
    la._addto(d, "c", cyc(0))
    assert d == {"b": cyc(1)}
    la._addto(d, "b", cyc(2))
    assert d == {"b": cyc(3)}


def _random_entry(rng):
    if rng.random() < 0.4:
        return cyc(0)
    order = rng.choice([1, 2, 3, 4])
    return Cyc(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)])


def test_sparse_span_matches_dense_rank():
    rng = random.Random(5)
    for _ in range(20):
        ncols = rng.randint(2, 7)
        base = [[_random_entry(rng) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]

        def combination():
            row = [cyc(0)] * ncols
            for b in base:
                c = _random_entry(rng)
                row = [x + c * y for x, y in zip(row, b)]
            return row

        rows = [combination() for _ in range(rng.randint(1, 6))]
        span = la.SparseSpan()
        for row in rows:
            span.add(dict(enumerate(row)))
        assert span.rank == la.rank(rows)
        for row in [combination(), [_random_entry(rng) for _ in range(ncols)]]:
            unchanged = la.rank(rows + [row]) == la.rank(rows)
            assert span.contains(dict(enumerate(row))) == unchanged


def test_echelon_span_clears_pivot_column_brought_in_by_a_subtraction():
    span = la.SparseSpan()
    assert span.add({(0, 1): cyc(1), (0, 2): cyc(1)})
    # pivot (0, 2) arrives after the stored row (0, 1) + (0, 2) that is nonzero on it
    assert span.add({(0, 2): cyc(1), (1, 0): cyc(1)})
    # (0, 1) - (1, 0): clearing (0, 1) brings in (0, 2), which must be cleared too
    difference = {(0, 1): cyc(1), (1, 0): cyc(-1)}
    assert span.contains(difference)
    assert not span.add(difference)
    assert not span.contains({(1, 0): cyc(1)})
    assert span.rank == 2


def test_echelon_span_with_tuple_keys_matches_dense_rank():
    rng = random.Random(11)
    keys = [(i, j) for i in range(3) for j in range(3)]
    entries = [cyc(0), cyc(0), cyc(1), cyc(-2), root_of_unity(3, 1), root_of_unity(3, 2) + cyc(1)]
    later_pivot_seen = False
    for _ in range(25):
        base = [[rng.choice(entries) for _ in keys] for _ in range(rng.randint(2, 5))]

        def combination():
            row = [cyc(0)] * len(keys)
            for b in base:
                c = rng.choice(entries)
                row = [x + c * y for x, y in zip(row, b)]
            return dict(zip(keys, row))

        rows = [combination() for _ in range(rng.randint(2, 7))]
        probes = [combination(), {k: rng.choice(entries) for k in keys}]
        dense = [[row[k] for k in keys] for row in rows]
        # as drawn, and by ascending leading key, so that rows stored early are
        # nonzero on pivot columns added later
        by_leading_key = sorted(rows, key=lambda row: min((k for k, v in row.items() if v), default=keys[-1]))
        for order in (rows, by_leading_key):
            span = la.SparseSpan()
            for row in order:
                span.add(row)
            later_pivot_seen |= any(k != col and k in span.pivots for col, r in span.pivots.items() for k in r)
            assert span.rank == la.rank(dense)
            for probe in probes:
                unchanged = la.rank(dense + [[probe[k] for k in keys]]) == la.rank(dense)
                assert span.contains(probe) == unchanged
    assert later_pivot_seen


def _mat_vec(a, v):
    """The dense product of a matrix and a vector."""
    return [r[0] for r in la.mat_mul(a, [[x] for x in v])]


def _gauss_jordan(matrix):
    """Reference rref: the dense Gauss-Jordan loop, which touches every entry."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _oracle_matrices():
    """Seeded Cyc matrices: orders 1, 2, 3, 4 and 12, dependent rows, wide and
    tall shapes, and in some the zeros carry an order above the other entries."""
    rng = random.Random(9)
    cases = []
    for orders in ([1], [2], [3], [4], [12], [1, 3], [2, 4], [3, 4, 12]):
        for nrows, ncols in ((2, 5), (5, 2), (4, 4), (6, 3), (3, 7)):
            high_zero = rng.random() < 0.5
            zero = cyc(0).promote(12 if high_zero else 1)

            def entry():
                if rng.random() < 0.4:
                    return zero
                n = rng.choice(orders)
                return Cyc(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])

            base = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, nrows))]
            rows = []
            for _ in range(nrows):
                if rng.random() < 0.5:
                    rows.append([entry() for _ in range(ncols)])
                else:
                    # a combination of the base rows, so the rows are dependent
                    row = [zero] * ncols
                    for b in base:
                        c = entry()
                        row = [x + c * y for x, y in zip(row, b)]
                    rows.append(row)
            cases.append(rows)
    return cases


def test_rref_views_of_the_span_match_the_dense_reference():
    one, zero = cyc(1), cyc(0)
    rng = random.Random(13)
    for matrix in _oracle_matrices():
        nrows, ncols = len(matrix), len(matrix[0])
        ref_rows, ref_pivots = _gauss_jordan(matrix)
        rows, pivots = la.rref(matrix)
        assert pivots == ref_pivots
        assert rows == ref_rows
        tag = math.lcm(*(x.order for row in matrix for x in row))
        assert all(x.order == tag for row in rows for x in row)
        assert la.rank(matrix) == len(ref_pivots)
        span = la.SparseSpan()
        for row in matrix:
            span.add(dict(enumerate(row)))
        probes = [[cyc(rng.randint(-2, 2)) for _ in range(ncols)], [x + y for x, y in zip(*matrix[:2])]]
        for probe in probes:
            unchanged = len(_gauss_jordan(matrix + [probe])[1]) == len(ref_pivots)
            assert span.contains(dict(enumerate(probe))) == unchanged
        kernel = la.nullspace(matrix, ncols, one, zero)
        assert len(kernel) == ncols - len(ref_pivots)
        for vec in kernel:
            assert not any(_mat_vec(matrix, vec))
        point = [cyc(rng.randint(-2, 2)) for _ in range(ncols)]
        for rhs in (_mat_vec(matrix, point), [cyc(rng.randint(-2, 2)) for _ in range(nrows)]):
            inconsistent = ncols in _gauss_jordan([row + [b] for row, b in zip(matrix, rhs)])[1]
            x = la.solve(matrix, rhs)
            assert (x is None) == inconsistent
            if x is not None:
                assert _mat_vec(matrix, x) == rhs
        if nrows == ncols == len(ref_pivots):
            assert la.mat_eq(la.mat_mul(la.inverse(matrix), matrix), la.identity(ncols, one, zero))


def test_rref_over_rational_functions_matches_the_dense_reference():
    V = ("x", "y")
    x, y = (RatFunc(Poly.variable(v, V)) for v in V)
    c = lambda v: RatFunc(Poly.constant(v, V))
    matrix = [
        [x, c(1), y, c(0)],
        [x * y, y, y * y, c(2)],
        [c(0), x - y, c(1), x],
        [x * x, x, x * y, c(0)],
    ]
    assert la.rref(matrix) == _gauss_jordan(matrix)
    assert la.rank(matrix) == 3


def test_nullspace_of_no_equations_is_the_standard_basis():
    one, zero = cyc(1), cyc(0)
    assert la.nullspace([], 3, one, zero) == la.identity(3, one, zero)


def _reference_mat_mul(a, b):
    """The product loop (i, j, t) that ``mat_mul`` replaced, which tests
    a[i][t] again for every column j."""
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = None
            for t in range(k):
                if ai[t]:
                    term = ai[t] * b[t][j]
                    acc = term if acc is None else acc + term
            if acc is None:
                acc = ai[0] * 0
            row.append(acc)
        out.append(row)
    return out


def test_mat_mul_equals_the_reference_loop_with_order_tags():
    """Same values and order tags as the (i, j, t) loop, zero rows of a
    (whose entries are a[i][0] * 0) and zero columns of b included."""
    rng = random.Random(17)
    matrices = _oracle_matrices()
    shapes = matrices + [la.transpose(m) for m in matrices]
    seen_zero_row = False
    for a in matrices:
        k = len(a[0])
        b = rng.choice([m for m in shapes if len(m) == k])
        a = [list(row) for row in a]
        for row in a:
            if rng.random() < 0.3:  # an all-zero row, zeros of mixed tags
                row[:] = [cyc(0).promote(rng.choice([1, 3, 4])) for _ in row]
                seen_zero_row = True
        got, want = la.mat_mul(a, b), _reference_mat_mul(a, b)
        assert [[(x.order, x.coeffs) for x in row] for row in got] == [
            [(x.order, x.coeffs) for x in row] for row in want
        ]
    assert seen_zero_row
    V = ("x", "y")
    x, y = Poly.variable("x", V), Poly.variable("y", V)
    zero = Poly.constant(0, V)
    a = [[x, zero], [zero, zero], [y, x * y]]
    b = [[y, zero, x], [x, x + y, zero]]
    got, want = la.mat_mul(a, b), _reference_mat_mul(a, b)
    assert got == want and [[_tagged(p) for p in row] for row in got] == [
        [_tagged(p) for p in row] for row in want
    ]


def _generators(n):
    return [f"x{i}" for i in range(n)]


def test_quadalg_free_algebra():
    """No relations: dim T^d = n^d, and 0 in negative degrees."""
    for n in range(1, 5):
        alg = QuadAlg(_generators(n), [])
        assert alg.hilbert_prefix(5) == [n**d for d in range(6)]
        assert alg.graded_dimension(-1) == 0


def test_quadalg_symmetric_square():
    """Commutation relations x_i x_j = x_j x_i give the symmetric algebra,
    dim S^d = C(n + d - 1, d)."""
    for n in range(1, 5):
        relations = []
        for i in range(n):
            for j in range(i + 1, n):
                relations.append({(i, j): cyc(1), (j, i): cyc(-1)})
        alg = QuadAlg(_generators(n), relations)
        assert alg.hilbert_prefix(5) == [math.comb(n + d - 1, d) for d in range(6)]


def test_quadalg_grassmann():
    """Anticommutation relations give the exterior algebra, dim = C(n, d),
    which is 0 above n."""
    for n in range(1, 5):
        relations = [{(i, j): cyc(1), (j, i): cyc(1)} for i in range(n) for j in range(i, n)]
        alg = QuadAlg(_generators(n), relations)
        assert alg.hilbert_prefix(5) == [math.comb(n, d) for d in range(6)]


def test_quadalg_inhomogeneous_parts_count():
    # one homogeneous + one inhomogeneous relation with the same top part
    relations = [{(0, 1): cyc(1)}]
    inhom = [({(0, 1): cyc(1)}, cyc(-1))]
    alg = QuadAlg(["a", "b"], relations, inhomogeneous=inhom)
    assert alg.graded_dimension(2) == 3


# -- Poly invariants: every result is zero-free and over len(vars) exponents ------------

VARSETS = (("x", "y"), ("y", "x"), ("y", "z"), ("x", "y", "z"), ("z",), ())
ORDERS = (1, 2, 3, 4, 12)


def _random_cyc(rng):
    order = rng.choice(ORDERS)
    return Cyc(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)])


def _random_poly(rng, variables):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[tuple(rng.randint(0, 2) for _ in variables)] = _random_cyc(rng)
    return Poly(variables, terms)


def _tagged(p):
    return p.vars, sorted((e, c.order, c.coeffs) for e, c in p.terms.items())


def _assert_invariant(r):
    rebuilt = Poly(r.vars, r.terms)
    assert r == rebuilt and _tagged(r) == _tagged(rebuilt)
    assert all(r.terms.values())
    assert all(len(e) == len(r.vars) for e in r.terms)
    assert hash(r) == hash(rebuilt) == hash(r.extend(r.vars + ("w",)))


def _poly_pairs(rng, count):
    """(p, q) over mixed variable tuples; q often cancels some terms of p."""
    for _ in range(count):
        p = _random_poly(rng, rng.choice(VARSETS))
        q = _random_poly(rng, rng.choice(VARSETS))
        if p.terms and rng.random() < 0.5:
            cancel = {e: -c for e, c in p.terms.items() if rng.random() < 0.6}
            wider = tuple(dict.fromkeys(q.vars + p.vars))
            q = q.extend(wider) + Poly(p.vars, cancel).extend(wider)
        yield p, q


def test_poly_ring_operations_keep_the_invariant():
    rng = random.Random(15)
    cancelled = 0
    for p, q in _poly_pairs(rng, 300):
        for r in (p + q, p - q, -p, p * q, q + p, q - p, p - p):
            _assert_invariant(r)
        assert p + q == q + p and hash(p + q) == hash(q + p)
        assert p * q == q * p and hash(p * q) == hash(q * p)
        assert (p - q) + q == p and hash((p - q) + q) == hash(p)
        assert not (p - p).terms and (p - p).vars == p.vars
        cancelled += len((p + q).terms) < len(p.terms) + len(q.terms)
    assert cancelled > 50


def test_scalar_product_equals_the_constant_polynomial_product():
    rng = random.Random(16)
    for _ in range(200):
        p = _random_poly(rng, rng.choice(VARSETS))
        scalars = [
            _random_cyc(rng),
            rng.randint(-4, 4),
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            cyc(0),
            0,
        ]
        for c in scalars:
            r = p * c
            _assert_invariant(r)
            assert _tagged(r) == _tagged(p * Poly.constant(c, p.vars))
            assert _tagged(c * p) == _tagged(r)
            if not c:
                assert not r.terms and r.vars == p.vars


@pytest.mark.parametrize(
    "exp", [(1,), (1, 0, 0), (-1, 0), (1.0, 0), ("1", 0), (Fraction(1), 0)]
)
def test_poly_rejects_malformed_exponents(exp):
    with pytest.raises(ValueError):
        Poly(("x", "y"), {exp: 1})
    with pytest.raises(ValueError):
        Poly(("x", "y"), {(0, 0): 1, exp: 0})
