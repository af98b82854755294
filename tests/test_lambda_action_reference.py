"""The gamma and rho actions on Lambda^1 tensors against the loops they replaced.

Each reference below is the package's code as it stood before the actions
went through ``geometry._contract_leg`` and one factorisation per basis:

- ``reference_coords`` solves one dense system per group element;
- ``reference_covariant`` is the four-deep Gram loop;
- ``reference_covariance_rows`` writes rho(g) Gamma - Gamma rho(g) rho(g)
  entry by entry;
- ``reference_laplacian_residuals`` is the six-deep consistency loop.

They are compared with the package on every S3 block and on the S4 blocks
with dim Lambda^1 <= 5, with the ``Cyc`` order on every coefficient; the
coordinates on every S3 and S4 block.  The premise that gamma and rho are
representations is decided on every S3 and S4 block.  The gamma/rho
commutation names its first failing column, checked against dense products.
"""

import functools
import itertools
import re

import pytest

from qdouble import geometry, linalg
from qdouble.calculus import fodc_group_algebra, lambda_basis
from qdouble.cyclotomic import ONE, ZERO
from qdouble.double import double_irreps
from qdouble.geometry import InnerProduct, connection_solve, laplacian_consistency_residuals
from qdouble.groups import FiniteGroup
from qdouble.poly import Poly
from qdouble.reps import induced_rep


def reference_coords(basis, g):
    """Coordinates of e^g by one dense solve against the basis rows."""
    calc = basis.calculus
    rows = [calc._flatten(calc.e_matrices[b]) for b in basis.basis]
    target = calc._flatten(calc.e_matrices[g])
    return linalg.solve([[row[k] for row in rows] for k in range(len(target))], target)


def reference_covariant(ip):
    dim = ip.basis.dim
    for u in ip.group.generators:
        for mat in (ip.basis.gamma(u), ip.basis.rho_matrix(u)):
            for i in range(dim):
                for j in range(dim):
                    total = Poly.constant(0, ip.vars)
                    for k in range(dim):
                        if mat[i][k]:
                            for l in range(dim):
                                if mat[j][l]:
                                    total = total + ip.matrix[k][l] * (mat[i][k] * mat[j][l])
                    if total != ip.matrix[i][j]:
                        return False
    return True


def reference_covariance_rows(basis):
    dim = basis.dim
    index = [(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)]
    pos = {t: a for a, t in enumerate(index)}
    rows = []
    for g in basis.group.generators:
        r = basis.rho_matrix(g)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    row = [ZERO] * len(index)
                    for l in range(dim):
                        if r[i][l]:
                            row[pos[(l, j, k)]] = row[pos[(l, j, k)]] + r[i][l]
                    for m in range(dim):
                        if r[m][j]:
                            for l in range(dim):
                                if r[l][k]:
                                    row[pos[(i, m, l)]] = row[pos[(i, m, l)]] - r[m][j] * r[l][k]
                    if any(row):
                        rows.append(row)
    return rows


def reference_laplacian_residuals(family, ip, lambdas):
    basis = family.basis
    group = basis.group
    dim = family.dim
    lam = geometry.covariant_operator(group, lambdas)
    out = []
    for h in range(group.n):
        alpha = basis.coords(h)
        for g in range(group.n):
            hg = group.table[h][group.inv[g]]
            lhs = (
                -(geometry._pc(lam[hg], ip.vars) - geometry._pc(lam[g], ip.vars))
                + ip.length_of(hg)
                - ip.length_of(g)
            )
            ginv = basis.gamma(group.inv[g])
            rhs = None
            for i in range(dim):
                if not alpha[i]:
                    continue
                for l in range(dim):
                    if not ginv[i][l]:
                        continue
                    for a in range(dim):
                        for k in range(dim):
                            if not ip.matrix[a][k]:
                                continue
                            t = family.gamma[(l, a, k)] * (
                                ip.matrix[a][k] * alpha[i] * ginv[i][l]
                            )
                            rhs = t if rhs is None else rhs + t
            res = lhs - rhs if rhs is not None else lhs
            if res:
                out.append(res)
    return geometry._dedupe(out)


def _tagged_scalars(values):
    return [(x.order, x.coeffs) for x in values]


def _tagged(polys):
    return [(p.vars, sorted((e, c.order, c.coeffs) for e, c in p.terms.items())) for p in polys]


@functools.cache
def _blocks(degree):
    group = FiniteGroup.symmetric(degree)
    return [
        (group, fodc_group_algebra(induced_rep(ctx, pi)))
        for ctx, pi in double_irreps(group)
        if not (ctx.rep == 0 and pi.is_trivial())
    ]


def _bases(degree, max_dim=None):
    out = []
    for group, calc in _blocks(degree):
        if calc.lambda_dim and (max_dim is None or calc.lambda_dim <= max_dim):
            out.append(lambda_basis(calc))
    return out


SMALL = [(3, None), (4, 5)]


def _class_variables(group):
    """One variable per class up to inversion, and the class leaders named."""
    leaders = []
    for cls_ in group.conjugacy_classes():
        inv0 = group.class_inverse(cls_)[0]
        if cls_[0] and inv0 not in leaders:
            leaders.append(cls_[0])
    return leaders, tuple(f"l{k}" for k in range(len(leaders)))


def _inner_product(basis):
    leaders, names = _class_variables(basis.group)
    lam = tuple(f"lam{k}" for k in range(len(basis.group.conjugacy_classes())))
    V = names + lam
    ip = InnerProduct(basis, {c: Poly.variable(v, V) for c, v in zip(leaders, names)}, V)
    lambdas = {cls_[0]: Poly.variable(v, V) for cls_, v in zip(basis.group.conjugacy_classes(), lam)}
    lambdas[0] = 0
    return ip, lambdas


@pytest.mark.parametrize("degree", [3, 4])
def test_coords_equal_the_per_element_solve_with_order_tags(degree):
    for basis in _bases(degree):
        for g in range(basis.group.n):
            assert _tagged_scalars(basis.coords(g)) == _tagged_scalars(reference_coords(basis, g))


@pytest.mark.parametrize("degree", [3, 4])
def test_gamma_and_rho_are_representations(degree):
    for basis in _bases(degree):
        basis.check_representations()


@pytest.mark.parametrize("degree, max_dim", SMALL)
def test_gram_covariance_equals_the_reference_loop(degree, max_dim):
    verdicts = []
    for basis in _bases(degree, max_dim):
        ip, _ = _inner_product(basis)
        verdicts.append(ip.covariant())
        assert verdicts[-1] == reference_covariant(ip)
        # a Gram matrix moved off the covariant ones at one entry
        ip.matrix[0][-1] = ip.matrix[0][-1] + ONE
        verdicts.append(ip.covariant())
        assert verdicts[-1] == reference_covariant(ip)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("degree, max_dim", SMALL)
def test_covariance_nullspace_equals_the_reference_rows_with_order_tags(degree, max_dim, monkeypatch):
    seen = []
    nullspace = linalg.nullspace

    def spy(rows, ncols, one, zero):
        out = nullspace(rows, ncols, one, zero)
        seen.append(out)
        return out

    monkeypatch.setattr(linalg, "nullspace", spy)
    for basis in _bases(degree, max_dim):
        seen.clear()
        connection_solve(basis, None, ["covariant"])
        n = basis.dim ** 3
        want = nullspace(reference_covariance_rows(basis), n, ONE, ZERO)
        assert [_tagged_scalars(v) for v in seen[0]] == [_tagged_scalars(v) for v in want]


@pytest.mark.parametrize("degree, max_dim", SMALL)
def test_laplacian_residuals_equal_the_reference_loop_with_order_tags(degree, max_dim):
    for basis in _bases(degree, max_dim):
        ip, lambdas = _inner_product(basis)
        family = connection_solve(basis, ip, ["covariant", "torsion_free"])
        got = laplacian_consistency_residuals(family, ip, lambdas)
        want = reference_laplacian_residuals(family, ip, lambdas)
        assert got == want
        assert _tagged(got) == _tagged(want)


def _s3_basis():
    group, calc = _blocks(3)[-1]  # the 3-cycle class with a complex character
    return group, lambda_basis(calc)


def test_corrupted_gamma_fails_the_premise_naming_the_pair():
    group, basis = _s3_basis()
    s = group.generators[0]
    bad = [list(row) for row in basis.gamma(s)]
    bad[0][0] = bad[0][0] + ONE
    basis._gamma_cache[s] = bad
    with pytest.raises(ValueError, match=r"gamma: not a homomorphism at \(\d+,\d+\)") as info:
        basis.check_representations()
    g, t = map(int, re.search(r"\((\d+),(\d+)\)", str(info.value)).groups())
    assert t in group.generators
    assert not linalg.mat_eq(linalg.mat_mul(basis.gamma(g), basis.gamma(t)), basis.gamma(group.table[g][t]))


def test_corrupted_rho_makes_connection_solve_refuse():
    group, basis = _s3_basis()
    s = group.generators[-1]
    bad = [list(row) for row in basis.rho_matrix(s)]
    bad[0], bad[1] = bad[1], bad[0]
    basis._rho_cache[s] = bad
    with pytest.raises(ValueError, match=r"rho: not a homomorphism at \(\d+,\d+\)"):
        connection_solve(basis, None, ["covariant"])


def _dense_column(matrix, j):
    return [(i, row[j]) for i, row in enumerate(matrix) if row[j]]


def test_corrupted_rho_names_the_commutation_witness():
    """Negative control: with one rho(s) entry moved, the first failure is a
    (g, s, j) at which column j of gamma(g) rho(s) and of
    rho(s) gamma(s^-1 g s) differ as dense products, with every earlier
    (g, k) pair agreeing."""
    group, basis = _s3_basis()
    assert basis._gamma_rho_first_failure() is None
    s = group.generators[-1]
    bad = [list(row) for row in basis.rho_matrix(s)]
    bad[0][0] = bad[0][0] + ONE
    basis._rho_cache[s] = bad
    g, k, j, lhs, rhs = basis._gamma_rho_first_failure()
    assert k == s

    def sides(g, k):
        return (
            linalg.mat_mul(basis.gamma(g), basis.rho_matrix(k)),
            linalg.mat_mul(basis.rho_matrix(k), basis.gamma(group.conj(group.inv[k], g))),
        )

    dense_lhs, dense_rhs = sides(g, k)
    assert lhs == _dense_column(dense_lhs, j) and rhs == _dense_column(dense_rhs, j)
    assert lhs != rhs
    pairs = list(itertools.product(range(group.n), group.generators))
    assert all(linalg.mat_eq(*sides(h, t)) for h, t in pairs[: pairs.index((g, k))])
    assert all(_dense_column(dense_lhs, i) == _dense_column(dense_rhs, i) for i in range(j))
    with pytest.raises(ValueError, match=r"rho: not a homomorphism at \(\d+,\d+\)"):
        basis.gamma_rho_commutation_holds()
