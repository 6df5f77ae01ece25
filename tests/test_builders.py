"""The row builders behind the isotropy, soliton and invariant-form systems.

Each builder visits only part of the index tuples; the references here visit
all of them and serve as the oracle.
"""

import itertools
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from metriclie.algebra import bracket, change_of_basis
from metriclie.catalog import get
from metriclie.connection import (_derivation_rows, _isotropy_basis, curvature,
                                  h3_isotropy, is_derivation, levi_civita,
                                  linearized_isotropy_dim, soliton_solve)
from metriclie.forms import (_skew_form_rows, invariant_form_space,
                             is_ad_invariant, transform_form)
from metriclie.linalg import (basis_vector, determinant, mat_vec, nullspace,
                              rank, row_space)

SOURCES = {"g0": "gmatrix0", "g1": "gmatrix0", "r+sl2": "killing+1",
           "r+so3": "killing+1"}

rationals = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2)))
matrices = st.lists(st.lists(rationals, min_size=4, max_size=4),
                    min_size=4, max_size=4).filter(determinant)


def _moved(name, P):
    entry = get(name)
    return (change_of_basis(entry.algebra, P),
            transform_form(entry.invariant_forms[SOURCES[name]], P))


def _double_bracket(g):
    n = g.dim
    return [[[bracket(g, g.bracket_basis(i, j), basis_vector(n, k))
              for k in range(n)] for j in range(n)] for i in range(n)]


def _reference_derivation_rows(T, p):
    """S T(x_1..x_p) = sum_s T(.., S x_s, ..) on every basis tuple."""
    n = len(T)

    def at(idx):
        out = T
        for i in idx:
            out = out[i]
        return out

    rows = []
    for idx in itertools.product(range(n), repeat=p):
        for comp in range(n):
            row = [F(0)] * (n * n)
            for l in range(n):
                row[comp * n + l] += at(idx)[l]
                for s in range(p):
                    row[l * n + idx[s]] -= at(idx[:s] + (l,) + idx[s + 1:])[comp]
            rows.append(tuple(row))
    return rows


def _dense(row, size):
    """A sparse builder row, its (col, coefficient) pairs summed per column."""
    out = [F(0)] * size
    for col, x in row:
        out[col] += x
    return tuple(out)


def _reference_skew_rows(B):
    """<Sx, y> + <x, Sy> = 0 on every basis pair (x, y)."""
    n = B.dim
    rows = []
    for x, y in itertools.product(range(n), repeat=2):
        row = [F(0)] * (n * n)
        for l in range(n):
            row[l * n + x] += B.matrix[l][y]
            row[l * n + y] += B.matrix[x][l]
        rows.append(tuple(row))
    return rows


def _reference_isotropy(B, T, p):
    """Row space of the S (as n^2 row-major entries) skew for B that are
    derivations of T, from the full systems in all n^2 entries of S."""
    rows = _reference_skew_rows(B) + _reference_derivation_rows(T, p)
    return row_space(nullspace(rows))


def _isotropy_space(B, T):
    return row_space([sum(S, ()) for S in _isotropy_basis(B, T)] or
                     [(F(0),) * (B.dim * B.dim)])


def _reference_skew_form_rows(n, maps):
    """Q(Ax, y) + Q(x, Ay) = 0 on every basis pair (x, y)."""
    slot = {}
    for c, (i, j) in enumerate((i, j) for i in range(n) for j in range(i, n)):
        slot[i, j] = slot[j, i] = c
    rows = set()
    for A in maps:
        for x, y in itertools.product(range(n), repeat=2):
            row = [F(0)] * (n * (n + 1) // 2)
            for l in range(n):
                row[slot[l, y]] += A[x][l]
                row[slot[x, l]] += A[y][l]
            if any(row):
                rows.add(tuple(row))
    return rows


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SOURCES)), matrices)
def test_exact_claims_survive_basis_changes(name, P):
    g, B = _moved(name, P)
    assert linearized_isotropy_dim(g, B) == 3
    sol = soliton_solve(levi_civita(g, B))
    assert sol.feasible
    assert is_derivation(g, sol.derivation)
    assert all(x == 0 for row in sol.residual for x in row)
    for Q in invariant_form_space(g):
        assert is_ad_invariant(g, Q)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SOURCES)), matrices)
def test_builders_match_full_reference_systems(name, P):
    g, B = _moved(name, P)
    # each builder's rows span the same space as the full system
    assert row_space(sorted(_skew_form_rows(4, g.structure))) == \
        row_space(sorted(_reference_skew_form_rows(4, g.structure)))
    for T, p in ((g.structure, 2), (_double_bracket(g), 3)):
        keys, rows = zip(*_derivation_rows(T, p))
        assert list(keys) == [(idx, comp) for idx in itertools.product(
            range(4), repeat=p) if idx[0] < idx[1] for comp in range(4)]
        assert row_space([_dense(row, 16) for row in rows]) == \
            row_space(_reference_derivation_rows(T, p))
    # the isotropy space solved in skew coordinates is the space of the
    # full n^2 system: S skew for B and a derivation of the double bracket
    T = _double_bracket(g)
    assert _isotropy_space(B, T) == _reference_isotropy(B, T, 3)


def test_h3_isotropy_space_matches_the_full_system():
    h3 = get("h3").algebra
    for name, metric in get("h3").left_metrics.items():
        R = curvature(levi_civita(h3, metric)).components
        want = _reference_isotropy(metric, R, 3)
        assert len(want) == {"h0": 3, "h1": 1, "h2": 1}[name]
        assert row_space([sum(S, ()) for S in h3_isotropy(metric).generators]) \
            == _isotropy_space(metric, R) == want, name


def test_h3_isotropy_generators_checked_directly():
    h3 = get("h3").algebra
    E = [basis_vector(3, i) for i in range(3)]
    for name, metric in get("h3").left_metrics.items():
        rep = h3_isotropy(metric)
        assert rep.dim == {"h0": 3, "h1": 1, "h2": 1}[name]
        assert len(rep.generators) == rep.dim
        assert rank([sum(S, ()) for S in rep.generators]) == rep.dim
        R = curvature(levi_civita(h3, metric))
        for S in rep.generators:
            Se = [mat_vec(S, e) for e in E]
            for x, y in itertools.product(range(3), repeat=2):
                assert metric.evaluate(Se[x], E[y]) + \
                    metric.evaluate(E[x], Se[y]) == 0, name
            for i, j, k in itertools.product(range(3), repeat=3):
                lhs = mat_vec(S, R.apply(E[i], E[j], E[k]))
                terms = (R.apply(Se[i], E[j], E[k]), R.apply(E[i], Se[j], E[k]),
                         R.apply(E[i], E[j], Se[k]))
                assert lhs == tuple(map(sum, zip(*terms))), (name, i, j, k)
