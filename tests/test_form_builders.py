"""The form builders and the inertia pivot against the code they replaced.

Every sparse form is built by ``SymBilinearForm.from_entries``: the forms
of a nullspace (``_form_from_coeffs``), the Killing form and the catalog
metrics.  ``signature`` meets a zero diagonal with the congruence
e_i -> e_i + e_j instead of splitting off a hyperbolic plane.  The oracles
are the dense builders and the hyperbolic-pair loop as they were.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from metriclie import catalog
from metriclie.algebra import LieAlgebra, change_of_basis
from metriclie.catalog import _line_plus_killing, get
from metriclie.forms import (SymBilinearForm, _form_from_coeffs, _pair_index,
                             killing_form, signature)
from metriclie.linalg import transpose
from metriclie.scalars import QuadExt, sign_of

R2 = QuadExt(0, 1, 2)


def signature_hyperbolic_loop(B):
    """Diagonal pivots while available, then a nonzero off-diagonal pair
    split off as a hyperbolic plane, one square of each sign."""
    n = B.dim
    a = [list(row) for row in B.matrix]
    alive = list(range(n))
    plus = minus = 0
    while alive:
        piv = next((i for i in alive if a[i][i]), None)
        if piv is not None:
            if sign_of(a[piv][piv]) > 0:
                plus += 1
            else:
                minus += 1
            d = a[piv][piv]
            alive.remove(piv)
            factors = {i: a[i][piv] / d for i in alive}
            for i in alive:
                if factors[i]:
                    for j in alive:
                        a[i][j] -= factors[i] * a[piv][j]
            continue
        pair = next(((i, j) for i in alive for j in alive if i < j and a[i][j]),
                    None)
        if pair is None:
            break
        i0, j0 = pair
        plus += 1
        minus += 1
        h = a[i0][j0]
        alive.remove(i0)
        alive.remove(j0)
        ci = {k: a[k][i0] for k in alive}
        cj = {k: a[k][j0] for k in alive}
        for k in alive:
            for l in alive:
                a[k][l] -= (ci[k] * cj[l] + cj[k] * ci[l]) / h
    return plus, minus, n - plus - minus


def form_from_coeffs_dense(n, coeffs):
    m = [[F(0)] * n for _ in range(n)]
    for (i, j), c in zip(_pair_index(n), coeffs):
        m[i][j] = c
        m[j][i] = c
    return SymBilinearForm(n, m)


def killing_form_dense(g):
    n = g.dim
    ads = [transpose(plane) for plane in g.dense]
    scale = F(1, g.D ** 2)
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tr = scale * sum(ads[i][r][s] * ads[j][s][r]
                             for r in range(n) for s in range(n))
            m[i][j] = tr
            m[j][i] = tr
    return SymBilinearForm(n, m)


def sym(dim, entries):
    return SymBilinearForm.from_entries(
        dim, [(i, j, F(v)) for (i, j, v) in entries])


def same(got, want):
    assert got == want and repr(got) == repr(want)


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
big = st.builds(lambda p, q: F(p, q), st.integers(-10**100, 10**100),
                st.integers(1, 10**100))
quad = st.builds(lambda a, b: a + b * R2, small, small)
# one scalar kind per example; zeros often, so rows and pivots vanish
KINDS = [st.one_of(st.just(0), kind) for kind in (small, big, quad)]


@st.composite
def zero_diagonal_block_forms(draw):
    """A symmetric matrix whose diagonal is cut into blocks that are zero,
    entries of one kind elsewhere: every diagonal pivot is missing at the
    first step, and often again after it."""
    n = draw(st.integers(1, 6))
    entries = draw(st.sampled_from(KINDS))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else [])
    block = [sum(i >= c for c in cuts) for i in range(n)]
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if block[i] != block[j]:
                m[i][j] = m[j][i] = draw(entries)
    return SymBilinearForm(n, m)


@settings(max_examples=200, deadline=None)
@given(B=zero_diagonal_block_forms())
def test_signature_matches_the_hyperbolic_pair_loop(B):
    assert signature(B).as_tuple() == signature_hyperbolic_loop(B)


def test_signature_of_a_hyperbolic_plane_over_each_scalar():
    for h in (1, -3, F(10**100 + 1, 7), 1 + R2, -R2):
        B = SymBilinearForm(2, [[0, h], [h, 0]])
        assert signature(B).as_tuple() == signature_hyperbolic_loop(B) == (1, 1, 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_form_from_coeffs_matches_the_dense_builder(data, n):
    coeffs = data.draw(st.lists(data.draw(st.sampled_from(KINDS)),
                                min_size=n * (n + 1) // 2,
                                max_size=n * (n + 1) // 2))
    same(_form_from_coeffs(n, coeffs), form_from_coeffs_dense(n, coeffs))


@st.composite
def tables(draw):
    """An antisymmetric n x n x n table, rational or over Q(sqrt 2), Jacobi
    not required."""
    n = draw(st.integers(1, 4))
    entries = draw(st.sampled_from([KINDS[0], KINDS[2]]))
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                x = draw(entries)
                c[i][j][k], c[j][i][k] = x, -x
    return LieAlgebra(n, c)


@settings(max_examples=100, deadline=None)
@given(g=tables())
def test_killing_form_matches_the_dense_builder(g):
    same(killing_form(g), killing_form_dense(g))


def test_killing_form_in_a_quadratic_basis_matches_the_dense_builder():
    P = [[1, R2, 0, 0], [0, 1, 0, 0], [0, 0, 1 + R2, 0], [0, 0, 0, 1]]
    for name in catalog.names():
        g = get(name).algebra
        same(killing_form(g), killing_form_dense(g))
        if g.dim == 4:
            moved = change_of_basis(g, P)
            same(killing_form(moved), killing_form_dense(moved))


def test_catalog_metrics_match_the_old_builder():
    same(catalog.GMATRIX0_G0, sym(4, [(0, 3, 1), (1, 1, 1), (2, 2, 1)]))
    same(catalog.GMATRIX0_G1, sym(4, [(0, 3, 1), (1, 2, 1)]))
    same(catalog.H3_METRIC_H0, sym(3, [(0, 0, 1), (1, 2, 1)]))
    same(catalog.H3_METRIC_H1, sym(3, [(0, 0, 1), (1, 1, 1), (2, 2, -1)]))
    same(catalog.H3_METRIC_H2, sym(3, [(0, 1, 1), (2, 2, 1)]))
    for name in ("sl2", "so3"):
        simple = get(name).algebra
        K = killing_form_dense(simple).matrix
        same(_line_plus_killing(simple),
             sym(4, [(0, 0, 1)] + [(i + 1, j + 1, K[i][j])
                                   for i in range(3) for j in range(3)]))
        same(get("r+" + name).invariant_forms["killing+1"],
             _line_plus_killing(simple))
