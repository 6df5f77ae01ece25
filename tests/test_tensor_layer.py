"""The exact tensor layer against the loops it replaced.

``linalg.contract`` evaluates a tensor stored as nested tuples at coefficient
vectors, and ``forms._skew_witness`` finds the first place where a family of
maps is not skew for a metric.  The hand-written loops they replaced are
kept here as the oracle.
"""

import itertools
from fractions import Fraction as F

from hypothesis import assume, given, settings, strategies as st

from metriclie.algebra import Subspace, bracket, change_of_basis
from metriclie.base import CheckResult
from metriclie.catalog import get
from metriclie.connection import (Connection, curvature, levi_civita,
                                  metric_compatibility_check, nabla_R,
                                  naturally_reductive_check)
from metriclie.forms import (SymBilinearForm, is_ad_invariant, restrict_form,
                             transform_form)
from metriclie.linalg import (basis_vector, contract, determinant, invert,
                              mat_vec, rank)

SOURCES = {"g0": "gmatrix0", "g1": "gmatrix0", "r+sl2": "killing+1",
           "r+so3": "killing+1"}

rationals = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2)))


def _matrices(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).filter(determinant)


@st.composite
def moved_pairs(draw):
    """(g, B) for a rational basis change of an ad-invariant source or of h3
    with one of its left-invariant metrics."""
    name = draw(st.sampled_from(sorted(SOURCES) + ["h3"]))
    entry = get(name)
    if name == "h3":
        B = entry.left_metrics[draw(st.sampled_from(["h0", "h1", "h2"]))]
    else:
        B = entry.invariant_forms[SOURCES[name]]
    P = draw(_matrices(entry.algebra.dim))
    return change_of_basis(entry.algebra, P), transform_form(B, P)


def _perturbed(B, a, b, q):
    m = [list(row) for row in B.matrix]
    m[a][b] += q
    if a != b:
        m[b][a] += q
    return SymBilinearForm(B.dim, tuple(tuple(r) for r in m))


def _outcome(res: CheckResult):
    return res.ok, res.reason, res.witness


# --- the replaced loops ---------------------------------------------------

def _reference_levi_civita(g, B):
    n = g.dim
    Binv = invert(B.matrix)
    gamma = []
    for i in range(n):
        row = []
        for j in range(n):
            w = []
            for k in range(n):
                ek = basis_vector(n, k)
                val = (B.evaluate(g.bracket_basis(i, j), ek)
                       - B.evaluate(g.bracket_basis(j, k), basis_vector(n, i))
                       + B.evaluate(g.bracket_basis(k, i), basis_vector(n, j)))
                w.append(val / 2)
            row.append(mat_vec(Binv, tuple(w)))
        gamma.append(tuple(row))
    return tuple(gamma)


def _reference_nabla_vector(gamma, i, v):
    n = len(gamma)
    acc = [F(0)] * n
    for l, vl in enumerate(v):
        if vl:
            for k in range(n):
                acc[k] += vl * gamma[i][l][k]
    return tuple(acc)


def _reference_nabla_along(gamma, x, v):
    n = len(gamma)
    acc = [F(0)] * n
    for i, xi in enumerate(x):
        if xi:
            piece = _reference_nabla_vector(gamma, i, v)
            for k in range(n):
                acc[k] += xi * piece[k]
    return tuple(acc)


def _reference_curvature(g, gamma, convention):
    n = g.dim
    comps = []
    for i in range(n):
        plane = []
        for j in range(n):
            cij = g.bracket_basis(i, j)
            col = []
            for k in range(n):
                term = tuple(a - b - c for a, b, c in zip(
                    _reference_nabla_vector(gamma, i, gamma[j][k]),
                    _reference_nabla_vector(gamma, j, gamma[i][k]),
                    _reference_nabla_along(gamma, cij, basis_vector(n, k))))
                if convention == "oneill":
                    term = tuple(-t for t in term)
                col.append(term)
            plane.append(tuple(col))
        comps.append(tuple(plane))
    return tuple(comps)


def _reference_apply(comps, x, y, z):
    n = len(comps)
    acc = [F(0)] * n
    for i in range(n):
        if not x[i]:
            continue
        for j in range(n):
            w = x[i] * y[j]
            if not w:
                continue
            for k in range(n):
                wz = w * z[k]
                if wz:
                    comp = comps[i][j][k]
                    for l in range(n):
                        if comp[l]:
                            acc[l] += wz * comp[l]
    return tuple(acc)


def _reference_R_mixed(comps, x, j, k):
    n = len(comps)
    acc = [F(0)] * n
    for i, xi in enumerate(x):
        if xi:
            comp = comps[i][j][k]
            for l in range(n):
                acc[l] += xi * comp[l]
    return tuple(acc)


def _reference_nabla_R(gamma, comps):
    n = len(gamma)
    E = [basis_vector(n, i) for i in range(n)]
    return tuple(tuple(tuple(tuple(
        tuple(a - b + c - d for a, b, c, d in zip(
            _reference_nabla_vector(gamma, h, comps[i][j][k]),
            _reference_R_mixed(comps, gamma[h][i], j, k),
            _reference_R_mixed(comps, gamma[h][j], i, k),
            _reference_apply(comps, E[i], E[j], gamma[h][k])))
        for k in range(n)) for j in range(n)) for i in range(n))
        for h in range(n))


def _reference_is_ad_invariant(g, B):
    n = g.dim
    for i in range(n):
        for j in range(n):
            cij = g.bracket_basis(i, j)
            for k in range(n):
                val = B.evaluate(cij, basis_vector(n, k)) + \
                    B.evaluate(basis_vector(n, j), g.bracket_basis(i, k))
                if val:
                    return CheckResult(False, "ad-invariance fails", (i, j, k))
    return CheckResult(True)


def _reference_metric_compatibility(conn):
    n = conn.algebra.dim
    B = conn.metric
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = B.evaluate(conn.gamma[i][j], basis_vector(n, k)) + \
                    B.evaluate(basis_vector(n, j), conn.gamma[i][k])
                if v:
                    return CheckResult(False, "metric compatibility fails",
                                       (i, j, k))
    return CheckResult(True)


def _reference_naturally_reductive(g, h, m, B_m):
    """The checks of naturally_reductive_check, for valid input only."""
    n = g.dim
    cols = list(h.basis) + list(m.basis)
    T = tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))
    Tinv = invert(T)

    def m_part(v):
        return mat_vec(Tinv, v)[h.dim:]

    for x in h.basis:
        for y in h.basis:
            if not h.contains(bracket(g, x, y)):
                return CheckResult(False, "h is not a subalgebra", (x, y))
    for x in h.basis:
        for y in m.basis:
            if not m.contains(bracket(g, x, y)):
                return CheckResult(False, "[h, m] not contained in m", (x, y))
    for a in range(m.dim):
        for b in range(m.dim):
            ab_m = m_part(bracket(g, m.basis[a], m.basis[b]))
            eb = basis_vector(m.dim, b)
            for c in range(m.dim):
                ac_m = m_part(bracket(g, m.basis[a], m.basis[c]))
                val = B_m.evaluate(ab_m, basis_vector(m.dim, c)) + \
                    B_m.evaluate(eb, ac_m)
                if val:
                    return CheckResult(
                        False, "naturally reductive identity fails",
                        (m.basis[a], m.basis[b], m.basis[c]))
    return CheckResult(True)


# --- contract -------------------------------------------------------------

sparse_rationals = st.one_of(st.just(F(0)), st.just(F(0)), rationals)


@st.composite
def tensors_and_vectors(draw):
    p = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(1, 3))
    leaf = draw(st.integers(1, 3))

    def tensor(depth):
        if depth == 0:
            return tuple(draw(sparse_rationals) for _ in range(leaf))
        return tuple(tensor(depth - 1) for _ in range(n))

    vectors = [tuple(draw(sparse_rationals) for _ in range(n))
               for _ in range(p)]
    return tensor(p), vectors, leaf


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tensors_and_vectors())
def test_contract_is_the_full_index_sum(case):
    T, vectors, leaf = case
    n = len(T)
    want = [F(0)] * leaf
    for idx in itertools.product(range(n), repeat=len(vectors)):
        w = F(1)
        node = T
        for x, i in zip(vectors, idx):
            w *= x[i]
            node = node[i]
        want = [a + w * b for a, b in zip(want, node)]
    assert contract(T, vectors) == tuple(want)


def test_contract_of_zero_vectors_is_the_zero_leaf():
    T = (((F(1), F(2)), (F(3), F(4))), ((F(5), F(6)), (F(7), F(8))))
    assert contract(T, [(F(0), F(0))] * 2) == (F(0), F(0))
    assert contract(T, [(F(0), F(1)), (F(1), F(0))]) == (F(5), F(6))


# --- the connection, curvature and nabla R --------------------------------

@settings(max_examples=12, deadline=None, derandomize=True)
@given(moved_pairs(), st.data())
def test_tensors_match_the_replaced_loops(pair, data):
    g, B = pair
    n = g.dim
    conn = levi_civita(g, B)
    assert conn.gamma == _reference_levi_civita(g, B)
    x, y, z, v = (data.draw(st.lists(rationals, min_size=n, max_size=n))
                  for _ in range(4))
    for i in range(n):
        assert conn.nabla_vector(i, v) == \
            _reference_nabla_vector(conn.gamma, i, v)
    for convention in ("default", "oneill"):
        R = curvature(conn, convention)
        want = _reference_curvature(g, conn.gamma, convention)
        assert R.components == want
        assert R.apply(x, y, z) == _reference_apply(want, x, y, z)
        assert nabla_R(conn, convention) == \
            _reference_nabla_R(conn.gamma, want)


# --- the metric-skew checks on failing input ------------------------------

def _perturbations(n):
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    return st.tuples(st.sampled_from(pairs),
                     rationals.filter(lambda q: q != 0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(moved_pairs(), st.data())
def test_checks_match_the_replaced_loops(pair, data):
    g, B = pair
    n = g.dim
    (a, b), q = data.draw(_perturbations(n))
    Bp = _perturbed(B, a, b, q)
    for form in (B, Bp):
        assert _outcome(is_ad_invariant(g, form)) == \
            _outcome(_reference_is_ad_invariant(g, form))

    conn = levi_civita(g, B)
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    k, q = data.draw(st.tuples(st.integers(0, n - 1),
                               rationals.filter(lambda q: q != 0)))
    gamma = [[list(v) for v in row] for row in conn.gamma]
    gamma[i][j][k] += q
    bent = Connection(g, B, tuple(tuple(tuple(v) for v in row)
                                  for row in gamma))
    for c in (conn, bent, Connection(g, Bp, conn.gamma)):
        assert _outcome(metric_compatibility_check(c)) == \
            _outcome(_reference_metric_compatibility(c))

    assume(Bp.is_nondegenerate())
    h, m = Subspace.zero(n), Subspace.full(n)
    for form in (B, Bp):
        assert _outcome(naturally_reductive_check(g, h, m, form)) == \
            _outcome(_reference_naturally_reductive(g, h, m, form))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_matrices(4), _perturbations(3))
def test_reductive_pair_check_matches_the_replaced_loop(P, perturbation):
    """The g0 pair h = span{e0 + e3}, m = span{e1, e2, e0 - e3} of the
    derived-pair example, in a rational basis; B_m is the restricted
    metric, perturbed in one entry."""
    g0 = get("g0")
    g = change_of_basis(g0.algebra, P)
    B = transform_form(g0.invariant_forms["gmatrix0"], P)
    Pinv = invert(P)
    h = Subspace.span([mat_vec(Pinv, (1, 0, 0, 1))], 4)
    m = Subspace.span([mat_vec(Pinv, v) for v in
                       ((0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1))], 4)
    assert rank(list(h.basis) + list(m.basis)) == 4
    B_m = restrict_form(B, m)
    (a, b), q = perturbation
    bent = _perturbed(B_m, a, b, q)
    assume(bent.is_nondegenerate())
    assert naturally_reductive_check(g, h, m, B_m)
    for form in (B_m, bent):
        assert _outcome(naturally_reductive_check(g, h, m, form)) == \
            _outcome(_reference_naturally_reductive(g, h, m, form))
