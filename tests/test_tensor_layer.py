"""The exact tensor layer against the loops it replaced.

``linalg.tensor`` builds a tensor stored as nested tuples, ``linalg.contract``
evaluates it at coefficient vectors and ``linalg.first_nonzero`` finds its
first nonzero leaf; ``forms._skew_witness`` finds the first place where a
family of maps is not skew for a metric, from the rows of the one skew-row
builder ``forms._skew_rows`` that also serves the invariant-form and
skew-adjoint-form solvers.  The hand-written loops they replaced are kept
here as the oracle.

``Connection`` and ``CurvatureTensor`` hold one integer tensor and one
positive scale; the Koszul, curvature and Ricci loops that built and read
the Fraction tensors before are kept here as the oracle too, compared by
``repr`` so that types must match as well as values.
"""

import itertools
import math
import operator
from fractions import Fraction as F
from functools import reduce

from hypothesis import assume, given, settings, strategies as st

from metriclie.algebra import LieAlgebra, Subspace, bracket, change_of_basis
from metriclie.algebra import jacobi_check
from metriclie.base import CheckResult, InputError, JacobiError
from metriclie.catalog import get
from metriclie.connection import (CONVENTIONS, Connection, CurvatureTensor,
                                  _hold, bianchi_check,
                                  biinvariant_curvature_check, curvature,
                                  is_locally_symmetric, levi_civita,
                                  metric_compatibility_check, nabla_R,
                                  naturally_reductive_check, ricci_form,
                                  torsion_check)
from metriclie.forms import (SymBilinearForm, is_ad_invariant, restrict_form,
                             transform_form)
from metriclie.linalg import (_mat_vec_over_z, _scaled, _unscaled,
                              basis_vector, contract, determinant,
                              first_nonzero, invert, is_zero_vector, mat_vec,
                              rank, tensor)
from metriclie.scalars import QuadExt

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


def _reference_torsion_check(conn):
    g = conn.algebra
    for i in range(g.dim):
        for j in range(g.dim):
            diff = tuple(a - b - c for a, b, c in
                         zip(conn.gamma[i][j], conn.gamma[j][i],
                             g.bracket_basis(i, j)))
            if not is_zero_vector(diff):
                return CheckResult(False, "torsion does not vanish", (i, j))
    return CheckResult(True)


def _reference_bianchi_check(R):
    n = R.algebra.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = tuple(a + b + c for a, b, c in zip(
                    R.components[i][j][k], R.components[j][k][i],
                    R.components[k][i][j]))
                if not is_zero_vector(s):
                    return CheckResult(False, "first Bianchi fails", (i, j, k))
    return CheckResult(True)


def _reference_biinvariant_curvature_check(conn, R):
    g = conn.algebra
    n = g.dim
    quarter = F(-1, 4)
    for i in range(n):
        for j in range(n):
            cij = g.bracket_basis(i, j)
            for k in range(n):
                expect = tuple(quarter * t for t in
                               bracket(g, cij, basis_vector(n, k)))
                if R.components[i][j][k] != expect:
                    return CheckResult(False, "R != -1/4 ad([X,Y])", (i, j, k))
    return CheckResult(True)


def _reference_is_zero(R):
    return all(is_zero_vector(R.components[i][j][k])
               for i in range(R.algebra.dim)
               for j in range(R.algebra.dim)
               for k in range(R.algebra.dim))


def _reference_is_locally_symmetric(conn):
    nr = nabla_R(conn)
    n = conn.algebra.dim
    return all(is_zero_vector(nr[h][i][j][k])
               for h in range(n) for i in range(n)
               for j in range(n) for k in range(n))


# --- tensor and first_nonzero ---------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from((1, 2, 3, 4)), st.integers(1, 3), st.integers(1, 3),
       st.data())
def test_tensor_holds_entry_at_every_index(p, n, leaf, data):
    values = data.draw(st.lists(st.lists(sparse_rationals, min_size=leaf,
                                         max_size=leaf),
                                min_size=n ** p, max_size=n ** p))
    index = {idx: tuple(v) for idx, v in
             zip(itertools.product(range(n), repeat=p), values)}
    T = tensor(n, p, lambda *idx: index[idx])
    E = [basis_vector(n, i) for i in range(n)]
    for idx, v in index.items():
        node = T
        for i in idx:
            assert len(node) == n
            node = node[i]
        assert node == v
        assert contract(T, [E[i] for i in idx]) == v


def test_tensor_computes_entries_in_lexicographic_order():
    seen = []
    tensor(2, 3, lambda *idx: seen.append(idx) or (F(0),))
    assert seen == list(itertools.product(range(2), repeat=3))


@st.composite
def sparse_tensors(draw):
    """A rank-p tensor (p = 1..4) with few nonzero leaves, sometimes none."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    leaf = draw(st.integers(1, 3))
    index = list(itertools.product(range(n), repeat=p))
    hot = draw(st.sets(st.sampled_from(index), max_size=3))
    values = {idx: tuple(draw(sparse_rationals) for _ in range(leaf))
              for idx in hot}
    zero = (F(0),) * leaf
    return tensor(n, p, lambda *idx: values.get(idx, zero)), p, values


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_tensors())
def test_first_nonzero_is_the_lexicographic_search(case):
    T, p, values = case
    want = min((idx for idx, v in values.items() if any(v)), default=None)
    assert first_nonzero(T, p) == want


def test_first_nonzero_of_zero_tensors_is_none():
    for n, p in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        assert first_nonzero(tensor(n, p, lambda *idx: (F(0),) * 2), p) is None


def test_from_witness():
    assert CheckResult.from_witness(None, "x") == CheckResult(True)
    assert CheckResult.from_witness((0, 1), "x") == \
        CheckResult(False, "x", (0, 1))


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


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SOURCES)), st.data())
def test_locally_symmetric_shortcut_matches_the_full_tensor(name, data):
    """Rational basis changes of the ad-invariant sources keep Gamma = 1/2 ad
    exactly, so is_locally_symmetric decides without nabla_R; it agrees with
    the scan of the full tensor."""
    entry = get(name)
    P = data.draw(_matrices(entry.algebra.dim))
    g = change_of_basis(entry.algebra, P)
    B = transform_form(entry.invariant_forms[SOURCES[name]], P)
    conn = levi_civita(g, B)
    assert conn.gamma == tensor(g.dim, 2, lambda h, i: tuple(
        c / 2 for c in g.bracket_basis(h, i)))
    assert is_locally_symmetric(conn) == _reference_is_locally_symmetric(conn)


# --- the tensor checks on failing input -----------------------------------

def _bent(T, idx, q):
    """T with q added to component idx[-1] of the leaf at idx[:-1]."""
    if len(idx) == 1:
        return tuple(c + q if a == idx[0] else c for a, c in enumerate(T))
    return tuple(_bent(sub, idx[1:], q) if a == idx[0] else sub
                 for a, sub in enumerate(T))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(moved_pairs(), st.data())
def test_tensor_checks_match_the_replaced_loops(pair, data):
    """Perturb one Christoffel symbol or one curvature component; every
    check gives the same ok, reason and witness as the loop it replaced."""
    g, B = pair
    n = g.dim
    conn = levi_civita(g, B)
    slot = st.integers(0, n - 1)
    nonzero = rationals.filter(lambda q: q != 0)
    idx, q = data.draw(st.tuples(st.tuples(slot, slot, slot), nonzero))
    bent = Connection(g, B, _bent(conn.gamma, idx, q))
    for c in (conn, bent):
        assert _outcome(torsion_check(c)) == _outcome(_reference_torsion_check(c))
        assert is_locally_symmetric(c) == _reference_is_locally_symmetric(c)
        R = curvature(c)
        idx, q = data.draw(st.tuples(st.tuples(slot, slot, slot, slot), nonzero))
        for T in (R, CurvatureTensor(g, _bent(R.components, idx, q), "default")):
            assert T.is_zero() == _reference_is_zero(T)
            assert _outcome(bianchi_check(T)) == \
                _outcome(_reference_bianchi_check(T))
            assert _outcome(biinvariant_curvature_check(c, T)) == \
                _outcome(_reference_biinvariant_curvature_check(c, T))


# --- Q(sqrt 2) through the same loops ----------------------------------------

R2 = QuadExt(0, 1, 2)


def _root2_scaled(g):
    """[x, y]' = sqrt(2) [x, y]: the same invariant forms, with the
    constants in Q(sqrt 2), so the integer table is unscaled (scale 1)."""
    return LieAlgebra(g.dim, tuple(tuple(tuple(R2 * c if c else c for c in cij)
                                         for cij in plane)
                                   for plane in g.structure))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(moved_pairs(), st.data())
def test_quadratic_field_tensors_match_the_replaced_loops(pair, data):
    """A sqrt(2)-scaled table in a rational basis: the connection, both
    curvature conventions, Bianchi and the 1/4-ad check, the last two also
    on a curvature bent by a rational or an irrational amount; ad-invariance
    and metric compatibility on the metric, also bent in one entry by a
    rational or an irrational amount."""
    g, B = pair
    g = _root2_scaled(g)
    n = g.dim
    conn = levi_civita(g, B)
    assert conn.gamma == _reference_levi_civita(g, B)
    for convention in CONVENTIONS:
        assert curvature(conn, convention).components == \
            _reference_curvature(g, conn.gamma, convention)
    R = curvature(conn)
    slot = st.integers(0, n - 1)
    idx, q, root = data.draw(st.tuples(st.tuples(slot, slot, slot, slot),
                                       rationals.filter(bool), st.booleans()))
    bent = CurvatureTensor(g, _bent(R.components, idx, R2 * q if root else q),
                           "default")
    for T in (R, bent):
        assert _outcome(bianchi_check(T)) == _outcome(_reference_bianchi_check(T))
        assert _outcome(biinvariant_curvature_check(conn, T)) == \
            _outcome(_reference_biinvariant_curvature_check(conn, T))
    (a, b), q = data.draw(_perturbations(n))
    for form in (B, _perturbed(B, a, b, q), _perturbed(B, a, b, R2 * q)):
        assert _outcome(is_ad_invariant(g, form)) == \
            _outcome(_reference_is_ad_invariant(g, form))
        c = Connection(g, form, conn.gamma)
        assert _outcome(metric_compatibility_check(c)) == \
            _outcome(_reference_metric_compatibility(c))


# --- the connection and curvature held over Z ----------------------------

def _prechange_scaled_tensor(T, p):
    n = len(T)
    flat, d = _scaled([x for idx in itertools.product(range(n), repeat=p)
                       for x in reduce(operator.getitem, idx, T)])
    leaves = (tuple(flat[a:a + n]) for a in range(0, len(flat), n))
    return tensor(n, p, lambda *idx: next(leaves)), d


def _prechange_levi_civita(g, B):
    """The Koszul loop that built the Fraction gamma: one Fraction per
    nonzero entry of each leaf."""
    n = g.dim
    M, b = _prechange_scaled_tensor(B.matrix, 1)
    V, v = _prechange_scaled_tensor(invert(B.matrix), 1)
    D, C = g.D, g.dense
    MC = tensor(n, 2, lambda i, j: _mat_vec_over_z(M, C[i][j]))

    def leaf(i, j):
        koszul = [MC[i][j][k] - MC[j][k][i] + MC[k][i][j] for k in range(n)]
        return _unscaled(_mat_vec_over_z(V, koszul), 2 * b * D * v)

    return tensor(n, 2, leaf)


def _prechange_curvature(g, gamma, convention):
    """The curvature loop that scaled a Fraction gamma and built Fraction
    components, its (j, i) planes negated as Fractions."""
    n = g.dim
    G, d = _prechange_scaled_tensor(gamma, 2)
    D, C = g.D, g.dense
    scale = (-1 if convention == "oneill" else 1) * d * d * D

    def leaf(i, j, k):
        acc = [0] * n
        for s, a, b in ((D, i, j), (-D, j, i)):
            for l, x in enumerate(G[b][k]):
                if x:
                    x *= s
                    for m, y in enumerate(G[a][l]):
                        if y:
                            acc[m] += x * y
        for l, c in enumerate(C[i][j]):
            if c:
                c *= d
                for m, y in enumerate(G[l][k]):
                    if y:
                        acc[m] -= c * y
        return _unscaled(acc, scale)

    planes = {}
    for i, j in itertools.combinations(range(n), 2):
        planes[i, j] = tuple(leaf(i, j, k) for k in range(n))
        planes[j, i] = tuple(tuple(-x for x in v) for v in planes[i, j])
    zero = (tuple(F(0) for _ in range(n)),) * n
    return tensor(n, 2, lambda i, j: planes.get((i, j), zero))


def _prechange_ricci(g, comps):
    """The Ricci loop on Fraction components: a Fraction sum per trace."""
    n = g.dim
    ric = tensor(n, 2, lambda a, b: sum((comps[k][a][b][k] for k in range(n)),
                                        start=F(0)))
    try:
        return SymBilinearForm(n, ric)
    except InputError as exc:
        return type(exc).__name__ if jacobi_check(g) else "JacobiError"


def _prechange_is_locally_symmetric(conn, gamma):
    g = conn.algebra
    n = g.dim
    if all(gamma[h][i] == tuple(c / 2 for c in g.bracket_basis(h, i))
           for h in range(n) for i in range(n)) and jacobi_check(g):
        return True
    return _reference_is_locally_symmetric(conn)


def _ricci_outcome(conn, convention):
    try:
        return ricci_form(conn, convention)
    except (InputError, JacobiError) as exc:
        return type(exc).__name__


@settings(max_examples=10, deadline=None, derandomize=True)
@given(moved_pairs(), st.data())
def test_held_tensors_match_the_prechange_loops(pair, data):
    """Levi-Civita connections over Q and Q(sqrt 2), and a connection bent
    in one symbol by a rational or an irrational amount: gamma, both
    curvature conventions, Ricci and the locally-symmetric verdict equal
    the loops on Fraction tensors by repr."""
    g, B = pair
    n = g.dim
    slot = st.integers(0, n - 1)
    for table in (g, _root2_scaled(g)):
        conn = levi_civita(table, B)
        gamma = _prechange_levi_civita(table, B)
        assert repr(conn.gamma) == repr(gamma)
        idx, q, root = data.draw(st.tuples(st.tuples(slot, slot, slot),
                                           rationals.filter(bool), st.booleans()))
        bent = _bent(gamma, idx, R2 * q if root else q)
        for c, gam in ((conn, gamma), (Connection(table, B, bent), bent)):
            for convention in CONVENTIONS:
                comps = _prechange_curvature(table, gam, convention)
                assert repr(curvature(c, convention).components) == repr(comps)
                assert repr(_ricci_outcome(c, convention)) == \
                    repr(_prechange_ricci(table, comps))
            assert is_locally_symmetric(c) == \
                _prechange_is_locally_symmetric(c, gam)


def _integer_form(T, p, k):
    """(I, d), I over Z with T = I / d for d = k lcm(denominators) > 0; for a
    tensor with a QuadExt entry, k T at d = k."""
    n = len(T)
    flat = [x for idx in itertools.product(range(n), repeat=p)
            for x in reduce(operator.getitem, idx, T)]
    if any(isinstance(x, QuadExt) for x in flat):
        d, ints = k, [k * x for x in flat]
    else:
        d = k * math.lcm(*(x.denominator for x in flat))
        ints = [int(x * d) for x in flat]
    leaves = iter([tuple(ints[a:a + n]) for a in range(0, len(ints), n)])
    return tensor(n, p, lambda *idx: next(leaves)), d


@settings(max_examples=12, deadline=None, derandomize=True)
@given(moved_pairs(), st.booleans(), st.data())
def test_held_tensors_have_value_semantics(pair, root, data):
    """A Connection and a CurvatureTensor built from a bent Fraction tensor
    equal, by ==, hash and repr, the ones held from its integer form at a
    scale k times too large; the held form is canonical (the least scale,
    or scale 1 with a QuadExt entry) and gives the tensor back."""
    g, B = pair
    if root:
        g = _root2_scaled(g)
    n = g.dim
    conn = levi_civita(g, B)
    slot = st.integers(0, n - 1)
    k = data.draw(st.integers(1, 6))
    q = data.draw(rationals.filter(bool))
    q = R2 * q if root and data.draw(st.booleans()) else q
    gamma = _bent(conn.gamma, data.draw(st.tuples(slot, slot, slot)), q)
    comps = _bent(curvature(conn).components,
                  data.draw(st.tuples(slot, slot, slot, slot)), q)
    pairs = ((Connection(g, B, gamma), object.__new__(Connection),
              gamma, 2, {"algebra": g, "metric": B}),
             (CurvatureTensor(g, comps, "default"),
              object.__new__(CurvatureTensor), comps, 3,
              {"algebra": g, "convention": "default"}))
    for built, blank, T, p, fields in pairs:
        I, d = _integer_form(T, p, k)
        held = _hold(blank, I, p, d, **fields)
        assert held == built and hash(held) == hash(built)
        assert repr(held) == repr(built)
        flat = [x for idx in itertools.product(range(n), repeat=p)
                for x in reduce(operator.getitem, idx, built.dense)]
        if any(isinstance(x, QuadExt) for x in flat):
            assert built.d == 1
        else:
            assert built.d > 0 and math.gcd(built.d, *flat) == 1
            assert all(type(x) is int for x in flat)
    assert repr(pairs[0][0].gamma) == repr(gamma)
    assert repr(pairs[1][0].components) == repr(comps)
