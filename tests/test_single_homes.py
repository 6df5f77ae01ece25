"""The isometry check, the form transforms and the skew-adjoint systems
against the code they replaced.

``ahc_isometry_check`` compares A[[e_i, e_j], e_k] with [[Ae_i, Ae_j], Ae_k]
column by column after trying A[e_i, e_j] = eps [Ae_i, Ae_j] for eps = +-1,
``is_isometric_automorphism`` compares A[e_i, e_j] with [Ae_i, Ae_j] over
Z, ``restrict_form`` is the congruence P^T B P of
``transform_form`` and ``skew_adjoint_form_space`` reads ad(v) from the
catalog algebra.  The ad-matrix check, the ``_eval`` loop and the
hand-copied columns they replaced are kept here as the oracle.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from metriclie import connection
from metriclie.algebra import (LieAlgebra, Subspace, _double_bracket, bracket,
                               change_of_basis)
from metriclie.base import CheckResult, InputError
from metriclie.catalog import get
from metriclie.cli import _sample_family
from metriclie.connection import (ahc_isometry_check, is_isometric_automorphism,
                                  skew_adjoint_form_space)
from metriclie.forms import (SymBilinearForm, _form_from_coeffs,
                             _skew_form_rows, restrict_form, transform_form)
from metriclie.linalg import (determinant, identity_matrix, invert, mat,
                              mat_mul, mat_vec, nullspace, transpose)
from metriclie.scalars import QuadExt

SOURCES = {"g0": "gmatrix0", "g1": "gmatrix0", "r+sl2": "killing+1",
           "r+so3": "killing+1"}

rationals = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2)))


def _outcome(res: CheckResult):
    return res.ok, res.reason, res.witness


# --- the replaced code ----------------------------------------------------

def _reference_ahc(g, B, A):
    """A^T B A = B, then A ad([e_i, e_j]) = ad([Ae_i, Ae_j]) A as matrices,
    the witness k being the first column that differs."""
    A = mat(A)
    n = g.dim
    if len(A) != n or any(len(r) != n for r in A):
        raise InputError("matrix size does not match algebra dimension")
    lhs = mat_mul(mat_mul(transpose(A), B.matrix), A)
    bad = next(((i, j) for i in range(n) for j in range(n)
                if lhs[i][j] != B.matrix[i][j]), None)
    if bad is not None:
        return CheckResult(False, "metric not preserved", bad)
    cols = transpose(A)
    for i in range(n):
        for j in range(i + 1, n):
            lhs_op = mat_mul(A, g.ad(g.bracket_basis(i, j)))
            rhs_op = mat_mul(g.ad(bracket(g, cols[i], cols[j])), A)
            if lhs_op != rhs_op:
                k = next(k for k in range(n)
                         if any(lhs_op[r][k] != rhs_op[r][k] for r in range(n)))
                return CheckResult(False, "double-bracket equivariance fails",
                                   (i, j, k))
    return CheckResult(True)


def _reference_ahc_isometry_check(g, B, A):
    """ahc_isometry_check as it was: A^T B A = B from transform_form, then
    A [[e_i, e_j], e_k] against [[Ae_i, Ae_j], Ae_k] with Fraction
    brackets, the double bracket read as D^2 [[e_i, e_j], e_k]."""
    A = mat(A)
    n = g.dim
    if len(A) != n or any(len(r) != n for r in A):
        raise InputError("matrix size does not match algebra dimension")
    lhs = transform_form(B, A).matrix
    bad = next(((i, j) for i in range(n) for j in range(n)
                if lhs[i][j] != B.matrix[i][j]), None)
    if bad is not None:
        return CheckResult(False, "metric not preserved", bad)
    cols = transpose(A)
    T = _double_bracket(g)
    DD = g.D ** 2
    scaled = [tuple(DD * a for a in col) for col in cols]
    for i in range(n):
        for j in range(i + 1, n):
            w = bracket(g, cols[i], cols[j])
            for k in range(n):
                if mat_vec(A, T[i][j][k]) != bracket(g, w, scaled[k]):
                    return CheckResult(False, "double-bracket equivariance fails",
                                       (i, j, k))
    return CheckResult(True)


def _reference_is_isometric_automorphism(g, B, A):
    """A^T B A = B from transform_form, then A[e_i, e_j] = [Ae_i, Ae_j] with
    Fraction brackets."""
    A = mat(A)
    n = g.dim
    lhs = transform_form(B, A).matrix
    bad = next(((i, j) for i in range(n) for j in range(n)
                if lhs[i][j] != B.matrix[i][j]), None)
    if bad is not None:
        return CheckResult(False, "metric not preserved", bad)
    cols = transpose(A)
    for i in range(n):
        for j in range(i + 1, n):
            if mat_vec(A, g.bracket_basis(i, j)) != bracket(g, cols[i], cols[j]):
                return CheckResult(False, "not an automorphism", (i, j))
    return CheckResult(True)


def _automorphism_signs(g, A):
    """The eps = +-1 with A[e_i, e_j] = eps [Ae_i, Ae_j] on every basis pair,
    from Fraction brackets."""
    A = mat(A)
    cols = transpose(A)
    return {eps for eps in (1, -1) if all(
        mat_vec(A, g.bracket_basis(i, j)) ==
        tuple(eps * x for x in bracket(g, cols[i], cols[j]))
        for i, j in itertools.combinations(range(g.dim), 2))}


def _reference_eval(m, x, y):
    total = F(0)
    for xi, row in zip(x, m):
        if xi:
            total += xi * sum((a * b for a, b in zip(row, y)), start=F(0))
    return total


def _reference_restrict_form(B, m):
    if m.ambient_dim != B.dim:
        raise InputError("subspace ambient dimension does not match form")
    k = m.dim
    return SymBilinearForm(k, mat(
        [[_reference_eval(B.matrix, m.basis[a], m.basis[b]) for b in range(k)]
         for a in range(k)]))


def _reference_skew_adjoint(which, alpha, beta):
    a, b = F(alpha), F(beta)
    zero, one = F(0), F(1)
    if which == "g0":
        cols = ((zero, one, -b), (-one, zero, a), (zero, zero, zero))
    else:
        cols = ((one, zero, -b), (zero, -one, a), (zero, zero, zero))
    basis = nullspace(sorted(_skew_form_rows(3, [cols])), ncols=6)
    return [_form_from_coeffs(3, coeffs) for coeffs in basis]


# --- ahc_isometry_check ---------------------------------------------------

def _cayley(B, K):
    """(I - S)^-1 (I + S) for S = B^-1 K with K antisymmetric: preserves B,
    and is in general no automorphism.  None when I - S is singular."""
    n = B.dim
    S = mat_mul(invert(B.matrix), K)
    I = identity_matrix(n)
    minus = tuple(tuple(I[r][c] - S[r][c] for c in range(n)) for r in range(n))
    plus = tuple(tuple(I[r][c] + S[r][c] for c in range(n)) for r in range(n))
    if not determinant(minus):
        return None
    return mat_mul(invert(minus), plus)


@st.composite
def antisymmetric(draw, n):
    upper = draw(st.lists(rationals, min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    K = [[F(0)] * n for _ in range(n)]
    for (i, j), q in zip(itertools.combinations(range(n), 2), upper):
        K[i][j], K[j][i] = q, -q
    return tuple(map(tuple, K))


@pytest.mark.parametrize("which", ["g0", "g1"])
def test_ahc_matches_reference_on_family_samples(which):
    entry = get(which)
    g, B = entry.algebra, entry.invariant_forms["gmatrix0"]
    rng = random.Random(9)
    for _ in range(60):
        A = _sample_family(which, rng)
        assert _outcome(ahc_isometry_check(g, B, A)) == \
            _outcome(_reference_ahc(g, B, A)) == (True, "", None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(which=st.sampled_from(["g0", "g1"]), seed=st.integers(0, 10**6),
       row=st.integers(0, 3), col=st.integers(0, 3), q=rationals)
def test_ahc_matches_reference_on_perturbed_samples(which, seed, row, col, q):
    entry = get(which)
    g, B = entry.algebra, entry.invariant_forms["gmatrix0"]
    A = [list(r) for r in _sample_family(which, random.Random(seed))]
    A[row][col] += q
    assert _outcome(ahc_isometry_check(g, B, A)) == \
        _outcome(_reference_ahc(g, B, A))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(SOURCES) + ["h3"]),
       family=st.booleans())
def test_ahc_matches_reference_on_metric_preserving_maps(data, name, family):
    """Cayley transforms keep the metric, so most of them fail the bracket
    condition and exercise the (i, j, k) witness."""
    entry = get(name)
    g = entry.algebra
    B = entry.left_metrics[data.draw(st.sampled_from(["h1", "h2"]))] \
        if name == "h3" else entry.invariant_forms[SOURCES[name]]
    A = _cayley(B, data.draw(antisymmetric(g.dim)))
    if A is None:
        return
    if family and name in ("g0", "g1"):
        seed = data.draw(st.integers(0, 10**6))
        A = mat_mul(_sample_family(name, random.Random(seed)), A)
    assert _outcome(ahc_isometry_check(g, B, A)) == \
        _outcome(_reference_ahc(g, B, A))


@pytest.mark.parametrize("pair, witness", [((1, 3), (0, 1, 0)),
                                           ((2, 3), (0, 1, 1))])
def test_ahc_bracket_witness_on_a_metric_preserving_map(pair, witness):
    """The Cayley transform of e_a ^ e_b keeps gmatrix0 on g0 and breaks
    the double bracket first at the witness."""
    entry = get("g0")
    g, B = entry.algebra, entry.invariant_forms["gmatrix0"]
    K = [[F(0)] * 4 for _ in range(4)]
    a, b = pair
    K[a][b], K[b][a] = F(1), F(-1)
    A = _cayley(B, tuple(map(tuple, K)))
    res = ahc_isometry_check(g, B, A)
    assert _outcome(res) == _outcome(_reference_ahc(g, B, A)) == \
        (False, "double-bracket equivariance fails", witness)
    assert not _automorphism_signs(g, A)


@pytest.mark.parametrize("which", ["g0", "g1"])
def test_family_members_pass_as_automorphisms_up_to_sign(which, monkeypatch):
    """Each of 200 sampled members is an automorphism up to exactly one sign,
    both signs occur, and each passes, as in the reference, without the
    double bracket."""
    entry = get(which)
    g, B = entry.algebra, entry.invariant_forms["gmatrix0"]
    rng = random.Random(29)
    members = [_sample_family(which, rng) for _ in range(200)]
    signs = [_automorphism_signs(g, A) for A in members]
    assert all(len(eps) == 1 for eps in signs)
    assert set().union(*signs) == {1, -1}
    monkeypatch.setattr(connection, "_double_bracket",
                        lambda g: pytest.fail("the triples were scanned"))
    for A in members:
        assert _outcome(ahc_isometry_check(g, B, A)) == \
            _outcome(_reference_ahc(g, B, A)) == (True, "", None)


def test_ahc_boost_on_h3_passes_through_the_triple_scan(monkeypatch):
    """The rational boost cosh = 5/3, sinh = 4/3 in the plane of e_0 and e_2
    keeps h1, and [[x, y], z] = 0 on h3, but it is no automorphism up to
    sign: the triples are scanned, and the map passes."""
    entry = get("h3")
    g, B = entry.algebra, entry.left_metrics["h1"]
    c, s = F(5, 3), F(4, 3)
    A = ((c, 0, s), (0, 1, 0), (s, 0, c))
    assert transform_form(B, A) == B and not _automorphism_signs(g, A)
    scans = []
    real = connection._double_bracket
    monkeypatch.setattr(connection, "_double_bracket",
                        lambda g: scans.append(g) or real(g))
    assert _outcome(ahc_isometry_check(g, B, A)) == \
        _outcome(_reference_ahc(g, B, A)) == (True, "", None)
    assert scans == [g]
    assert _outcome(is_isometric_automorphism(g, B, A)) == \
        (False, "not an automorphism", (0, 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(SOURCES) + ["h3"]))
def test_isometric_automorphism_matches_the_fraction_loop(data, name):
    """Cayley transforms (metric kept, bracket mostly broken), family members
    of either sign and members bent in one entry."""
    entry = get(name)
    g = entry.algebra
    B = entry.left_metrics[data.draw(st.sampled_from(["h1", "h2"]))] \
        if name == "h3" else entry.invariant_forms[SOURCES[name]]
    maps = [_cayley(B, data.draw(antisymmetric(g.dim)))]
    if name in ("g0", "g1"):
        seed = data.draw(st.integers(0, 10**6))
        A = [list(r) for r in _sample_family(name, random.Random(seed))]
        maps.append(A)
        row, col = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        maps.append([[x + (r == row and k == col) for k, x in enumerate(line)]
                     for r, line in enumerate(A)])
    for A in maps:
        if A is not None:
            assert _outcome(is_isometric_automorphism(g, B, A)) == \
                _outcome(_reference_is_isometric_automorphism(g, B, A))


R2 = QuadExt(0, 1, 2)


def _root2_scaled(g):
    """[x, y]' = sqrt(2) [x, y]: the same isometries and invariant forms,
    with the constants in Q(sqrt 2), so the integer table is unscaled."""
    return LieAlgebra(g.dim, tuple(tuple(tuple(R2 * c if c else c for c in cij)
                                         for cij in plane)
                                   for plane in g.structure))


def _reflection(B):
    """The B-reflection in the first non-null e_a or e_a + e_b: it keeps B
    and is in general no automorphism."""
    n = B.dim
    units = [tuple(F(int(a == b)) for b in range(n)) for a in range(n)]
    v = next(v for v in units + [tuple(x + y for x, y in zip(u, w))
                                 for u, w in itertools.combinations(units, 2)]
             if B.evaluate(v, v))
    Bv, vv = mat_vec(B.matrix, v), B.evaluate(v, v)
    return tuple(tuple(F(int(a == b)) - 2 * v[a] * Bv[b] / vv
                       for b in range(n)) for a in range(n))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(which=st.sampled_from(["g0", "g1"]), root2=st.booleans(),
       P=st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4,
                  max_size=4).filter(determinant),
       seed=st.integers(0, 10**6), row=st.integers(0, 3), col=st.integers(0, 3),
       q=rationals.filter(bool))
def test_ahc_matches_the_fraction_loop_after_a_basis_change(
        which, root2, P, seed, row, col, q):
    """A family sample in a rational basis of g0 or g1 (or of its sqrt(2)
    scaling), that sample with one entry moved, and that sample times a
    B-reflection: ok, reason and witness are the Fraction loop's."""
    entry = get(which)
    g = _root2_scaled(entry.algebra) if root2 else entry.algebra
    P = mat(P)
    gP = change_of_basis(g, P)
    BP = transform_form(entry.invariant_forms["gmatrix0"], P)
    A = mat_mul(mat_mul(invert(P), _sample_family(which, random.Random(seed))), P)
    moved = [list(r) for r in A]
    moved[row][col] += q
    outcomes = []
    for M in (A, moved, mat_mul(A, _reflection(BP))):
        got = _outcome(ahc_isometry_check(gP, BP, M))
        assert got == _outcome(_reference_ahc_isometry_check(gP, BP, M))
        outcomes.append(got)
    assert outcomes[0] == (True, "", None)


def test_ahc_size_check_comes_first():
    entry = get("g0")
    with pytest.raises(InputError, match="matrix size"):
        ahc_isometry_check(entry.algebra, entry.invariant_forms["gmatrix0"],
                           identity_matrix(3))


# --- restrict_form and transform_form -------------------------------------

@st.composite
def forms_and_subspaces(draw):
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(rationals, min_size=n * n, max_size=n * n))
    m = [[entries[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    B = SymBilinearForm(n, tuple(map(tuple, m)))
    kind = draw(st.sampled_from(["zero", "full", "span"]))
    if kind == "zero":
        sub = Subspace.zero(n)
    elif kind == "full":
        sub = Subspace.full(n)
    else:
        vectors = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                                min_size=1, max_size=n))
        sub = Subspace.span(vectors, n)
    return B, sub


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=forms_and_subspaces())
def test_restrict_form_matches_reference(case):
    B, sub = case
    got = restrict_form(B, sub)
    assert got == _reference_restrict_form(B, sub)
    assert got.dim == sub.dim


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=forms_and_subspaces(), y=st.lists(rationals, min_size=4,
                                              max_size=4))
def test_evaluate_matches_reference(case, y):
    B, sub = case
    for x in sub.basis:
        assert B.evaluate(x, y[:B.dim]) == \
            _reference_eval(B.matrix, x, y[:B.dim])


@pytest.mark.parametrize("rows", [3, 5])
def test_transform_form_rejects_wrong_row_count(rows):
    B = get("g0").invariant_forms["gmatrix0"]
    with pytest.raises(InputError):
        transform_form(B, identity_matrix(rows))
    with pytest.raises(InputError):
        restrict_form(B, Subspace.full(rows))


def test_isometric_automorphism_rejects_a_non_square_matrix():
    entry = get("h3")
    with pytest.raises(InputError):
        is_isometric_automorphism(entry.algebra, entry.left_metrics["h1"],
                                  ((1, 0), (0, 1), (0, 0)))


def test_transform_form_takes_fewer_columns():
    B = get("g1").invariant_forms["gmatrix0"]
    P = ((0, 0), (1, 0), (0, 1), (0, 0))
    assert transform_form(B, P) == SymBilinearForm(2, ((0, 1), (1, 0)))


# --- skew_adjoint_form_space ----------------------------------------------

def test_skew_adjoint_matches_hand_copied_columns_on_criterion_7_grid():
    grid = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
    for which in ("g0", "g1"):
        for alpha, beta, gamma in itertools.product(grid, grid, [-1, 0, 1]):
            assert skew_adjoint_form_space(which, alpha, beta, gamma) == \
                _reference_skew_adjoint(which, alpha, beta)


def test_skew_adjoint_accepts_what_fraction_accepts():
    want = _reference_skew_adjoint("g1", F(1, 2), F(-3))
    assert skew_adjoint_form_space("g1", "1/2", -3.0, "7/3") == want
    assert skew_adjoint_form_space("g1", 0.5, "-3") == want

