"""The simplex-lattice walk of ``has_nondegenerate_invariant_form`` against
the full (n+1)^k grid search it replaced, kept here as the oracle, and the
central-series certificate that answers "no" before either.

The grid search proves "no" by Alon's Combinatorial Nullstellensatz: the
determinant has degree at most n in each coefficient and the grid has n+1
points per variable.  It is slow (15,625 determinants for k = 6) but
independent of the lattice argument.  The lattice walk itself is reached
through ``_search_span``, which sees only the span; the public search
decides a "no" from the series dimensions first.
"""

import contextlib
import io
import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from metriclie import cli, forms
from metriclie.algebra import (LieAlgebra, change_of_basis, jacobi_check,
                               lower_central, upper_central)
from metriclie.forms import (FormSearch, SymBilinearForm, _search_span,
                             _simplex_lattice,
                             has_nondegenerate_invariant_form,
                             invariant_form_space, is_ad_invariant)
from metriclie.linalg import basis_vector, contract, determinant, mat, solve

from conftest import random_invertible

# the algebras without a nondegenerate invariant form that the benchmark's
# invariants workload certifies: invariant-form spaces of dimension 3 and 6
GRID_SOURCES = {
    "aff+aff": [(0, 1, 1, 1), (2, 3, 3, 1)],
    "n4": [(0, 1, 2, 1), (0, 2, 3, 1)],
    "e2+R": [(0, 1, 2, 1), (0, 2, 1, -1)],
    "h3+R": [(0, 1, 2, 1)],
    "aff+R2": [(0, 1, 1, 1)],
}


def _combination(space, coeffs) -> SymBilinearForm:
    n = space[0].dim
    return SymBilinearForm(n, [
        contract(tuple(B.matrix[i] for B in space), (coeffs,))
        for i in range(n)])


def _grid_search_span(space):
    """The search as it was before the lattice: cheap candidates, then every
    point of the (n+1)^k grid in lexicographic order."""
    k = len(space)
    if k == 0:
        return FormSearch(False, None, 0)
    n = space[0].dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    combo = solve([[B.matrix[i][j] for B in space] for (i, j) in pairs],
                  [Fraction(int(i == j)) for (i, j) in pairs])
    candidates = [] if combo is None else [combo]
    candidates += [basis_vector(k, t) for t in range(k)]
    candidates.append(tuple(Fraction(t + 1) for t in range(k)))
    for coeffs in candidates:
        B = _combination(space, coeffs)
        if B.is_nondegenerate():
            return FormSearch(True, B, k)
    checked = 0
    for coeffs in itertools.product(range(n + 1), repeat=k):
        checked += 1
        B = _combination(space, [Fraction(c) for c in coeffs])
        if B.is_nondegenerate():
            return FormSearch(True, B, k, checked)
    return FormSearch(False, None, k, checked)


def _assert_same_search(g):
    """The public search, the lattice walk on the span and the grid oracle
    agree; a series "no" walks no lattice.  Returns the public search."""
    got = has_nondegenerate_invariant_form(g)
    space = invariant_form_space(g)
    want = _grid_search_span(space)
    lattice = _search_span(space)
    assert got.found == lattice.found == want.found
    assert got.space_dim == lattice.space_dim == want.space_dim
    if got.series_r is None:
        assert got == lattice
    else:
        assert got == FormSearch(False, None, len(space), 0, got.series_r)
    if lattice.found and lattice.grid_points_checked == 0:
        # a cheap candidate's "yes" keeps the old witness
        assert lattice == want
    if lattice.found:
        assert lattice.witness.is_nondegenerate()
        assert is_ad_invariant(g, lattice.witness)
        _assert_first_lattice_witness(space, lattice)
    elif lattice.space_dim:
        assert lattice.grid_points_checked == comb(
            g.dim + lattice.space_dim - 1, lattice.space_dim - 1)
    return got


def _assert_first_lattice_witness(space, search):
    """A "yes" after the cheap candidates is the form at lattice point
    ``grid_points_checked``, and every earlier lattice point is degenerate."""
    if search.grid_points_checked == 0:
        return
    n, k = space[0].dim, len(space)
    walked = list(itertools.islice(_simplex_lattice(n, k),
                                   search.grid_points_checked))
    assert len(walked) == search.grid_points_checked
    assert search.witness == _combination(space, walked[-1])
    assert not any(_combination(space, t).is_nondegenerate()
                   for t in walked[:-1])


@pytest.mark.parametrize("name", sorted(GRID_SOURCES))
def test_grid_sources_after_a_basis_change(name):
    g = LieAlgebra.from_brackets(4, GRID_SOURCES[name], name)
    P = random_invertible(random.Random(f"lattice:{name}"), 4)
    h = change_of_basis(g, P)
    # 15 lattice points for k = 3 and 126 for k = 6, against 125 and 15,625
    want = {"h3+R": 126, "aff+R2": 126}.get(name, 15)
    for a in (g, h):
        assert _search_span(invariant_form_space(a)).grid_points_checked == want
    # the public search answers from the series at r = 1 and walks nothing
    search = _assert_same_search(h)
    assert not search.found
    assert search.series_r == 1
    assert search.grid_points_checked == 0


@pytest.mark.parametrize("name", sorted(GRID_SOURCES))
def test_series_no_builds_no_form(name, monkeypatch):
    # a series "no" takes the space dimension from the rank of the
    # invariant-form system over Z: no nullspace and no SymBilinearForm
    g = LieAlgebra.from_brackets(4, GRID_SOURCES[name], name)
    h = change_of_basis(g, random_invertible(random.Random(f"no-form:{name}"), 4))
    want = [len(invariant_form_space(a)) for a in (g, h)]

    def refuse(*args):
        raise AssertionError("a form was built")

    monkeypatch.setattr(forms, "invariant_form_space", refuse)
    monkeypatch.setattr(forms, "_form_from_coeffs", refuse)
    monkeypatch.setattr(forms, "nullspace", refuse)
    assert [has_nondegenerate_invariant_form(a) for a in (g, h)] == [
        FormSearch(False, None, k, 0, series_r=1) for k in want]


@pytest.mark.parametrize("name", sorted(GRID_SOURCES))
def test_grid_sources_take_no_determinant(name, monkeypatch):
    # dim C^1 + dim C_1 != 4 for each of them: [g, g] and the centre are
    # too small for C_1 = (C^1)-perp, so no lattice point is needed
    def refuse(*args):
        raise AssertionError("the lattice was reached")

    monkeypatch.setattr(forms, "determinant", refuse)
    monkeypatch.setattr(forms, "_simplex_lattice", refuse)
    monkeypatch.setattr(forms, "_search_span", refuse)
    g = LieAlgebra.from_brackets(4, GRID_SOURCES[name], name)
    k = 6 if name in ("h3+R", "aff+R2") else 3
    assert has_nondegenerate_invariant_form(g) == FormSearch(
        False, None, k, 0, series_r=1)


@st.composite
def _algebras(draw):
    """Sparse random structure constants (Jacobi not required: the search is
    about the span of the invariance solutions, which exists regardless),
    seen in a random basis."""
    n = draw(st.integers(2, 4))
    pairs = list(itertools.combinations(range(n), 2))
    brackets = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.integers(0, n - 1),
                  st.integers(-2, 2)), min_size=n - 1, max_size=2 * n,
        unique_by=lambda b: b[:2]))
    g = LieAlgebra.from_brackets(n, [(i, j, k, c) for (i, j), k, c in brackets])
    seed = draw(st.integers(0, 2 ** 16))
    return change_of_basis(g, random_invertible(random.Random(seed), n))


@settings(max_examples=60, deadline=None)
@given(_algebras())
def test_lattice_verdict_equals_grid_verdict(g):
    # a "no" walks the whole reference grid; the 15,625-point grids of k = 6
    # in dimension 4 take seconds each and are left to the grid sources above
    assume((g.dim + 1) ** len(invariant_form_space(g)) <= 4 ** 6)
    _assert_same_search(g)


def test_identically_singular_span_without_common_kernel():
    # det [[0,a,b],[a,0,0],[b,0,0]] = 0 for every a, b, yet the radicals of
    # the a- and b-forms (e2 and e1) meet only in 0: the lattice must still
    # certify "no" from the determinant alone
    space = [SymBilinearForm(3, ((0, 1, 0), (1, 0, 0), (0, 0, 0))),
             SymBilinearForm(3, ((0, 0, 1), (0, 0, 0), (1, 0, 0)))]
    assert space[0].radical().basis != space[1].radical().basis
    search = _search_span(space)
    assert search == FormSearch(False, None, 2, 4)
    assert _grid_search_span(space) == FormSearch(False, None, 2, 16)


def test_cheap_candidates_degenerate_then_lattice():
    # det(t1 B1 + t2 B2) = t1 t2 (t2 - 2 t1): zero at both basis elements and
    # at the weighted sum (1, 2); the identity is not in the span
    space = [SymBilinearForm(3, ((1, 0, 0), (0, 0, 0), (0, 0, -2))),
             SymBilinearForm(3, ((0, 0, 0), (0, 1, 0), (0, 0, 1)))]
    search = _search_span(space)
    assert search.found and _grid_search_span(space).found
    # the lattice walks (0, 3), (1, 2), (2, 1): the third point is the first
    # nondegenerate one
    assert search.grid_points_checked == 3
    assert search.witness.matrix == mat(((2, 0, 0), (0, 1, 0), (0, 0, -3)))
    assert determinant(search.witness.matrix) == -6
    _assert_first_lattice_witness(space, search)


def _diagonal_span_with_block(m):
    """The span of the test above in dimension 3 + m, plus every symmetric
    form on the block e3..e(2+m): k = 2 + m(m+1)/2."""
    n = 3 + m

    def form(entries):
        M = [[0] * n for _ in range(n)]
        for i, j, c in entries:
            M[i][j] = M[j][i] = c
        return SymBilinearForm(n, M)

    return [form([(0, 0, 1), (2, 2, -2)]), form([(1, 1, 1), (2, 2, 1)])] + [
        form([(i, j, 1)]) for i in range(3, n) for j in range(i, n)]


def test_lattice_witness_beyond_the_cheap_candidates_with_a_block():
    # n = k = 5: the old (n+1)^k grid walked 1,519 points to its witness
    space = _diagonal_span_with_block(2)
    n, k = 5, 5
    search = _search_span(space)
    assert search.found
    assert search.grid_points_checked == 73
    assert search.grid_points_checked <= comb(n + k - 1, k - 1) == 126
    assert search.witness.is_nondegenerate()
    _assert_first_lattice_witness(space, search)


@settings(max_examples=60, deadline=None)
@given(_algebras())
def test_series_no_is_a_lattice_no(g):
    # the series certificate needs only antisymmetry and invariance, so it
    # holds on these tables whether Jacobi does or not
    n = g.dim
    sums = [lower_central(g, r).dim + upper_central(g, r).dim
            for r in range(n + 1)]
    search = has_nondegenerate_invariant_form(g)
    lattice = _search_span(invariant_form_space(g))
    assert search.found == lattice.found
    if all(total == n for total in sums):
        assert search == lattice and search.series_r is None
    else:
        assert not lattice.found
        assert search.series_r == next(r for r, total in enumerate(sums)
                                       if total != n)
        assert search.grid_points_checked == 0 and search.witness is None


@settings(max_examples=60, deadline=None)
@given(_algebras())
def test_search_walks_at_most_the_lattice(g):
    search = has_nondegenerate_invariant_form(g)
    k = search.space_dim
    assert k == 0 or search.grid_points_checked <= comb(g.dim + k - 1, k - 1)


# --- a matched-dimension "no": s + R^m with s = sl(2) x| R^2 ---------------

def _s_plus_abelian(m):
    """s + R^m on h, e, f, v1, v2, then the abelian factor: [h, e] = 2e,
    [h, f] = -2f, [e, f] = h, h v1 = v1, h v2 = -v2, e v2 = v1, f v1 = v2.
    s is perfect with trivial centre, so dim C^r + dim C_r = 5 + m at every
    r; yet R^2 carries no symmetric sl(2)-invariant form and no sl(2)-map
    to sl(2), so every invariant form kills v1 and v2."""
    return LieAlgebra.from_brackets(5 + m, [
        (0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1),
        (0, 3, 3, 1), (0, 4, 4, -1), (1, 4, 3, 1), (2, 3, 4, 1)],
        f"s+R{m}")


@pytest.mark.parametrize("m, k, points", [(0, 1, 1), (1, 2, 7), (2, 4, 120)])
def test_matched_series_dimensions_leave_the_lattice_to_decide(m, k, points):
    g = _s_plus_abelian(m)
    n = g.dim
    assert jacobi_check(g)
    assert all(lower_central(g, r).dim + upper_central(g, r).dim == n
               for r in range(n + 1))
    search = has_nondegenerate_invariant_form(g)
    assert search == FormSearch(False, None, k, points)
    assert points == comb(n + k - 1, k - 1)
    assert search == _search_span(invariant_form_space(g))


# --- the budget of a "no": forms.MAX_LATTICE_POINTS ----------------------

def _report(tmp_path, g):
    path = tmp_path / f"{g.name or 'g'}.json"
    path.write_text(json.dumps({"dim": g.dim, "brackets": [
        [i, j, k, str(c)] for i in range(g.dim) for j in range(i + 1, g.dim)
        for k, c in enumerate(g.structure[i][j]) if c]}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["report", str(path)])
    return rc, out.getvalue(), err.getvalue()


def test_lattice_budget_refuses_dimension_10(tmp_path):
    # s + R^5, k = 16: C(25, 15) = 3,268,760 lattice determinants, over the
    # budget, and the series dimensions match, so the lattice is needed
    assert comb(10 + 16 - 1, 16 - 1) > forms.MAX_LATTICE_POINTS
    t0 = time.perf_counter()
    rc, out, err = _report(tmp_path, _s_plus_abelian(5))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert err.splitlines() == [
        "error: deciding the 16-dim invariant-form space takes 3268760 "
        "lattice determinants, more than 100000"]


def test_lattice_budget_admits_dimension_9(tmp_path, monkeypatch):
    # s + R^4, k = 11: C(19, 10) = 92,378 lattice determinants, under the
    # budget.  Every one of them vanishes; the walk takes seconds, so here
    # it is cut to the first 200 points after the budget check has let it
    # through
    walked = []

    def first_points(n, k):
        walked.append((n, k))
        return itertools.islice(lattice(n, k), 200)

    lattice = forms._simplex_lattice
    monkeypatch.setattr(forms, "_simplex_lattice", first_points)
    rc, out, err = _report(tmp_path, _s_plus_abelian(4))
    assert (rc, err) == (0, "")
    assert walked == [(9, 11)]
    assert "invariant form space: 11\nno nondegenerate ad-invariant form\n" in out


def test_series_answers_h3_plus_abelian_past_the_lattice_budget(tmp_path):
    # h3 + R^4: k = 21 and C(27, 20) = 888,030 lattice points, yet
    # dim C^1 + dim C_1 = 1 + 5 != 7 answers "no" before any of them
    g = LieAlgebra.from_brackets(7, [(0, 1, 2, 1)], "h3r7")
    assert comb(7 + 21 - 1, 21 - 1) > forms.MAX_LATTICE_POINTS
    t0 = time.perf_counter()
    rc, out, err = _report(tmp_path, g)
    assert time.perf_counter() - t0 < 1.0
    assert (rc, err) == (0, "")
    assert "invariant form space: 21\nno nondegenerate ad-invariant form\n" in out
    assert has_nondegenerate_invariant_form(g).series_r == 1
