"""The simplex-lattice walk of ``has_nondegenerate_invariant_form`` against
the full (n+1)^k grid search it replaced, kept here as the oracle.

The grid search proves "no" by Alon's Combinatorial Nullstellensatz: the
determinant has degree at most n in each coefficient and the grid has n+1
points per variable.  It is slow (15,625 determinants for k = 6) but
independent of the lattice argument.
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
from metriclie.algebra import LieAlgebra, change_of_basis
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
    got = has_nondegenerate_invariant_form(g)
    space = invariant_form_space(g)
    want = _grid_search_span(space)
    assert got.found == want.found
    assert got.space_dim == want.space_dim
    if got.found and got.grid_points_checked == 0:
        # a cheap candidate's "yes" keeps the old witness
        assert got == want
    if got.found:
        assert got.witness.is_nondegenerate() and is_ad_invariant(g, got.witness)
        _assert_first_lattice_witness(space, got)
    elif got.space_dim:
        assert got.grid_points_checked == comb(g.dim + got.space_dim - 1,
                                               got.space_dim - 1)
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
    # 15 lattice points for k = 3 and 126 for k = 6, against 125 and 15,625
    want = {"h3+R": 126, "aff+R2": 126}.get(name, 15)
    assert has_nondegenerate_invariant_form(g).grid_points_checked == want
    search = _assert_same_search(change_of_basis(g, P))
    assert not search.found
    assert search.grid_points_checked == want


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
def test_search_walks_at_most_the_lattice(g):
    search = has_nondegenerate_invariant_form(g)
    k = search.space_dim
    assert k == 0 or search.grid_points_checked <= comb(g.dim + k - 1, k - 1)


# --- the budget of a "no": forms.MAX_LATTICE_POINTS ----------------------

def _report_h3_plus_abelian(tmp_path, dim):
    """report on h3 + R^(dim-3); its invariant-form space has dimension
    dim(dim-1)/2 and no nondegenerate element."""
    path = tmp_path / f"h3r{dim}.json"
    path.write_text(json.dumps({"dim": dim, "brackets": [[0, 1, 2, 1]]}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["report", str(path)])
    return rc, out.getvalue(), err.getvalue()


def test_lattice_budget_refuses_dimension_7(tmp_path):
    # k = 21: C(27, 20) = 888,030 lattice determinants, over the budget
    assert comb(7 + 21 - 1, 21 - 1) > forms.MAX_LATTICE_POINTS
    t0 = time.perf_counter()
    rc, out, err = _report_h3_plus_abelian(tmp_path, 7)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert err.splitlines() == [
        "error: deciding the 21-dim invariant-form space takes 888030 "
        "lattice determinants, more than 100000"]


def test_lattice_budget_admits_dimension_6(tmp_path, monkeypatch):
    # k = 15: C(20, 14) = 38,760 lattice determinants, under the budget.
    # Every one of them vanishes; the walk takes about 10 s, so here it is
    # cut to the first 200 points after the budget check has let it through
    walked = []

    def first_points(n, k):
        walked.append((n, k))
        return itertools.islice(lattice(n, k), 200)

    lattice = forms._simplex_lattice
    monkeypatch.setattr(forms, "_simplex_lattice", first_points)
    rc, out, err = _report_h3_plus_abelian(tmp_path, 6)
    assert (rc, err) == (0, "")
    assert walked == [(6, 15)]
    assert "invariant form space: 15\nno nondegenerate ad-invariant form\n" in out
