"""metriclie's exact results against sympy, computed apart from metriclie.

Nullspaces are compared through their canonical row spaces.  The
invariance system and the soliton certificate are rebuilt here from the
structure constants alone: the system Q(ad(e_i) x, y) + Q(x, ad(e_i) y) = 0
for the invariant forms, and for the soliton the Koszul formula, the
curvature, the Ricci operator and the derivation identity.
"""

import itertools
from fractions import Fraction as F

import sympy
from hypothesis import given, settings, strategies as st

from metriclie.algebra import change_of_basis
from metriclie.catalog import get
from metriclie.connection import levi_civita, soliton_solve
from metriclie.forms import invariant_form_space, transform_form
from metriclie.linalg import determinant, nullspace, row_space

rationals = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2)))
SOURCES = {"g0": "gmatrix0", "g1": "gmatrix0", "r+sl2": "killing+1",
           "r+so3": "killing+1"}


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def from_sympy(v):
    return tuple(F(str(x)) for x in v)


def sympy_structure(g):
    n = g.dim
    return [[[sympy.Rational(x.numerator, x.denominator) for x in g.structure[i][j]]
             for j in range(n)] for i in range(n)]


def same_span(ours, theirs):
    return row_space(list(ours)) == row_space(list(theirs))


@st.composite
def rational_matrices(draw):
    """m x n matrices, a third of them of rank at most r < min(m, n)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if draw(st.integers(0, 2)):
        return [draw(st.lists(rationals, min_size=n, max_size=n))
                for _ in range(m)]
    r = draw(st.integers(0, min(m, n) - 1))
    C = [draw(st.lists(rationals, min_size=r, max_size=r)) for _ in range(m)]
    B = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(r)]
    return [[sum((C[i][t] * B[t][j] for t in range(r)), start=F(0))
             for j in range(n)] for i in range(m)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(A=rational_matrices())
def test_nullspace_matches_sympy(A):
    ours = nullspace(A)
    theirs = [from_sympy(v) for v in to_sympy(A).nullspace()]
    assert len(ours) == len(theirs)
    assert same_span(ours, theirs)


@st.composite
def moved_algebras(draw):
    """(name, g, P) for a rational basis change P of a catalog algebra."""
    name = draw(st.sampled_from(sorted(SOURCES) + ["h3"]))
    n = get(name).algebra.dim
    P = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                      min_size=n, max_size=n).filter(determinant))
    return name, change_of_basis(get(name).algebra, P), P


def _sympy_invariant_forms(c, n):
    """Nullspace of Q(ad(e_i) x, y) + Q(x, ad(e_i) y) = 0 in the unknowns
    Q_ab, a <= b, built from the structure constants c[i][j][k]."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    Q = sympy.symbols(f"q0:{len(pairs)}")
    q = {}
    for (a, b), s in zip(pairs, Q):
        q[a, b] = q[b, a] = s
    eqs = [sum(c[i][x][l] * q[l, y] + c[i][y][l] * q[x, l] for l in range(n))
           for i in range(n) for x in range(n) for y in range(n)]
    system, _ = sympy.linear_eq_to_matrix(eqs, Q)
    return [from_sympy(v) for v in system.nullspace()], pairs


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=moved_algebras())
def test_invariant_form_space_matches_sympy(case):
    _, g, _ = case
    theirs, pairs = _sympy_invariant_forms(sympy_structure(g), g.dim)
    ours = [tuple(B.matrix[a][b] for a, b in pairs)
            for B in invariant_form_space(g)]
    assert len(ours) == len(theirs)
    assert same_span(ours, theirs)


def _sympy_ricci_operator(c, Bm):
    """Ric raised by the metric, from the Koszul formula, with
    R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y] and
    Ric(x, y) = trace(z -> R(z, x) y)."""
    n = Bm.shape[0]
    Binv = Bm.inv()

    def pair(u, v):
        return (u.T * Bm * v)[0, 0]

    E = [sympy.Matrix(n, 1, lambda r, _, k=k: int(r == k)) for k in range(n)]
    br = [[sympy.Matrix(n, 1, lambda r, _, i=i, j=j: c[i][j][r])
           for j in range(n)] for i in range(n)]
    # nabla[i][j] = nabla_{e_i} e_j
    nabla = [[Binv * sympy.Matrix(n, 1, lambda k, _, i=i, j=j: (
        pair(br[i][j], E[k]) - pair(br[j][k], E[i]) + pair(br[k][i], E[j])) / 2)
        for j in range(n)] for i in range(n)]

    def nab(i, v):
        return sum((v[l] * nabla[i][l] for l in range(n)), sympy.zeros(n, 1))

    def R(i, j, k):
        along = sum((br[i][j][l] * nabla[l][k] for l in range(n)),
                    sympy.zeros(n, 1))
        return nab(i, nabla[j][k]) - nab(j, nabla[i][k]) - along

    ric = sympy.Matrix(n, n, lambda a, b: sum(R(k, a, b)[k] for k in range(n)))
    return Binv * ric


def _is_derivation(c, D):
    n = D.shape[0]

    def bracket(u, v):
        return sympy.Matrix(n, 1, lambda k, _: sum(
            u[i] * v[j] * c[i][j][k] for i in range(n) for j in range(n)))

    E = [sympy.Matrix(n, 1, lambda r, _, k=k: int(r == k)) for k in range(n)]
    return all(D * bracket(E[i], E[j]) ==
               bracket(D * E[i], E[j]) + bracket(E[i], D * E[j])
               for i, j in itertools.combinations(range(n), 2))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(case=moved_algebras(), h3_metric=st.sampled_from(["h1", "h2"]))
def test_soliton_certificate_checks_in_sympy(case, h3_metric):
    name, g, P = case
    entry = get(name)
    B0 = entry.left_metrics[h3_metric] if name == "h3" \
        else entry.invariant_forms[SOURCES[name]]
    B = transform_form(B0, P)
    n = g.dim
    c = sympy_structure(g)
    ric = _sympy_ricci_operator(c, to_sympy(B.matrix))
    sol = soliton_solve(levi_civita(g, B))
    assert sol.feasible  # every source is a soliton, in any basis
    D = to_sympy(sol.derivation)
    cc = sympy.Rational(sol.c.numerator, sol.c.denominator)
    assert ric - cc * sympy.eye(n) - D == sympy.zeros(n, n)
    assert to_sympy(sol.residual) == sympy.zeros(n, n)
    assert _is_derivation(c, D)
