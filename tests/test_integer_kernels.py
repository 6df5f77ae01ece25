"""The scaled-integer kernels against the Fraction loops they replaced.

``bracket``, ``contract`` and ``mat_vec`` (and ``mat_mul``, its columns)
clear denominators once, work over the integers and build one Fraction per
output entry.  ``bracket`` and ``contract`` take Q(sqrt d) input through the
same loop: a sequence with a QuadExt entry is used as it is (scale 1), and
an output entry that met a QuadExt stays one.  ``mat_vec`` keeps its field
loop for anything but a Fraction matrix with a vector of ints and
Fractions.  The homogeneous systems (both central series, the
invariant-form and isotropy rows, the Killing form) and the double bracket
D^2 [[e_i, e_j], e_k] that Jacobi, the 1/4-ad check, the isometry check
and the isotropy rows read are built from the per-algebra integer
structure table.  The field loops are kept here as the
oracle, and results are compared by ``repr`` so that types must match as
well as values; row builders by their row space.
"""

import itertools
import math
import operator
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from metriclie import algebra, connection, linalg
from metriclie.algebra import (LieAlgebra, Subspace, _chain, _double_bracket,
                               _jacobi_witness, add3, bracket, change_of_basis,
                               jacobi_check, lower_central, upper_central)
from metriclie.catalog import get, names
from metriclie.connection import (_derivation_rows, _isotropy_basis,
                                  ahc_isometry_check,
                                  biinvariant_curvature_check, curvature,
                                  levi_civita, linearized_isotropy_dim)
from metriclie.forms import (SymBilinearForm, _form_from_coeffs,
                             _skew_form_rows, invariant_form_space,
                             is_ad_invariant, killing_form, transform_form)
from metriclie.linalg import (basis_vector, contract, determinant, mat,
                              mat_mul, mat_vec, nullspace, row_space, tensor,
                              vec)
from metriclie.scalars import QuadExt

from conftest import rref_field_loop


def bracket_loop(g, x, y):
    x, y = vec(x), vec(y)
    acc = [F(0)] * g.dim
    for i, j in itertools.combinations(range(g.dim), 2):
        w = x[i] * y[j] - x[j] * y[i]
        if w:
            for k, ck in enumerate(g.structure[i][j]):
                if ck:
                    acc[k] += w * ck
    return tuple(acc)


def contract_loop(T, vectors):
    leaf = T
    for _ in vectors:
        leaf = leaf[0]
    acc = [F(0)] * len(leaf)
    terms = [(T, 1)]
    for x in vectors:
        terms = [(sub, w * xi) for part, w in terms
                 for xi, sub in zip(x, part) if xi]
    for leaf, w in terms:
        for k, c in enumerate(leaf):
            if c:
                acc[k] += w * c
    return tuple(acc)


def mat_vec_loop(A, x):
    return tuple(sum((a * b for a, b in zip(row, x)), start=row[0] * 0) for row in A)


def mat_mul_loop(A, B):
    bt = tuple(zip(*B))
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), start=row[0] * 0)
                       for col in bt) for row in A)


BIG = 10**100
# 100-digit numerators and denominators, small values, and many zeros
big = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
small = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
entries = st.one_of(st.just(F(0)), small, big)
sparse = st.one_of(st.just(F(0)), st.just(F(0)), small)
# ints and Fractions mixed, or ints only: types must come out as before
mixed = st.one_of(st.integers(-3, 3), small, big)
ints = st.integers(-BIG, BIG)


def vectors(n, elements=entries):
    return st.lists(st.one_of(elements, sparse), min_size=n, max_size=n)


def matrices(m, n, elements=entries):
    return st.lists(vectors(n, elements), min_size=m, max_size=m)


@st.composite
def algebras(draw):
    """A catalog algebra, as it is or in a random rational basis."""
    g = get(draw(st.sampled_from(names()))).algebra
    if draw(st.booleans()):
        P = draw(matrices(g.dim, g.dim, small).filter(determinant))
        g = change_of_basis(g, P)
    return g


@st.composite
def bracket_args(draw):
    g = draw(algebras())
    return g, draw(vectors(g.dim)), draw(vectors(g.dim))


@settings(max_examples=150, deadline=None)
@given(args=bracket_args())
def test_bracket_matches_the_field_loop(args):
    g, x, y = args
    assert repr(bracket(g, x, y)) == repr(bracket_loop(g, x, y))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), g=algebras())
def test_bracket_of_mixed_and_int_input(data, g):
    for elements in (mixed, ints):
        x, y = (data.draw(vectors(g.dim, elements)) for _ in range(2))
        assert repr(bracket(g, x, y)) == repr(bracket_loop(g, x, y))


def test_bracket_of_zero_and_basis_vectors():
    for name in names():
        g = get(name).algebra
        n = g.dim
        zero = (F(0),) * n
        for i in range(n):
            e = basis_vector(n, i)
            assert repr(bracket(g, e, zero)) == repr(bracket_loop(g, e, zero))
            for j in range(n):
                f = basis_vector(n, j)
                assert repr(bracket(g, e, f)) == repr(bracket_loop(g, e, f))


@st.composite
def contract_args(draw, elements=entries):
    """A rank-p tensor (p = 1..3) of width-n leaves and p vectors."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, 3))
    leaves = iter(draw(st.lists(vectors(n, elements), min_size=n ** p,
                                max_size=n ** p)))
    T = tensor(n, p, lambda *idx: tuple(next(leaves)))
    return T, [tuple(draw(vectors(n, elements))) for _ in range(p)]


@settings(max_examples=150, deadline=None)
@given(args=contract_args())
def test_contract_matches_the_field_loop(args):
    T, vs = args
    assert repr(contract(T, vs)) == repr(contract_loop(T, vs))


@settings(max_examples=60, deadline=None)
@given(args=st.one_of(contract_args(mixed), contract_args(ints)))
def test_contract_of_mixed_and_int_input(args):
    T, vs = args
    assert repr(contract(T, vs)) == repr(contract_loop(T, vs))


def test_contract_with_quadext_leaves_takes_the_field_loop():
    r2 = QuadExt(0, 1, 2)
    T = ((F(1), r2), (F(1, 2), F(0)))
    for x in ((F(1), F(0)), (F(0), F(1)), (F(1, 3), F(-2))):
        assert repr(contract(T, (x,))) == repr(contract_loop(T, (x,)))
    # an entry that met a QuadExt stays one, also when it cancels to zero
    for T, x in ((((F(1),), (F(-1),)), ((r2, r2),)),
                 (((r2,), (-r2,)), ((F(1), F(1)),))):
        assert repr(contract(T, x)) == repr(contract_loop(T, x)) == "(0,)"


def test_contract_of_catalog_structure_tables():
    for name in names():
        g = get(name).algebra
        n = g.dim
        for i in range(n):
            for j in range(n):
                vs = (basis_vector(n, i), vec(range(-1, n - 1)))
                assert repr(contract(g.structure, vs)) == \
                    repr(contract_loop(g.structure, vs))
                assert repr(contract(g.structure, vs[::-1])) == \
                    repr(contract_loop(g.structure, vs[::-1]))


# --- Q(sqrt 2) through the same loops ----------------------------------------

R2 = QuadExt(0, 1, 2)
QZERO = QuadExt(0, 0, 2)
# irrational values, rational values spelled in Q(sqrt 2), and its zero
quad = st.one_of(st.builds(lambda a, b: QuadExt(a, b, 2), small, small),
                 st.just(QZERO))


def spelled(g, f):
    """g with every structure constant c replaced by f(c)."""
    return LieAlgebra(g.dim, tuple(tuple(tuple(f(c) for c in cij)
                                         for cij in plane)
                                   for plane in g.structure))


@st.composite
def quad_tables(draw):
    """A catalog algebra as it is, or scaled by sqrt(2) ([x, y]' = sqrt(2)
    [x, y]) with its zeros spelled as Fraction(0) or as QuadExt(0, 0, 2)."""
    g = get(draw(st.sampled_from(names()))).algebra
    zero = draw(st.sampled_from((None, F(0), QZERO)))
    return g if zero is None else spelled(g, lambda c: R2 * c if c else zero)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=quad_tables())
def test_bracket_and_contract_of_quadratic_field_input(data, g):
    n = g.dim
    x, y = (data.draw(vectors(n, st.one_of(entries, quad))) for _ in range(2))
    assert repr(bracket(g, x, y)) == repr(bracket_loop(g, x, y))
    for vs in ((x, y), (y, basis_vector(n, 0)), (basis_vector(n, n - 1), x)):
        assert repr(contract(g.structure, vs)) == \
            repr(contract_loop(g.structure, vs))
    assert repr(contract(g.structure[0], (x,))) == \
        repr(contract_loop(g.structure[0], (x,)))


def test_contract_of_ragged_leaves():
    # each visited leaf is walked by its own length
    T = ((F(1), F(2)), (F(3),))
    x = ((F(1), F(1)),)
    assert contract(T, x) == (F(4, 1), F(2, 1))
    assert repr(contract(T, x)) == repr(contract_loop(T, x))


def test_zeros_spelled_in_the_quadratic_field_answer_as_fractions():
    # a rational table with its zeros written QuadExt(0, 0, 2) is scaled as
    # the same table in Fractions, and every answer is the Fraction one
    for name in ("g0", "aff", "h3"):
        g = get(name).algebra
        gz = spelled(g, lambda c: c if c else QZERO)
        n = g.dim
        vs = [basis_vector(n, i) for i in range(n)]
        vs.append(tuple(F(i - 1, 2) for i in range(n)))
        for x, y in itertools.product(vs, repeat=2):
            assert repr(bracket(gz, x, y)) == repr(bracket(g, x, y))
        for series in (lower_central, upper_central):
            assert repr([series(gz, r) for r in range(n + 1)]) == \
                repr([series(g, r) for r in range(n + 1)])
        assert repr(invariant_form_space(gz)) == repr(invariant_form_space(g))
        assert repr(killing_form(gz)) == repr(killing_form(g))
        assert repr(_double_bracket(gz)) == repr(_double_bracket(g))
        assert repr(jacobi_check(gz)) == repr(jacobi_check(g))


@st.composite
def mat_vec_args(draw, elements=entries):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(matrices(m, n, elements)), draw(vectors(n, elements))


@settings(max_examples=150, deadline=None)
@given(args=st.one_of(mat_vec_args(), mat_vec_args(mixed), mat_vec_args(ints)))
def test_mat_vec_matches_the_field_loop(args):
    A, x = args
    assert repr(mat_vec(A, x)) == repr(mat_vec_loop(A, x))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), elements=st.sampled_from((entries, mixed, ints)))
def test_mat_mul_matches_the_field_loop(data, elements):
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = data.draw(matrices(m, k, elements))
    B = data.draw(matrices(k, n, elements))
    assert repr(mat_mul(A, B)) == repr(mat_mul_loop(A, B))


def test_mat_mul_keeps_the_shape_of_empty_factors():
    A = ((F(1), F(2)), (F(3), F(4)))
    assert mat_mul(A, ((), ())) == mat_mul_loop(A, ((), ())) == ((), ())
    assert mat_mul((), A) == mat_mul_loop((), A) == ()


def test_integer_kernel_dispatch(monkeypatch):
    def refuse(*args):
        raise AssertionError("wrong kernel")

    monkeypatch.setattr(linalg, "_mat_vec_int", refuse)
    r2 = QuadExt(0, 1, 2)
    g = get("g0").algebra
    # QuadExt input gives the field loop's answers
    x = (F(1), r2, F(0), F(1, 2))
    assert repr(bracket(g, x, basis_vector(4, 1))) == \
        repr(bracket_loop(g, x, basis_vector(4, 1)))
    assert repr(contract(g.structure, (x, x))) == \
        repr(contract_loop(g.structure, (x, x)))
    A = ((F(1), r2), (F(0), F(2)))
    assert mat_vec(A, (F(1), F(1))) == (1 + r2, F(2))
    assert mat_vec(((F(1), F(0)), (F(0), F(1))), (r2, F(1))) == (r2, F(1))
    # so does a QuadExt structure table with Fraction input
    zero = (F(0), F(0))
    gq = LieAlgebra(2, ((zero, (F(0), r2)), ((F(0), -r2), zero)))
    assert bracket(gq, (F(1), F(0)), (F(0), F(3))) == (0, 3 * r2)
    # and ints or bools, which keep their types
    assert repr(mat_vec(((1, 2), (3, 4)), (1, 1))) == "(3, 7)"
    assert repr(mat_vec(((True, 0),), (F(1), F(1)))) == "(Fraction(1, 1),)"
    assert repr(contract(((1, 2), (3, 4)), ((1, 0),))) == \
        "(Fraction(1, 1), Fraction(2, 1))"
    # the reverse: all-Fraction input reaches the integer kernel
    with pytest.raises(AssertionError, match="wrong kernel"):
        mat_vec(((F(1),),), (F(1),))
    with pytest.raises(AssertionError, match="wrong kernel"):
        mat_mul(((F(1),),), ((F(1),),))
    # and so does a Fraction matrix with ints in the vector
    with pytest.raises(AssertionError, match="wrong kernel"):
        mat_vec(((F(1), F(1, 2)),), (2, F(1, 3)))
    with pytest.raises(AssertionError, match="wrong kernel"):
        mat_vec(((F(1, 2),),), (3,))


def test_bracket_table_is_built_once_and_not_part_of_the_value():
    g = LieAlgebra.from_brackets(3, [(0, 1, 2, F(1, 2)), (0, 2, 1, F(-2, 3))])
    # D and the dense integer table are the value; the pairs that bracket
    # reads are built on first use and kept outside it
    assert g.D == 6 and g.dense[0][1] == (0, 0, 3) and g.dense[2][0] == (0, 4, 0)
    assert "_pairs" not in g.__dict__
    assert bracket(g, (1, 0, 0), (0, 1, 0)) == (0, 0, F(1, 2))
    pairs = g.__dict__["_pairs"]
    assert pairs == ((0, 1, ((2, 3),)), (0, 2, ((1, -4),)))
    assert bracket(g, (0, 0, 1), (1, 0, 0)) == (0, F(2, 3), 0)
    assert g.pairs is pairs
    twin = LieAlgebra.from_brackets(3, [(0, 1, 2, F(1, 2)), (0, 2, 1, F(-2, 3))])
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)


# --- the homogeneous systems over Z -----------------------------------------
# The Fraction row builders as they were before the integer structure table
# fed them: the oracle for the int rows.

def upper_central_loop(g):
    n = g.dim

    def step(c):
        ann = nullspace(c.basis, ncols=n)
        rows = [tuple(sum((a[k] * g.structure[i][j][k] for k in range(n)),
                          start=F(0)) for i in range(n))
                for j in range(n) for a in ann]
        return Subspace.span(nullspace(rows, ncols=n), n)

    return _chain(Subspace.zero(n), step, n)


def lower_central_loop(g):
    """The lower central series as it was: C^r spanned by the brackets
    [e_i, b] over the basis vectors b of C^(r-1)."""
    n = g.dim

    def step(c):
        return Subspace.span([bracket(g, basis_vector(n, i), b)
                              for i in range(n) for b in c.basis], n)

    return _chain(Subspace.full(n), step, n)


def skew_form_rows_loop(n, maps):
    index = {p: c for c, p in enumerate(
        (i, j) for i in range(n) for j in range(i, n))}
    rows = set()
    for A in maps:
        for x in range(n):
            for y in range(x, n):
                row = [F(0)] * len(index)
                for l in range(n):
                    if A[x][l]:
                        row[index[min(l, y), max(l, y)]] += A[x][l]
                    if A[y][l]:
                        row[index[min(x, l), max(x, l)]] += A[y][l]
                if any(row):
                    rows.add(tuple(row))
    return rows


def skew_rows_loop(B):
    n = B.dim
    rows = set()
    for i in range(n):
        for j in range(i, n):
            row = [F(0)] * (n * n)
            for l in range(n):
                row[l * n + i] += B.matrix[l][j]
                row[l * n + j] += B.matrix[i][l]
            if any(row):
                rows.add(tuple(row))
    return rows


def derivation_rows_loop(T, p):
    n = len(T)

    def at(key):
        return reduce(operator.getitem, key, T)

    rows = set()
    for head in itertools.combinations(range(n), 2):
        for rest in itertools.product(range(n), repeat=p - 2):
            idx = head + rest
            image = at(idx)
            terms = [(l * n + i_s, at(idx[:s] + (l,) + idx[s + 1:]))
                     for s, i_s in enumerate(idx) for l in range(n)]
            for comp in range(n):
                row = [F(0)] * (n * n)
                for l, v in enumerate(image):
                    if v:
                        row[comp * n + l] += v
                for col, v in terms:
                    if v[comp]:
                        row[col] -= v[comp]
                if any(row):
                    rows.add(tuple(row))
    return rows


def ad_loop(g, i):
    n = g.dim
    return tuple(zip(*(bracket_loop(g, basis_vector(n, i), basis_vector(n, j))
                       for j in range(n))))


def killing_loop(g):
    n = g.dim
    ads = [ad_loop(g, i) for i in range(n)]
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = sum((ads[i][r][s] * ads[j][s][r]
                                     for r in range(n) for s in range(n)),
                                    start=F(0))
    return m


def double_bracket_loop(g):
    n = g.dim
    return tensor(n, 3, lambda i, j, k: bracket_loop(g, g.bracket_basis(i, j),
                                                     basis_vector(n, k)))


def assert_scaled_double_bracket(g):
    """_double_bracket(g) is D^2 times the loop's tensor, D the scale of the
    integer structure table; all ints when the table is rational."""
    D = g.D
    T, want = _double_bracket(g), double_bracket_loop(g)
    for i, j, k in itertools.product(range(g.dim), repeat=3):
        assert T[i][j][k] == tuple(D * D * x for x in want[i][j][k])
    if all(type(c) is F for plane in g.structure for cij in plane for c in cij):
        assert all(type(x) is int for plane in T for row in plane
                   for leaf in row for x in leaf)


def invariant_forms_loop(g):
    n = g.dim
    rows = list(skew_form_rows_loop(n, g.structure))
    return [_form_from_coeffs(n, b)
            for b in nullspace(rows, ncols=n * (n + 1) // 2)]


def isotropy_loop(g, B):
    rows = list(skew_rows_loop(B) | derivation_rows_loop(double_bracket_loop(g), 3))
    return nullspace(rows, ncols=B.dim * B.dim)


def isotropy_full_rank(g, B):
    """N - rank of every row of the skew-coordinate system, all eliminated:
    the isotropy dimension as it was computed before the rank bound."""
    n = B.dim
    rows = [tuple(k) for k in connection._isotropy_rows(B, _double_bracket(g))[0]]
    return n * (n - 1) // 2 - len(linalg.rref(rows)[1])


def same_rows(rows, want):
    return row_space(list(rows)) == row_space(list(want))


def builder_rows(T, p):
    """The rows of ``_derivation_rows``, their (col, coefficient) pairs
    summed per column into dense rows."""
    n = len(T)
    rows = []
    for _, pairs in _derivation_rows(T, p):
        row = [F(0)] * (n * n)
        for col, x in pairs:
            row[col] += x
        rows.append(row)
    return rows


def assert_isotropy_space(B, T, g):
    """The S basis solved in skew coordinates spans the space of the full
    n^2 system (``isotropy_loop``); over Q its entries are Fractions."""
    basis = [sum(S, ()) for S in _isotropy_basis(B, T)]
    assert same_rows(basis, isotropy_loop(g, B))
    if all(type(x) is F for row in B.matrix for x in row) and \
            all(type(x) is int for plane in T for row in plane
                for leaf in row for x in leaf):
        assert all(type(x) is F for v in basis for x in v)


# metric sources: each algebra with an ad-invariant nondegenerate form
METRICS = {"g0": "gmatrix0", "g1": "gmatrix0", "r+sl2": "killing+1",
           "r+so3": "killing+1"}


@st.composite
def big_basis_changes(draw, names=tuple(names())):
    """A catalog algebra in a basis with 100-digit rational entries."""
    name = draw(st.sampled_from(names))
    n = get(name).algebra.dim
    P = draw(matrices(n, n, st.one_of(big, small)).filter(determinant))
    return name, P


@settings(max_examples=30, deadline=None)
@given(case=big_basis_changes())
def test_structure_systems_match_the_field_loops(case):
    name, P = case
    g = change_of_basis(get(name).algebra, P)
    n = g.dim
    assert repr(tuple(upper_central(g, r) for r in range(n + 1))) == \
        repr(upper_central_loop(g))
    assert same_rows(_skew_form_rows(n, g.structure),
                     skew_form_rows_loop(n, g.structure))
    assert same_rows(_skew_form_rows(n, g.dense),
                     skew_form_rows_loop(n, g.structure))
    assert repr(invariant_form_space(g)) == repr(invariant_forms_loop(g))
    assert repr(killing_form(g).matrix) == \
        repr(tuple(map(tuple, killing_loop(g))))


@settings(max_examples=12, deadline=None)
@given(case=big_basis_changes(tuple(sorted(METRICS))))
def test_isotropy_systems_match_the_field_loops(case):
    name, P = case
    entry = get(name)
    g = change_of_basis(entry.algebra, P)
    B = transform_form(entry.invariant_forms[METRICS[name]], P)
    assert_scaled_double_bracket(g)
    dbl, want = _double_bracket(g), double_bracket_loop(g)
    assert same_rows(builder_rows(g.structure, 2),
                     derivation_rows_loop(g.structure, 2))
    assert same_rows(builder_rows(dbl, 3), derivation_rows_loop(want, 3))
    assert same_rows(builder_rows(want, 3), derivation_rows_loop(want, 3))
    assert_isotropy_space(B, dbl, g)
    assert linearized_isotropy_dim(g, B) == len(isotropy_loop(g, B)) == \
        isotropy_full_rank(g, B) == 3


def test_quadext_structure_tables_keep_the_field_loops():
    r2 = QuadExt(0, 1, 2)
    for name, form in METRICS.items():
        entry = get(name)
        g = entry.algebra
        # [x, y]' = sqrt(2) [x, y] is a Lie algebra with the same invariant
        # forms; its constants are QuadExt, so its table is unscaled
        gq = LieAlgebra(g.dim, tuple(tuple(tuple(r2 * c if c else c for c in cij)
                                           for cij in plane)
                                     for plane in g.structure))
        assert gq.D == 1
        n = g.dim
        assert repr(tuple(upper_central(gq, r) for r in range(n + 1))) == \
            repr(upper_central_loop(gq))
        assert repr(invariant_form_space(gq)) == repr(invariant_forms_loop(gq))
        # the traces are rational (b == 0), so the form holds Fractions
        assert repr(killing_form(gq).matrix) == repr(mat(killing_loop(gq)))
        B = entry.invariant_forms[form]
        assert_scaled_double_bracket(gq)
        assert_isotropy_space(B, _double_bracket(gq), gq)
        assert linearized_isotropy_dim(gq, B) == len(isotropy_loop(gq, B)) == \
            isotropy_full_rank(gq, B) == 3


@st.composite
def abelian_metrics(draw):
    """R^n, 1 <= n <= 6, with the random nondegenerate form L diag(d) L^T,
    L unit lower triangular and every d_a nonzero (any signature)."""
    n = draw(st.integers(1, 6))
    L = [[F(int(a == b)) if a <= b else draw(small) for b in range(n)]
         for a in range(n)]
    d = draw(st.lists(small.filter(bool), min_size=n, max_size=n))
    M = [[sum(L[a][c] * d[c] * L[b][c] for c in range(n)) for b in range(n)]
         for a in range(n)]
    return LieAlgebra.from_brackets(n, []), SymBilinearForm(n, M)


@settings(max_examples=40, deadline=None)
@given(case=abelian_metrics())
def test_abelian_isotropy_is_the_full_skew_algebra(case):
    # the double bracket is zero, so no row is drawn and the answer is N
    g, B = case
    n = g.dim
    assert linearized_isotropy_dim(g, B) == len(isotropy_loop(g, B)) == \
        isotropy_full_rank(g, B) == n * (n - 1) // 2


def test_zero_double_bracket_draws_no_row(monkeypatch):
    # R^1..R^16 with B = I, and T*h3 = h3 x| h3* with its dual pairing
    # (2-step nilpotent: [e0, f2] = -f1, [e1, f2] = f0 on top of h3)
    cases = [(LieAlgebra.from_brackets(n, []),
              SymBilinearForm(n, linalg.identity_matrix(n)))
             for n in range(1, 17)]
    tstar = LieAlgebra.from_brackets(
        6, [(0, 1, 2, 1), (0, 5, 4, -1), (1, 5, 3, 1)])
    pairing = SymBilinearForm.from_entries(6, [(i, i + 3, 1) for i in range(3)])
    cases.append((tstar, pairing))
    assert is_ad_invariant(tstar, pairing) and jacobi_check(tstar)
    assert isotropy_full_rank(tstar, pairing) == 15

    def refuse(*args):
        raise AssertionError("isotropy rows built")

    monkeypatch.setattr(connection, "_isotropy_rows", refuse)
    for g, B in cases:
        n = g.dim
        assert linearized_isotropy_dim(g, B) == n * (n - 1) // 2


def test_isotropy_bound_needs_jacobi():
    # two so(3) triples sharing e2 with B = I: ad-invariant, but Jacobi
    # fails; the ad(e_i) span 5 dimensions but are not all solutions, and
    # the nullity is 4, so the bound N - 5 would stop one row early
    brackets = [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                (2, 3, 4, 1), (3, 4, 2, 1), (4, 2, 3, 1)]
    g = LieAlgebra.from_brackets(5, brackets)
    B = SymBilinearForm(5, linalg.identity_matrix(5))
    assert is_ad_invariant(g, B) and not jacobi_check(g)
    assert linalg.rank([sum(plane, ()) for plane in g.dense]) == 5
    assert linearized_isotropy_dim(g, B) == len(isotropy_loop(g, B)) == \
        isotropy_full_rank(g, B) == 4


def test_isotropy_elimination_stops_at_the_rank_bound(monkeypatch):
    # g0 in a rational basis: dim ad = 3, N = 6, so the elimination stops
    # once 3 independent rows are kept, long before the rows run out
    P = [[F(i + 2 * j + 1, j + 1) if i <= j else F(-1, i + j + 2)
          for j in range(4)] for i in range(4)]
    entry = get("g0")
    g = change_of_basis(entry.algebra, P)
    B = transform_form(entry.invariant_forms["gmatrix0"], P)
    rows_of = connection._isotropy_rows
    total = sum(1 for _ in rows_of(B, _double_bracket(g))[0])
    want = isotropy_full_rank(g, B)
    drawn = []

    def counted(B, T):
        rows, table, v = rows_of(B, T)
        return (drawn.append(k) or k for k in rows), table, v

    monkeypatch.setattr(connection, "_isotropy_rows", counted)
    assert linearized_isotropy_dim(g, B) == want == 3
    # the first three rows drawn are independent; 96 rows, all distinct,
    # would be eliminated without the stop
    assert len(drawn) == 3 and total == 96
    assert linalg.rank([tuple(k) for k in drawn]) == 3
    # sqrt(2) times the table: Q(sqrt 2) rows, the same stop
    r2 = QuadExt(0, 1, 2)
    gq = LieAlgebra(4, tuple(tuple(tuple(r2 * c if c else c for c in cij)
                                   for cij in plane) for plane in g.structure))
    drawn.clear()
    assert linearized_isotropy_dim(gq, B) == 3
    assert len(drawn) == 3 and type(drawn[0][0]) is QuadExt
    assert isotropy_full_rank(gq, B) == 3
    # the elimination itself: bound 0..3 draws 0, 1, 3 and 4 rows (the
    # second is dependent); a generator that fails past them is not reached
    for rows in ([(2, 4, 0), (1, 2, 0), (0, 3, 1), (0, 0, 5)],
                 [(r2, 2, 0), (1, r2, 0), (0, 1 + r2, F(1, 2)), (0, 0, r2)]):
        for bound, need in enumerate((0, 1, 3, 4)):
            drawn.clear()
            gen = (drawn.append(row) or row for row in rows[:need] + [None])
            assert len(linalg._rref_rows(gen, bound)[1]) == bound
            assert drawn == rows[:need]
        assert linalg._rref_rows(rows) == linalg._rref_rows(rows, 3)


def test_rational_constants_from_the_quadratic_field_are_fractions():
    # e0 -> sqrt(2) e0 - e3 on r+sl2: mat_vec builds every new constant in
    # Q(sqrt 2), yet each one is rational, so the table is scaled over Z
    r2 = QuadExt(0, 1, 2)
    P = ((r2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, 0, 0, 1))
    g = change_of_basis(get("r+sl2").algebra, P)
    assert all(type(c) is F for plane in g.structure for cij in plane
               for c in cij)
    assert {c for plane in g.structure for cij in plane for c in cij} == \
        {-2, -1, 0, 1, 2}
    assert all(type(c) is int for plane in g.dense
               for row in plane for c in row)


# --- subspaces as primitive integer RREF rows --------------------------------
# The field loop ``rref_field_loop`` is the oracle: the integer rows divided by
# their pivots, the kernel read off them and the row space they span.

def generic_nullspace(A, n):
    """The nullspace as it was built from the field RREF."""
    R, pivots = rref_field_loop(A)
    free = [c for c in range(n) if c not in pivots]
    out = []
    for f in free:
        v = [F(0)] * n
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        out.append(tuple(v))
    return out, free


@st.composite
def rational_systems(draw):
    """Ints and Fractions with 100-digit entries, and a dependent row."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = draw(matrices(m, n, st.one_of(entries, mixed)))
    if m > 1 and draw(st.booleans()):
        c = draw(st.one_of(small, big))
        A.append([x + c * y for x, y in zip(A[0], A[1])])
    return [tuple(row) for row in A]


@settings(max_examples=150, deadline=None)
@given(A=rational_systems())
def test_integer_rref_rows_are_the_field_rref_scaled(A):
    rows, pivots = linalg._rref_rows(A)
    R, want = rref_field_loop(A)
    assert pivots == want
    for row, c, r in zip(rows, pivots, R):
        assert all(type(x) is int for x in row)
        assert row[c] > 0 and math.gcd(*row) == 1
        assert tuple(F(x, row[c]) for x in row) == r
    assert not any(any(r) for r in R[len(pivots):])


@settings(max_examples=150, deadline=None)
@given(A=rational_systems())
def test_integer_kernel_is_a_positive_multiple_of_the_nullspace(A):
    n = len(A[0])
    want, free = generic_nullspace(A, n)
    kernel = linalg._kernel(A, n)
    assert len(kernel) == len(want)
    for v, w, f in zip(kernel, want, free):
        assert all(type(x) is int for x in v)
        assert v[f] > 0 and tuple(F(x, v[f]) for x in v) == w
    assert repr(nullspace(A)) == repr(want)


@settings(max_examples=150, deadline=None)
@given(A=rational_systems())
def test_span_holds_the_integer_rows_of_the_row_space(A):
    n = len(A[0])
    s = Subspace.span(A, n)
    R, pivots = rref_field_loop(A)
    fraction_rref = R[:len(pivots)]
    assert s.rows == linalg._rref_rows(A)[0]
    assert repr(s.basis) == repr(row_space(A)) == repr(fraction_rref)
    assert Subspace(n, fraction_rref) == s
    assert hash(Subspace(n, fraction_rref)) == hash(s)
    assert s.dim == len(pivots)
    assert all(s.contains(row) for row in A)


@settings(max_examples=100, deadline=None)
@given(A=rational_systems(), data=st.data())
def test_a_rational_span_of_quadratic_field_vectors_is_held_over_z(A, data):
    # each vector times 1 + sqrt 2, or spelled with QuadExt entries b = 0:
    # the span over Q(sqrt 2) is the rational one, so the rows are ints
    n = len(A[0])
    r2 = QuadExt(0, 1, 2)
    vectors = [tuple((1 + r2) * x for x in v) if data.draw(st.booleans())
               else tuple(QuadExt(x, 0, 2) for x in v) for v in A]
    s = Subspace.span(vectors, n)
    assert s == Subspace.span(A, n)
    assert all(type(x) is int for row in s.rows for x in row)
    assert repr(s.basis) == repr(Subspace.span(A, n).basis)


def test_an_irrational_subspace_keeps_its_field_rref():
    r2 = QuadExt(0, 1, 2)
    s = Subspace.span([(2, 2 * r2, 0), (r2, 2, 0)], 3)
    assert s.rows == ((F(1), r2, F(0)),) and s.basis == s.rows
    assert s == Subspace(3, [(r2, 2, 0)])
    assert s.contains((r2, 2, 0)) and not s.contains((1, 1, 0))
    assert not Subspace.span([(1, 0, 0), (0, 1, 0)], 3).contains_subspace(
        Subspace.full(3))
    assert Subspace.span([(1, 0, 0), (0, 1, 0)], 3).contains_subspace(s)


@st.composite
def rank_systems(draw):
    """rational_systems, some with zero rows and some tall (up to 12 rows)."""
    A = draw(rational_systems())
    if draw(st.booleans()):
        A += [(0,) * len(A[0])] * draw(st.integers(1, 3))
    if draw(st.booleans()):
        A += draw(matrices(draw(st.integers(0, 6)), len(A[0]), entries))
    return draw(st.permutations([tuple(row) for row in A]))


@settings(max_examples=150, deadline=None)
@given(A=rank_systems())
def test_rank_is_n_minus_the_kernel_length(A):
    n = len(A[0])
    assert linalg.rank(A) == n - len(linalg._kernel(A, n))
    assert linalg.rank(A) == linalg.rank(linalg.transpose(A))


def test_rank_eliminates_the_shorter_side(monkeypatch):
    """A matrix is reduced by ``_rref_rows`` on its shorter side, whether
    it is rational or has Q(sqrt 2) entries."""
    shapes = []
    rows = linalg._rref_rows
    monkeypatch.setattr(linalg, "_rref_rows", lambda A: shapes.append(
        (len(A), len(A[0]))) or rows(A))
    tall = [(i, 2 * i, F(i, 3)) for i in range(12)]
    assert linalg.rank(tall) == 1 and shapes == [(3, 12)]
    assert linalg.rank(linalg.transpose(tall)) == 1 and shapes[1:] == [(3, 12)]
    r2 = QuadExt(0, 1, 2)
    quad = [(1, r2), (r2, 2), (0, 1), (1, 0)]
    assert linalg.rank(quad) == 2 and shapes[2:] == [(2, 4)]
    assert linalg.rank(quad[:2]) == 1 and shapes[3:] == [(2, 2)]


# --- one elimination for every scalar ----------------------------------------

quads = st.builds(lambda a, b: QuadExt(a, b, 2) if b else a, small, small)


@st.composite
def kernel_systems(draw):
    """Rows of ints, of 100-digit Fractions or of Q(sqrt 2) values (some of
    them rational), zeros mixed in, with dependent rows appended."""
    elements = draw(st.sampled_from((ints, big, quads)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.one_of(elements, st.just(0)), min_size=n, max_size=n)
    A = draw(st.lists(row, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2)) if m > 1 else 0):
        a, b = draw(elements), draw(elements)
        A.append([a * x + b * y for x, y in zip(A[0], A[1])])
    return [tuple(r) for r in A]


@settings(max_examples=200, deadline=None)
@given(A=kernel_systems(), data=st.data())
def test_rref_rows_do_not_depend_on_the_row_order(A, data):
    rows, pivots = linalg._rref_rows(A)
    assert linalg._rref_rows(data.draw(st.permutations(A))) == (rows, pivots)
    R, want = rref_field_loop(A)
    assert pivots == want
    for row, c, r in zip(rows, pivots, R):
        assert type(row[c]) is int and row[c] > 0
        # the RREF row itself, or a rational one as its primitive ints
        assert tuple(x / row[c] for x in vec(row)) == r
        rational = all(type(x) is F for x in vec(r))
        assert all(type(x) is int for x in row) == rational
        assert (math.gcd(*row) if rational else row[c]) == 1


# --- the double bracket, kept once per algebra -------------------------------

def jacobi_witness_loop(g):
    """The Jacobi scan as it was: three brackets per triple i < j < k."""
    n = g.dim
    for i, j, k in itertools.combinations(range(n), 3):
        s = add3(bracket_loop(g, g.bracket_basis(i, j), basis_vector(n, k)),
                 bracket_loop(g, g.bracket_basis(j, k), basis_vector(n, i)),
                 bracket_loop(g, g.bracket_basis(k, i), basis_vector(n, j)))
        if any(s):
            return (i, j, k)
    return None


@st.composite
def antisymmetric_tables(draw):
    """Random sparse antisymmetric structure constants, Jacobi mostly failing."""
    n = draw(st.integers(1, 5))
    cells = [(i, j, k) for i in range(n) for j in range(i + 1, n)
             for k in range(n)]
    chosen = draw(st.lists(st.sampled_from(cells), max_size=3 * n,
                           unique=True)) if cells else []
    return LieAlgebra.from_brackets(n, [(i, j, k, draw(entries))
                                        for i, j, k in chosen])


@settings(max_examples=150, deadline=None)
@given(g=antisymmetric_tables())
def test_jacobi_witness_matches_the_bracket_loop(g):
    assert _jacobi_witness(g) == jacobi_witness_loop(g)
    assert_scaled_double_bracket(g)


def perturbed(g, i, j, k, delta):
    """g with delta added to c[i][j][k] and subtracted from c[j][i][k]."""
    c = [[list(cij) for cij in plane] for plane in g.structure]
    c[i][j][k] += delta
    c[j][i][k] -= delta
    return LieAlgebra(g.dim, c)


@settings(max_examples=30, deadline=None)
@given(case=big_basis_changes(), data=st.data())
def test_jacobi_witness_after_a_big_basis_change(case, data):
    name, P = case
    g = change_of_basis(get(name).algebra, P)
    assert _jacobi_witness(g) is None and jacobi_witness_loop(g) is None
    if g.dim < 2:
        return
    i, j = sorted(data.draw(st.lists(st.integers(0, g.dim - 1), min_size=2,
                                     max_size=2, unique=True)))
    k = data.draw(st.integers(0, g.dim - 1))
    bad = perturbed(g, i, j, k, data.draw(st.one_of(small, big)))
    assert _jacobi_witness(bad) == jacobi_witness_loop(bad)


def test_jacobi_witness_of_quadext_tables():
    r2 = QuadExt(0, 1, 2)
    failing = 0
    for name in METRICS:
        g = get(name).algebra
        gq = LieAlgebra(g.dim, tuple(tuple(tuple(r2 * c if c else c for c in cij)
                                           for cij in plane)
                                     for plane in g.structure))
        assert _jacobi_witness(gq) is None and jacobi_witness_loop(gq) is None
        assert_scaled_double_bracket(gq)
        for i, j, k in itertools.product(range(g.dim), repeat=3):
            if i < j:
                bad = perturbed(gq, i, j, k, r2)
                want = jacobi_witness_loop(bad)
                assert _jacobi_witness(bad) == want
                failing += want is not None
    assert failing


def isometry_witness_loop(g, A):
    """The double-bracket condition of ``ahc_isometry_check`` as it was: the
    first (i, j, k) with A [[e_i, e_j], e_k] != [[Ae_i, Ae_j], Ae_k], on the
    Fraction loops."""
    n = g.dim
    T, cols = double_bracket_loop(g), tuple(zip(*A))
    for i in range(n):
        for j in range(i + 1, n):
            w = bracket_loop(g, cols[i], cols[j])
            for k in range(n):
                if mat_vec_loop(A, T[i][j][k]) != bracket_loop(g, w, cols[k]):
                    return (i, j, k)
    return None


@settings(max_examples=12, deadline=None)
@given(case=big_basis_changes(tuple(sorted(METRICS))))
def test_isometry_check_after_a_big_basis_change(case):
    # D > 1 here: the D^2-scaled double bracket meets A e_k scaled by D^2
    name, P = case
    entry = get(name)
    g = change_of_basis(entry.algebra, P)
    B = transform_form(entry.invariant_forms[METRICS[name]], P)
    n = g.dim
    # the identity, and the B-reflection in the first non-null v among the
    # e_a and e_a + e_b: both preserve B, so the double brackets decide
    v = next(v for v in [basis_vector(n, a) for a in range(n)] +
             [tuple(x + y for x, y in zip(basis_vector(n, a), basis_vector(n, b)))
              for a, b in itertools.combinations(range(n), 2)]
             if B.evaluate(v, v))
    Bv, vv = mat_vec(B.matrix, v), B.evaluate(v, v)
    reflection = tuple(tuple(F(int(a == b)) - 2 * v[a] * Bv[b] / vv
                             for b in range(n)) for a in range(n))
    for A in (linalg.identity_matrix(n), reflection):
        got = ahc_isometry_check(g, B, A)
        assert (None if got else got.witness) == isometry_witness_loop(g, A)


def test_double_bracket_is_built_once_and_shared(monkeypatch):
    entry = get("g0")
    g = LieAlgebra(entry.algebra.dim, entry.algebra.structure, "g0")
    twin = LieAlgebra(entry.algebra.dim, entry.algebra.structure, "g0")
    B = entry.invariant_forms["gmatrix0"]
    conn = levi_civita(g, B)
    R = curvature(conn)
    before = (hash(g), repr(g))

    def refuse(*args):
        raise AssertionError("bracket called")

    # Jacobi and the 1/4-ad check read the tensor, not bracket
    with monkeypatch.context() as m:
        m.setattr(algebra, "bracket", refuse)
        m.setattr(connection, "bracket", refuse)
        assert jacobi_check(g)
        T = g.__dict__["_double_bracket"]
        assert biinvariant_curvature_check(conn, R)
    assert g.__dict__["_double_bracket"] is T
    assert ahc_isometry_check(g, B, linalg.identity_matrix(4))
    assert g.__dict__["_double_bracket"] is T
    assert linearized_isotropy_dim(g, B) == 3
    assert g.__dict__["_double_bracket"] is T and _double_bracket(g) is T
    # the memo is no part of the algebra's value
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert (hash(g), repr(g)) == before


# --- the lower central series over Z -----------------------------------------

def lower_series(g):
    return tuple(lower_central(g, r) for r in range(g.dim + 1))


@settings(max_examples=30, deadline=None)
@given(case=big_basis_changes())
def test_lower_central_matches_the_bracket_step(case):
    name, P = case
    g = change_of_basis(get(name).algebra, P)
    assert repr(lower_series(g)) == repr(lower_central_loop(g))


@settings(max_examples=60, deadline=None)
@given(g=quad_tables())
def test_lower_central_of_quadratic_field_tables(g):
    assert repr(lower_series(g)) == repr(lower_central_loop(g))


@settings(max_examples=150, deadline=None)
@given(g=antisymmetric_tables())
def test_lower_central_of_tables_without_jacobi(g):
    assert repr(lower_series(g)) == repr(lower_central_loop(g))


def test_lower_central_takes_no_bracket(monkeypatch):
    def refuse(*args):
        raise AssertionError("bracket called")

    g = change_of_basis(get("g0").algebra,
                        ((1, F(1, 2), 0, 0), (0, 1, F(-2, 3), 0),
                         (0, 0, 1, 3), (F(1, 5), 0, 0, 1)))
    want = lower_central_loop(g)
    monkeypatch.setattr(algebra, "bracket", refuse)
    assert repr(lower_series(g)) == repr(want)
    assert [c.dim for c in want] == [4, 3, 3, 3, 3]
