"""The scaled-integer kernels against the Fraction loops they replaced.

``bracket``, ``contract`` and ``mat_vec`` (and ``mat_mul``, its columns)
clear denominators once, work over the integers and build one Fraction per
output entry when every entry is exactly a Fraction; any other scalar takes
the field loop.  The field loops are kept here as the oracle, and results
are compared by ``repr`` so that types must match as well as values.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from metriclie import algebra, linalg
from metriclie.algebra import LieAlgebra, bracket, change_of_basis
from metriclie.catalog import get, names
from metriclie.linalg import (basis_vector, contract, determinant, mat_mul,
                              mat_vec, tensor, vec)
from metriclie.scalars import QuadExt


def bracket_loop(g, x, y):
    x, y = vec(x), vec(y)
    acc = [F(0)] * g.dim
    for i, j, cij in g._nonzero:
        w = x[i] * y[j] - x[j] * y[i]
        if w:
            for k, ck in enumerate(cij):
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

    for module, name in ((linalg, "_mat_vec_int"), (linalg, "_contract_int"),
                         (algebra, "_bracket_int")):
        monkeypatch.setattr(module, name, refuse)
    r2 = QuadExt(0, 1, 2)
    g = get("g0").algebra
    # QuadExt input takes the field loop
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
    # the reverse: all-Fraction input reaches the integer kernels
    E = basis_vector(4, 0)
    with pytest.raises(AssertionError, match="wrong kernel"):
        bracket(g, E, basis_vector(4, 1))
    with pytest.raises(AssertionError, match="wrong kernel"):
        contract(g.structure, (E, E))
    with pytest.raises(AssertionError, match="wrong kernel"):
        mat_vec(((F(1),),), (F(1),))
    with pytest.raises(AssertionError, match="wrong kernel"):
        mat_mul(((F(1),),), ((F(1),),))


def test_bracket_table_is_built_once_and_not_part_of_the_value():
    g = LieAlgebra.from_brackets(3, [(0, 1, 2, F(1, 2)), (0, 2, 1, F(-2, 3))])
    assert bracket(g, (1, 0, 0), (0, 1, 0)) == (0, 0, F(1, 2))
    table = g.__dict__["_integer_table"]
    assert table == (6, ((0, 1, ((2, 3),)), (0, 2, ((1, -4),))))
    assert bracket(g, (0, 0, 1), (1, 0, 0)) == (0, F(2, 3), 0)
    assert g.__dict__["_integer_table"] is table
    twin = LieAlgebra.from_brackets(3, [(0, 1, 2, F(1, 2)), (0, 2, 1, F(-2, 3))])
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
