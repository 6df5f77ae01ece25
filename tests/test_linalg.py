import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from metriclie import linalg
from metriclie.algebra import Subspace
from metriclie.base import InputError
from metriclie.linalg import (determinant, identity_matrix, invert, mat,
                              mat_mul, mat_vec, nullspace, rank, row_space,
                              rref, solve)
from metriclie.scalars import QuadExt

from conftest import rref_field_loop


def test_rref_canonical():
    A = mat([[2, 4], [1, 2]])
    R, pivots = rref(A)
    assert R[0] == (1, 2) and pivots == (0,)
    assert all(x == 0 for x in R[1])


def test_row_space_equality_is_canonical():
    a = row_space(mat([[1, 2, 3], [0, 1, 1]]))
    b = row_space(mat([[2, 4, 6], [1, 3, 4]]))
    assert a == b


def test_nullspace():
    A = mat([[1, 2, 3]])
    basis = nullspace(A)
    assert len(basis) == 2
    for v in basis:
        assert sum(a * b for a, b in zip(A[0], v)) == 0
    assert nullspace([], ncols=3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_solve_and_certificate():
    A = mat([[1, 1], [1, -1]])
    x = solve(A, (F(3), F(1)))
    assert x == (2, 1)
    # an inconsistent system has no solution
    assert solve(mat([[1, 1], [2, 2]]), (1, 3)) is None
    assert solve(mat([[0]]), (1,)) is None
    # an int right-hand side gives an exact solution, not 0.5
    assert repr(solve(mat([[2, 0], [0, 0]]), (1, 0))) == repr((F(1, 2), F(0)))


def test_invert_and_det():
    A = mat([[2, 1], [1, 1]])
    Ai = invert(A)
    assert mat_mul(A, Ai) == identity_matrix(2)
    assert determinant(A) == 1
    assert determinant(mat([[1, 2], [2, 4]])) == 0
    with pytest.raises(InputError):
        invert(mat([[1, 2], [2, 4]]))


def test_determinant_of_ints_is_exact():
    # int entries are read as Fractions: no float from the division
    assert repr(determinant([[1, 2], [3, 4]])) == repr(F(-2))
    # singular: row 3 = 2 row 1 + 3 row 2
    assert repr(determinant([[-5, 9, -7], [-1, -6, 6], [-13, 0, 4]])) == \
        repr(F(0))


def test_det_random_multiplicative():
    rng = random.Random(0)
    for _ in range(20):
        A = mat([[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
        B = mat([[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
        assert determinant(mat_mul(A, B)) == determinant(A) * determinant(B)


def test_rank_and_subspace_contains():
    rows = row_space(mat([[1, 0, 1], [0, 1, 1]]))
    assert rank(rows) == 2
    plane = Subspace(3, rows)
    assert plane.contains((1, 1, 2))
    assert not plane.contains((0, 0, 1))
    # against the rank criterion: v lies in the span iff it adds no rank
    rng = random.Random(0)
    for _ in range(50):
        k = rng.randint(0, 3)
        span = Subspace.span([[F(rng.randint(-2, 2)) for _ in range(4)]
                              for _ in range(k)], 4)
        v = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4)]
        if rng.random() < 0.5 and span.basis:
            v = [sum(rng.randint(-2, 2) * b[i] for b in span.basis)
                 for i in range(4)]
        want = rank(list(span.basis) + [mat([v])[0]]) == span.dim
        assert span.contains(v) == want


def test_mat_vec():
    assert mat_vec(mat([[1, 2], [3, 4]]), (F(1), F(1))) == (3, 7)


# --- the integer rref kernel against the generic field loop --------------

big = st.integers(10**100, 10**130).flatmap(
    lambda x: st.sampled_from((x, -x)))
numerators = st.one_of(st.just(0), st.just(0), st.integers(-9, 9), big)
denominators = st.one_of(st.just(1), st.integers(1, 12), big.map(abs))
rationals = st.builds(F, numerators, denominators)


@st.composite
def rational_matrices(draw, entries=rationals):
    """Tall, wide and square matrices, with zero rows, duplicate rows and
    all-zero columns mixed in."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, m - 1))
        kind = draw(st.sampled_from(("zero row", "duplicate", "zero column")))
        if kind == "zero row":
            rows[i] = [F(0)] * n
        elif kind == "duplicate":
            rows.append(list(rows[i]))
        elif n:
            c = draw(st.integers(0, n - 1))
            for row in rows:
                row[c] = F(0)
    return [tuple(row) for row in rows]


def _as_fractions(A):
    return [tuple(F(x) for x in row) for row in A]


def _same_rref(A):
    got, want = rref(A), rref_field_loop(_as_fractions(A))
    assert got == want
    assert repr(got) == repr(want)  # Fractions in, Fractions out, entry by entry


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_matrices())
def test_rref_integer_kernel_matches_generic(A):
    _same_rref(A)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rational_matrices(entries=st.one_of(numerators, rationals)))
def test_rref_integer_kernel_takes_ints_and_mixed_rows(A):
    # all-int and mixed int/Fraction rows are exact rationals too; the
    # generic loop would divide ints into floats, so the oracle gets Fractions
    _same_rref(A)


def test_rref_dispatch(monkeypatch):
    """Every scalar reaches the one elimination, ``_rref_rows``."""
    calls = []
    rows = linalg._rref_rows
    monkeypatch.setattr(linalg, "_rref_rows", lambda A: calls.append(
        len(A)) or rows(A))
    assert rref([(2, F(1, 3)), (4, 1)])[1] == (0, 1)
    r2 = QuadExt(0, 1, 2)
    R, pivots = rref([(r2, F(2)), (F(1), r2)])
    assert pivots == (0,) and R[0] == (1, r2) and R[1] == (0, 0)
    assert rref([(True, False), (False, True)])[1] == (0, 1)
    assert rref([]) == ((), ())
    assert calls == [2, 2, 2, 0]


def test_rref_of_long_rationals_is_exact():
    # 120-digit numerators and denominators, rank 2, one dependent row
    p, q = 10**120 + 7, 3 * 10**119 - 1
    A = [(F(p, q), F(-q, p), F(1)), (F(1), F(0), F(p)), (F(p + q, q), F(-q, p), F(p + 1))]
    R, pivots = rref(A)
    assert pivots == (0, 1) and R[2] == (0, 0, 0)
    assert R == rref_field_loop(A)[0]
