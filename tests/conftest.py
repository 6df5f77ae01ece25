import random
from fractions import Fraction

import pytest

from metriclie import catalog
from metriclie.linalg import _coerce, determinant, mat


@pytest.fixture(scope="session")
def g0():
    return catalog.get("g0").algebra


@pytest.fixture(scope="session")
def g1():
    return catalog.get("g1").algebra


@pytest.fixture(scope="session")
def h3():
    return catalog.get("h3").algebra


@pytest.fixture(scope="session")
def gmatrix0_g0():
    return catalog.get("g0").invariant_forms["gmatrix0"]


@pytest.fixture(scope="session")
def gmatrix0_g1():
    return catalog.get("g1").invariant_forms["gmatrix0"]


@pytest.fixture(scope="session")
def h3_metrics():
    return dict(catalog.get("h3").left_metrics)


def random_rational(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))


def random_invertible(rng: random.Random, n: int):
    while True:
        P = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        if determinant(mat(P)) != 0:
            return mat(P)


def rref_field_loop(A):
    """Gauss-Jordan with leading-one pivots over any exact field scalar: the
    field loop the library once kept for Q(sqrt d), now the oracle for its
    one elimination, ``linalg._rref_rows``.  Ints and bools are read as
    Fractions, so that division stays exact; every row is returned, the
    zero rows last."""
    rows = [[_coerce(x) for x in r] for r in A]
    if not rows:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)
