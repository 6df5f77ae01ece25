"""The integer forms of the two exact objects against the code they replaced.

A ``LieAlgebra`` holds its constants as one integer table (``D`` and
``dense``) and builds the Fraction ``structure`` on first read; a
``SymBilinearForm`` is eliminated once for its radical, which decides
nondegeneracy, and inverted once.  The oracles are the pre-change
``vec``-coerced table and the determinant.
"""

import json
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from metriclie import algebra, cli, connection, forms, linalg
from metriclie.algebra import LieAlgebra, change_of_basis
from metriclie.catalog import get
from metriclie.forms import SymBilinearForm, transform_form
from metriclie.linalg import determinant, mat, mat_mul, transpose, vec
from metriclie.scalars import QuadExt

SPELLINGS = ("int", "str", "fraction", "quadext")


def spell(x: F, how: str):
    """The rational x as a constructor input: an int (x integral), a "p/q"
    string, a Fraction or a QuadExt with b = 0."""
    return {"int": lambda: x.numerator, "str": lambda: str(x),
            "fraction": lambda: x, "quadext": lambda: QuadExt(x, 0, 2)}[how]()


@st.composite
def tables(draw):
    """(n, entries): sparse constants c[i][j][k], i < j, of an antisymmetric
    table (Jacobi not required), each with a spelling and an irrational flag
    (a "quadext" entry x then becomes x + sqrt(2))."""
    n = draw(st.integers(1, 4))
    keys = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    values = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    return n, {key: (draw(values), draw(st.sampled_from(SPELLINGS)),
                     draw(st.booleans())) for key in chosen}


def build_table(n, entries, zero):
    """The dense n x n x n table with every zero spelled ``zero``; an "int"
    entry takes the numerator of its value."""
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), (x, how, irrational) in entries.items():
        if how == "int":
            x = F(x.numerator)
        if how == "quadext" and irrational:
            c[i][j][k], c[j][i][k] = QuadExt(x, 1, 2), QuadExt(-x, -1, 2)
        else:
            c[i][j][k], c[j][i][k] = spell(x, how), spell(-x, how)
    return c


def vec_coerced(n, structure):
    """The Fraction table as the constructor built it before the integer
    table: each constant coerced by ``vec``."""
    return tuple(tuple(vec(structure[i][j]) for j in range(n)) for i in range(n))


@settings(max_examples=80, deadline=None)
@given(case=tables(), zero=st.sampled_from([0, F(0), "0", QuadExt(0, 0, 2)]))
def test_structure_is_the_vec_coerced_table(case, zero):
    n, entries = case
    table = build_table(n, entries, zero)
    g = LieAlgebra(n, table)
    assert repr(g.structure) == repr(vec_coerced(n, table))
    # dense is D times the constants, ints unless one is irrational
    rational = not any(how == "quadext" and irr
                       for _, how, irr in entries.values())
    for i in range(n):
        for j in range(n):
            assert tuple(F(x) / g.D if rational else x for x in g.dense[i][j]) \
                == g.structure[i][j]
    if rational:
        assert all(type(x) is int for plane in g.dense for cij in plane
                   for x in cij)
    # the repr shows the value: dim, the integer table and the name
    assert repr(g) == f"LieAlgebra(dim={n}, D={g.D}, dense={g.dense!r}, name='')"


@settings(max_examples=60, deadline=None)
@given(case=tables(), zeros=st.lists(st.sampled_from([0, F(0), "0"]),
                                     min_size=2, max_size=2))
def test_equality_and_hash_ignore_how_zeros_are_spelled(case, zeros):
    n, entries = case
    a = LieAlgebra(n, build_table(n, entries, zeros[0]), name="x")
    b = LieAlgebra(n, build_table(n, entries, zeros[1]), name="x")
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != LieAlgebra(n, build_table(n, entries, zeros[0]), name="y")


def test_nonzero_constants_compare_however_they_are_spelled():
    spellings = [(2, -2), ("2", "-2"), ("4/2", "-4/2"), (F(2), F(-2)),
                 (QuadExt(2, 0, 3), QuadExt(-2, 0, 3))]
    algebras = [LieAlgebra(2, (((0, 0), (0, v)), ((0, w), ("0", F(0)))))
                for v, w in spellings]
    assert len(set(algebras)) == 1
    assert all(g.D == 1 and g.dense[0][1] == (0, 2) for g in algebras)


@st.composite
def symmetric_forms(draw, quadratic: bool):
    """P^T diag(d) P for small P and d, which is degenerate whenever d has
    a zero or P is singular; with ``quadratic`` the entries of P lie in
    Q(sqrt 2)."""
    n = draw(st.integers(1, 4))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if quadratic:
        entry = st.builds(lambda a, b: QuadExt(a, b, 2), small, small)
    else:
        entry = small
    P = [[draw(entry) for _ in range(n)] for _ in range(n)]
    d = [draw(st.sampled_from([0, 1, -1, 2])) for _ in range(n)]
    diag = [[F(d[i]) if i == j else F(0) for j in range(n)] for i in range(n)]
    return SymBilinearForm(n, mat_mul(mat_mul(transpose(mat(P)), diag), mat(P)))


@settings(max_examples=120, deadline=None)
@given(B=st.one_of(symmetric_forms(False), symmetric_forms(True)))
def test_nondegeneracy_is_the_determinant_test(B):
    assert B.is_nondegenerate() == (determinant(B.matrix) != 0)
    assert B.radical().dim == 0 or not B.is_nondegenerate()
    assert B.radical() is B.radical()


def test_geometry_inverts_the_metric_once_and_takes_no_determinant(
        capsys, tmp_path, monkeypatch):
    # g0 with its bi-invariant metric, moved by a rational basis change
    entry = get("g0")
    P = ((1, F(1, 2), 0, 2), (0, 1, F(-1, 3), 0), (1, 0, 1, 0), (0, 0, F(2, 5), 1))
    g = change_of_basis(entry.algebra, P)
    B = transform_form(entry.invariant_forms["gmatrix0"], P)
    path = tmp_path / "moved.json"
    path.write_text(json.dumps({"dim": 4, "brackets": [
        [i, j, k, str(c)] for i in range(4) for j in range(i + 1, 4)
        for k, c in enumerate(g.structure[i][j]) if c],
        "metrics": {"B": [[i, j, str(B.matrix[i][j])]
                          for i in range(4) for j in range(i, 4)]}}))
    inverted = []
    for module in (algebra, connection, forms, linalg):
        real = module.invert
        monkeypatch.setattr(module, "invert", lambda A, real=real:
                            inverted.append(mat(A)) or real(A))

    def no_determinant(A):
        raise AssertionError("determinant taken")

    for module in (forms, linalg):
        monkeypatch.setattr(module, "determinant", no_determinant)
    assert cli.main(["geometry", str(path), "B"]) == 0
    out = capsys.readouterr().out
    assert "ad-invariant: yes" in out and "isotropy dim: 3" in out
    assert inverted.count(B.matrix) == 1
