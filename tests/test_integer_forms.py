"""The integer forms of the two exact objects against the code they replaced.

A ``LieAlgebra`` holds its constants as one integer table (``D`` and
``dense``) and builds the Fraction ``structure`` on first read, and
``from_brackets`` fills that table from the sparse entries; a
``SymBilinearForm`` is eliminated once for its radical, which decides
nondegeneracy, and inverted once.  The oracles are the pre-change
``vec``-coerced table, the pre-change ``from_brackets`` and the determinant.
"""

import json
from fractions import Fraction as F
from numbers import Integral

import pytest

from hypothesis import given, settings, strategies as st

from metriclie import algebra, cli, connection, forms, linalg
from metriclie.algebra import LieAlgebra, change_of_basis
from metriclie.base import InputError
from metriclie.catalog import get
from metriclie.forms import SymBilinearForm, transform_form
from metriclie.linalg import determinant, mat, mat_mul, transpose, vec
from metriclie.scalars import QuadExt, frac

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


def reference_from_brackets(dim, brackets, name=""):
    """from_brackets as it was: the dense Fraction table, int zeros, handed
    to the constructor."""
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    seen = {}
    for (i, j, k, value) in brackets:
        if not all(isinstance(x, Integral) and 0 <= x < dim for x in (i, j, k)):
            raise InputError(f"bracket index out of range: ({i!r},{j!r},{k!r})")
        v = frac(value)
        for (a, b, w) in ((i, j, v), (j, i, -v)):
            if a == b and w != 0:
                raise InputError(f"[e_{a}, e_{a}] must vanish")
            key = (a, b, k)
            if key in seen and seen[key] != w:
                raise InputError(f"conflicting bracket entries at {key}")
            seen[key] = w
            c[a][b][k] = w
    return LieAlgebra(dim, c, name=name)


def built(build, dim, entries):
    """(g, hash, repr) of the algebra built, or the InputError message."""
    try:
        g = build(dim, entries, "x")
    except InputError as exc:
        return str(exc)
    return g, hash(g), repr(g)


@st.composite
def bracket_entries(draw):
    """(dim, entries): sparse (i, j, k, value) entries with values spelled as
    ints, "p/q" strings and Fractions; some repeat an earlier entry, equal
    (spelled otherwise, or as its antisymmetric partner) or conflicting,
    some lie on the diagonal, and a few indices are out of range or not
    integers, also for dim <= 0."""
    dim = draw(st.integers(-1, 4))
    n = max(dim, 1)
    values = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        if entries and draw(st.integers(0, 3)) == 0:
            i, j, k, v = draw(st.sampled_from(entries))
            kind = draw(st.sampled_from(["same", "partner", "other"]))
            v = frac(v)
            if kind == "partner":
                i, j, v = j, i, -v
            elif kind == "other":
                v = v + draw(st.sampled_from([0, 1, F(1, 2)]))
            entries.append((i, j, k, str(v) if draw(st.booleans()) else v))
            continue
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if i == j and draw(st.integers(0, 3)):
            j = (i + 1) % n
        v = draw(values)
        how = draw(st.sampled_from(["int", "str", "fraction"]))
        entries.append((i, j, k, {"int": v.numerator, "str": str(v),
                                  "fraction": v}[how]))
    if entries and draw(st.integers(0, 5)) == 0:
        at, slot = draw(st.integers(0, len(entries) - 1)), draw(st.integers(0, 2))
        bad = list(entries[at])
        bad[slot] = draw(st.sampled_from([-1, n, 1.0, "1", None]))
        entries[at] = tuple(bad)
    return dim, entries


@settings(max_examples=200, deadline=None)
@given(case=bracket_entries())
def test_from_brackets_matches_the_dense_table_path(case):
    dim, entries = case
    assert built(LieAlgebra.from_brackets, dim, entries) == \
        built(reference_from_brackets, dim, entries)


@pytest.mark.parametrize("dim, entries, message", [
    (0, [], "dimension must be positive"),
    (-1, [], "dimension must be positive"),
    (0, [(0, 0, 0, 1)], "bracket index out of range: (0,0,0)"),
    (2, [(0, 2, 1, 1)], "bracket index out of range: (0,2,1)"),
    (2, [(0, 1.0, 1, 1)], "bracket index out of range: (0,1.0,1)"),
    (2, [("0", 1, 1, 1)], "bracket index out of range: ('0',1,1)"),
    (2, [(1, 1, 0, 1)], "[e_1, e_1] must vanish"),
    (2, [(0, 1, 1, 1), (1, 0, 1, 1)], "conflicting bracket entries at (1, 0, 1)"),
    (2, [(0, 1, 1, "1/2"), (0, 1, 1, "1/3")],
     "conflicting bracket entries at (0, 1, 1)"),
])
def test_from_brackets_keeps_each_input_error(dim, entries, message):
    with pytest.raises(InputError) as exc:
        LieAlgebra.from_brackets(dim, entries)
    assert str(exc.value) == message == built(reference_from_brackets, dim,
                                              entries)
    # equal values spelled otherwise do not conflict
    g = LieAlgebra.from_brackets(2, [(0, 1, 1, "1/2"), (1, 0, 1, "-2/4")])
    assert g == LieAlgebra(2, (((0, 0), (0, F(1, 2))), ((0, F(-1, 2)), (0, 0))))


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
