import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from metriclie.algebra import (LieAlgebra, center, change_of_basis, commutator,
                               is_abelian, is_solvable, jacobi_check)
from metriclie.base import InputError
from metriclie.catalog import (_direct_sum_with_line, classify_dim4_metric,
                               get, get_metric, metric_names, names)
from metriclie.forms import (has_nondegenerate_invariant_form, is_ad_invariant,
                             killing_form, signature)
from metriclie.linalg import basis_vector

from conftest import random_invertible


def test_names_and_get():
    assert set(names()) == {"r1", "r2", "r3", "r4", "aff", "h3", "sl2", "so3",
                            "g0", "g1", "r+sl2", "r+so3"}
    entry = get("g0")
    assert entry.algebra.dim == 4
    assert entry.algebra.structure[0][1][2] == 1
    g1 = get("g1").algebra
    assert g1.structure[0][1][1] == 1 and g1.structure[0][2][2] == -1
    assert get("r4").algebra.structure[0][1] == (0, 0, 0, 0)


def test_get_unknown_name_lists_valid():
    with pytest.raises(InputError) as exc:
        get("nope")
    assert "g0" in str(exc.value)


def test_entries_validated():
    for name in names():
        entry = get(name)
        assert jacobi_check(entry.algebra), name
        for fname, form in entry.invariant_forms.items():
            assert is_ad_invariant(entry.algebra, form), (name, fname)


def test_metric_lookup():
    entry = get("h3")
    assert set(entry.left_metrics) == {"h0", "h1", "h2"}
    assert get_metric(entry, "h1").matrix[2][2] == -1
    assert get_metric(entry, "killing").matrix == killing_form(entry.algebra).matrix
    with pytest.raises(InputError):
        get_metric(entry, "gmatrix0")
    assert "killing" in metric_names(get("g0"))


def test_classifier_on_catalog():
    expected = {"r4": "R4", "r+sl2": "R+sl2", "r+so3": "R+so3",
                "g0": "oscillator_g0", "g1": "g1"}
    for name, label in expected.items():
        assert classify_dim4_metric(get(name).algebra) == label


def test_classifier_rejects_wrong_dim(h3):
    with pytest.raises(InputError,
                       match="^classification is defined for dimension 4$"):
        classify_dim4_metric(h3)


def test_classifier_basis_change_stability():
    rng = random.Random(11)
    expected = {"r4": "R4", "r+sl2": "R+sl2", "r+so3": "R+so3",
                "g0": "oscillator_g0", "g1": "g1"}
    for name, label in expected.items():
        g = get(name).algebra
        for _ in range(10):
            assert classify_dim4_metric(
                change_of_basis(g, random_invertible(rng, 4))) == label


def test_classifier_not_in_list():
    h3r = LieAlgebra.from_brackets(4, [(0, 1, 2, 1)])
    assert classify_dim4_metric(h3r) == "not_in_list"
    filiform = LieAlgebra.from_brackets(4, [(0, 1, 2, 1), (0, 2, 3, 1)])
    assert classify_dim4_metric(filiform) == "not_in_list"


def test_low_dim_metric_existence():
    # in dimension at most 3 only abelian and simple entries carry a
    # nondegenerate ad-invariant form
    expected = {"r1": True, "r2": True, "r3": True, "aff": False,
                "h3": False, "sl2": True, "so3": True}
    for name, want in expected.items():
        assert has_nondegenerate_invariant_form(get(name).algebra).found == want


def classify_loop(g):
    """classify_dim4_metric as it was: the form search first, then the
    Killing form."""
    if is_abelian(g):
        return "R4"
    if not has_nondegenerate_invariant_form(g).found:
        return "not_in_list"
    K = killing_form(g)
    sig = signature(K)
    if sig.null == 1:
        if sig.as_tuple() == (0, 3, 1):
            return "R+so3"
        if sig.as_tuple() == (2, 1, 1):
            return "R+sl2"
        return "not_in_list"
    c1 = commutator(g)
    if is_solvable(g) and center(g).dim == 1 and c1.dim == 3:
        x = next(basis_vector(4, i) for i in range(4)
                 if not c1.contains(basis_vector(4, i)))
        kxx = K.evaluate(x, x)
        if kxx < 0:
            return "oscillator_g0"
        if kxx > 0:
            return "g1"
    return "not_in_list"


# the 4-dim sources of the benchmark's invariants workload that are not in
# the catalog
BENCH_SOURCES = {
    "aff+aff": [(0, 1, 1, 1), (2, 3, 3, 1)],
    "n4": [(0, 1, 2, 1), (0, 2, 3, 1)],
    "e2+R": [(0, 1, 2, 1), (0, 2, 1, -1)],
    "h3+R": [(0, 1, 2, 1)],
    "aff+R2": [(0, 1, 1, 1)],
}
SOURCES = {**{name: get(name).algebra for name in names()
              if get(name).algebra.dim == 4},
           **{name: LieAlgebra.from_brackets(4, b, name)
              for name, b in BENCH_SOURCES.items()}}


@st.composite
def dim4_tables(draw):
    """A catalog or benchmark source, or sparse random structure constants
    (Jacobi mostly failing), in a random rational basis."""
    if draw(st.booleans()):
        g = SOURCES[draw(st.sampled_from(sorted(SOURCES)))]
    else:
        pairs = list(itertools.combinations(range(4), 2))
        brackets = draw(st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(0, 3),
                      st.integers(-2, 2)), min_size=1, max_size=8,
            unique_by=lambda b: b[:2]))
        g = LieAlgebra.from_brackets(4, [(i, j, k, c)
                                         for (i, j), k, c in brackets])
    seed = draw(st.integers(0, 2 ** 16))
    return change_of_basis(g, random_invertible(random.Random(seed), 4))


@settings(max_examples=120, deadline=None)
@given(dim4_tables())
def test_classifier_matches_the_search_first_loop(g):
    twin = LieAlgebra(g.dim, g.structure)
    assert classify_dim4_metric(g) == classify_loop(twin)


@pytest.mark.parametrize("name", ["r+sl2", "r+so3"])
def test_rank3_killing_form_skips_the_form_search(name):
    rng = random.Random(name)
    g = change_of_basis(get(name).algebra, random_invertible(rng, 4))
    assert classify_dim4_metric(g) == {"r+sl2": "R+sl2", "r+so3": "R+so3"}[name]
    assert "_jacobi" in g.__dict__
    assert not {"_form_search", "_lower_central",
                "_upper_central"} & set(g.__dict__)


def test_direct_sums_with_a_line_are_the_typed_tables(monkeypatch):
    # read from the integer tables of sl2 and so3, not their Fraction views
    sl2, so3 = get("sl2").algebra, get("so3").algebra
    rsl2 = LieAlgebra.from_brackets(
        4, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)], name="r+sl2")
    rso3 = LieAlgebra.from_brackets(
        4, [(1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1)], name="r+so3")
    for want in (rsl2, rso3):
        got = get(want.name).algebra
        assert got == want and hash(got) == hash(want)

    def refuse(self):
        raise AssertionError("structure read")

    monkeypatch.setattr(LieAlgebra, "structure", property(refuse))
    for simple, want in ((sl2, rsl2), (so3, rso3)):
        got = _direct_sum_with_line(simple, want.name)
        assert got == want and hash(got) == hash(want)
