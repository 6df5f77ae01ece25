import enum
import random
from fractions import Fraction

import numpy as np
import pytest

from metriclie import forms
from metriclie.algebra import (Subspace, change_of_basis, lower_central,
                               upper_central)
from metriclie.base import CheckResult, DegenerateMetricError, InputError
from metriclie.catalog import get, names
from metriclie.forms import (SymBilinearForm, has_nondegenerate_invariant_form,
                             invariant_form_space, is_ad_invariant,
                             killing_form, orthogonal_complement,
                             restrict_form, series_duality_check, signature,
                             split_nondegenerate_ideal, transform_form)
from metriclie.linalg import basis_vector, identity_matrix

from conftest import random_invertible

E = lambda i: basis_vector(4, i)


def test_symmetry_enforced():
    with pytest.raises(InputError):
        SymBilinearForm(2, ((0, 1), (2, 0)))


@pytest.mark.parametrize("entry", [(0, 1.5, 1), (0, "1", 1), (None, 0, 1),
                                   (0, 2, 1)])
def test_metric_index_not_an_integer_in_range_is_input_error(entry):
    with pytest.raises(InputError, match="metric index out of range") as exc:
        SymBilinearForm.from_entries(2, [entry])
    assert repr(entry[0]) in str(exc.value) and repr(entry[1]) in str(exc.value)


class _Axis(enum.IntEnum):
    X = 0
    Y = 1


@pytest.mark.parametrize("one", [1, True, np.int64(1), np.int32(1),
                                 np.uint8(1), _Axis.Y])
def test_metric_index_of_every_integral_type_is_accepted(one):
    # a plain int takes the fast path; bool, numpy ints and int subclasses
    # pass the Integral check behind it
    B = SymBilinearForm.from_entries(2, [(one, one, 3), (0, one, "1/2")])
    assert B == SymBilinearForm(2, ((0, "1/2"), ("1/2", 3)))


@pytest.mark.parametrize("entry", [
    (0, 2, 1), (-1, 0, 1), (2, 2, 1), (np.int64(2), 0, 1), (0, np.int8(-1), 1),
    ("0", 0, 1), (0, b"1", 1), (1.0, 0, 1), (0, np.float64(1), 1),
    (Fraction(1), 0, 1), (0, 1j, 1), (None, None, 1)])
def test_metric_index_refusals_keep_their_types(entry):
    with pytest.raises(InputError, match="metric index out of range"):
        SymBilinearForm.from_entries(2, [(0, 0, 1), entry])


def test_metric_entries_compare_as_rationals():
    # equal values spelled otherwise agree; a real conflict is refused
    B = SymBilinearForm.from_entries(2, [(0, 1, "1/2"), (1, 0, "2/4")])
    assert B == SymBilinearForm(2, ((0, "1/2"), ("1/2", 0)))
    assert SymBilinearForm.from_entries(2, [(1, 1, 2), (1, 1, "4/2")]) == \
        SymBilinearForm(2, ((0, 0), (0, 2)))
    with pytest.raises(InputError, match=r"conflicting metric entries at \(1,0\)"):
        SymBilinearForm.from_entries(2, [(0, 1, "1/2"), (1, 0, "1/3")])


def test_ad_invariance(g0, gmatrix0_g0):
    assert is_ad_invariant(g0, gmatrix0_g0)
    r4 = get("r4").algebra
    assert is_ad_invariant(r4, SymBilinearForm(4, identity_matrix(4)))
    res = is_ad_invariant(g0, SymBilinearForm(4, identity_matrix(4)))
    assert not res and res.witness is not None


def test_orthogonal_complement(g0, gmatrix0_g0):
    m = Subspace.span([E(3)], 4)
    assert orthogonal_complement(gmatrix0_g0, m) == \
        Subspace.span([E(1), E(2), E(3)], 4)
    assert orthogonal_complement(gmatrix0_g0, Subspace.zero(4)) == \
        Subspace.full(4)
    m2 = Subspace.span([E(0), E(3)], 4)
    assert orthogonal_complement(gmatrix0_g0, m2) == \
        Subspace.span([E(1), E(2)], 4)


def test_signature_examples(gmatrix0_g0, gmatrix0_g1):
    assert signature(gmatrix0_g0).as_tuple() == (3, 1, 0)
    assert signature(gmatrix0_g1).as_tuple() == (2, 2, 0)
    zero3 = SymBilinearForm(3, ((0,) * 3,) * 3)
    assert signature(zero3).as_tuple() == (0, 0, 3)
    assert signature(gmatrix0_g0).is_lorentzian()
    assert not signature(gmatrix0_g1).is_lorentzian()


def test_signature_congruence_invariant(gmatrix0_g0, gmatrix0_g1):
    rng = random.Random(3)
    for B in (gmatrix0_g0, gmatrix0_g1):
        want = signature(B).as_tuple()
        for _ in range(20):
            P = random_invertible(rng, 4)
            assert signature(transform_form(B, P)).as_tuple() == want


def test_invariant_form_space_g0(g0):
    space = invariant_form_space(g0)
    assert len(space) == 2
    free = {(0, 0), (0, 3), (1, 1), (2, 2), (3, 0)}
    for B in space:
        assert is_ad_invariant(g0, B)
        m = B.matrix
        assert m[1][1] == m[2][2] == m[0][3]
        for i in range(4):
            for j in range(4):
                if (i, j) not in free:
                    assert m[i][j] == 0, (i, j)


def test_invariant_form_space_g1(g1):
    space = invariant_form_space(g1)
    assert len(space) == 2
    free = {(0, 0), (0, 3), (1, 2), (2, 1), (3, 0)}
    for B in space:
        assert is_ad_invariant(g1, B)
        m = B.matrix
        assert m[1][2] == m[0][3]
        for i in range(4):
            for j in range(4):
                if (i, j) not in free:
                    assert m[i][j] == 0, (i, j)


def test_invariant_form_space_h3(h3):
    space = invariant_form_space(h3)
    assert len(space) == 3
    for B in space:
        # the center row is forced to zero, so everything is degenerate
        assert B.matrix[2] == (0, 0, 0)
        assert not B.is_nondegenerate()


def test_invariant_form_space_simple():
    for name, expected_killing_sig in (("sl2", (2, 1, 0)), ("so3", (0, 3, 0))):
        g = get(name).algebra
        space = invariant_form_space(g)
        assert len(space) == 1
        K = killing_form(g)
        assert signature(K).as_tuple() == expected_killing_sig
        # the one-dimensional space is the line of Killing multiples
        B = space[0].matrix
        ratio = next(K.matrix[i][j] / B[i][j]
                     for i in range(3) for j in range(3) if B[i][j])
        assert all(K.matrix[i][j] == ratio * B[i][j]
                   for i in range(3) for j in range(3))


def test_invariant_form_space_r4():
    assert len(invariant_form_space(get("r4").algebra)) == 10


def test_has_nondegenerate(g1, gmatrix0_g1):
    search = has_nondegenerate_invariant_form(g1)
    assert search.found
    assert search.witness.is_nondegenerate()
    assert is_ad_invariant(g1, search.witness)

    assert not has_nondegenerate_invariant_form(get("aff").algebra).found
    assert not has_nondegenerate_invariant_form(get("h3").algebra).found

    rsl2 = get("r+sl2").algebra
    search = has_nondegenerate_invariant_form(rsl2)
    assert search.found
    # every invariant form pairs the central line with nothing
    for B in invariant_form_space(rsl2):
        assert B.matrix[0][1] == B.matrix[0][2] == B.matrix[0][3] == 0


def test_degenerate_restriction_and_e0e3_coefficient(g0, g1):
    # restricted to span{e1,e2,e3} every invariant form is degenerate, and
    # nondegeneracy of the full form needs the <e0,e3> coefficient nonzero
    sub = Subspace.span([E(1), E(2), E(3)], 4)
    for g in (g0, g1):
        space = invariant_form_space(g)
        for B in space:
            assert not restrict_form(B, sub).is_nondegenerate()
        for t0 in range(3):
            for t1 in range(3):
                combo = [[t0 * a + t1 * b for a, b in zip(r0, r1)]
                         for r0, r1 in zip(space[0].matrix, space[1].matrix)]
                BB = SymBilinearForm(4, tuple(map(tuple, combo)))
                if BB.is_nondegenerate():
                    assert BB.matrix[0][3] != 0


def test_killing_form(g0):
    assert killing_form(get("r4").algebra).matrix == \
        SymBilinearForm(4, ((0,) * 4,) * 4).matrix
    # Killing lies in the span of the invariant-form space
    K = killing_form(g0)
    space = invariant_form_space(g0)
    from metriclie.linalg import solve
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    cols = [[B.matrix[i][j] for B in space] for (i, j) in pairs]
    target = [K.matrix[i][j] for (i, j) in pairs]
    assert solve(cols, target) is not None


def test_killing_in_span_all_catalog():
    from metriclie.catalog import names
    from metriclie.linalg import solve
    for name in names():
        g = get(name).algebra
        K = killing_form(g)
        space = invariant_form_space(g)
        n = g.dim
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        cols = [[B.matrix[i][j] for B in space] for (i, j) in pairs]
        target = [K.matrix[i][j] for (i, j) in pairs]
        assert solve(cols, target) is not None, name


def test_series_duality(g0, g1, gmatrix0_g0, gmatrix0_g1):
    assert series_duality_check(g0, gmatrix0_g0)
    assert series_duality_check(g1, gmatrix0_g1)
    r4 = get("r4").algebra
    assert series_duality_check(r4, SymBilinearForm(4, identity_matrix(4)))
    from metriclie.algebra import commutator, center
    assert commutator(g0).dim + center(g0).dim == 4


def test_series_duality_preconditions(g0, h3):
    with pytest.raises(InputError):
        series_duality_check(g0, SymBilinearForm(4, identity_matrix(4)))
    degenerate = SymBilinearForm(4, ((0,) * 4,) * 4)
    with pytest.raises(DegenerateMetricError):
        series_duality_check(g0, degenerate)


def test_split_nondegenerate_ideal(g0, gmatrix0_g0):
    entry = get("r+sl2")
    g = entry.algebra
    B = entry.invariant_forms["killing+1"]
    j = Subspace.span([E(0)], 4)
    res = split_nondegenerate_ideal(g, B, j)
    assert res.split
    assert res.complement == Subspace.span([E(1), E(2), E(3)], 4)
    # both restrictions come back certified ad-invariant
    assert res.ideal_form.matrix == ((1,),)
    assert res.complement_form is not None
    from metriclie.algebra import restricted_algebra
    sub = restricted_algebra(g, res.complement)
    assert is_ad_invariant(sub, res.complement_form)

    res = split_nondegenerate_ideal(g0, gmatrix0_g0, Subspace.span([E(3)], 4))
    assert not res.split
    assert res.radical == Subspace.span([E(3)], 4)

    res = split_nondegenerate_ideal(g0, gmatrix0_g0, Subspace.full(4))
    assert res.split and res.complement.dim == 0

    with pytest.raises(InputError):
        split_nondegenerate_ideal(g0, gmatrix0_g0, Subspace.span([E(1)], 4))


def test_duality_for_every_nondegenerate_witness():
    from metriclie.catalog import names
    for name in names():
        g = get(name).algebra
        search = has_nondegenerate_invariant_form(g)
        if search.found:
            assert series_duality_check(g, search.witness), name


def test_duality_across_nondegenerate_combinations(g0, g1):
    # not just one witness: every nondegenerate combination on a small grid
    for g in (g0, g1):
        space = invariant_form_space(g)
        for t0 in range(-2, 3):
            for t1 in range(-2, 3):
                combo = [[t0 * a + t1 * b for a, b in zip(r0, r1)]
                         for r0, r1 in zip(space[0].matrix, space[1].matrix)]
                B = SymBilinearForm(4, tuple(map(tuple, combo)))
                if B.is_nondegenerate():
                    assert series_duality_check(g, B)


def _reference_series_duality_check(g, B):
    """series_duality_check as it was: one complement for every r <= dim g
    (the preconditions left out)."""
    for r in range(g.dim + 1):
        if orthogonal_complement(B, upper_central(g, r)) != lower_central(g, r):
            return CheckResult(False, "C^r != (C_r)-perp", r)
    return CheckResult(True)


@pytest.mark.parametrize("name", [n for n in names()
                                  if has_nondegenerate_invariant_form(
                                      get(n).algebra).found])
def test_series_duality_takes_one_complement_per_distinct_pair(name,
                                                               monkeypatch):
    entry = get(name)
    B0 = has_nondegenerate_invariant_form(entry.algebra).witness
    rng = random.Random(name)
    n = entry.algebra.dim
    cases = [(entry.algebra, B0)]
    for _ in range(3):
        P = random_invertible(rng, n)
        cases.append((change_of_basis(entry.algebra, P), transform_form(B0, P)))
    calls = []

    def counted(B, m):
        calls.append(m)
        return orthogonal_complement(B, m)

    for g, B in cases:
        want = _reference_series_duality_check(g, B)
        distinct = {(lower_central(g, r), upper_central(g, r))
                    for r in range(n + 1)}
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(forms, "orthogonal_complement", counted)
            got = series_duality_check(g, B)
        assert (got.ok, got.reason, got.witness) == \
            (want.ok, want.reason, want.witness) == (True, "", None)
        assert len(calls) <= len(distinct)
