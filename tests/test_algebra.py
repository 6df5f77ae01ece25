import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import algebra
from metriclie.algebra import (LieAlgebra, Subspace, bracket, center,
                               change_of_basis, check_h3_subalgebra,
                               commutator, is_abelian, is_ideal, is_nilpotent,
                               is_solvable, jacobi_check, lower_central,
                               upper_central)
from metriclie.base import InputError
from metriclie.catalog import get
from metriclie.linalg import basis_vector, identity_matrix, nullspace
from metriclie.scalars import QuadExt

from conftest import random_invertible, random_rational

E = lambda i: basis_vector(4, i)

rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
vectors4 = st.tuples(rationals, rationals, rationals, rationals)


def test_bracket_examples(g0, h3):
    assert bracket(h3, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)  # [X1,X2] = X3
    assert bracket(g0, E(0), E(2)) == (0, -1, 0, 0)        # [e0,e2] = -e1
    assert bracket(g0, E(0), E(1)) == (0, 0, 1, 0)


@given(x=vectors4, y=vectors4)
@settings(max_examples=60, deadline=None)
def test_bracket_antisymmetry_and_bilinearity(x, y):
    g = get("g0").algebra
    assert bracket(g, x, x) == (0, 0, 0, 0)
    xy = bracket(g, x, y)
    assert bracket(g, y, x) == tuple(-v for v in xy)
    two_x = tuple(2 * v for v in x)
    assert bracket(g, two_x, y) == tuple(2 * v for v in xy)


def test_bracket_dimension_mismatch(g0):
    with pytest.raises(InputError):
        bracket(g0, (1, 0, 0), (0, 1, 0, 0))


def test_jacobi_catalog(g0):
    assert jacobi_check(g0)
    assert jacobi_check(get("r4").algebra)
    for name in ("g1", "h3", "sl2", "so3", "aff", "r+sl2", "r+so3"):
        assert jacobi_check(get(name).algebra), name


def test_jacobi_tampered_fails():
    # scaling [e1,e2] alone keeps Jacobi (central direction), so tamper a
    # non-central component instead: [e1,e2] = e1 + e3 breaks the identity
    bad = LieAlgebra.from_brackets(
        4, [(0, 1, 2, 1), (0, 2, 1, -1), (1, 2, 3, 1), (1, 2, 1, 1)])
    res = jacobi_check(bad)
    assert not res
    assert 0 in res.witness  # the failing triple contains e0


def test_lower_central(g0, h3):
    assert lower_central(g0, 1) == Subspace.span([E(1), E(2), E(3)], 4)
    assert lower_central(get("r4").algebra, 1).dim == 0
    assert lower_central(h3, 2).dim == 0
    assert lower_central(h3, 1) == Subspace.span([(0, 0, 1)], 3)


def test_upper_central(g0, h3):
    assert upper_central(g0, 1) == Subspace.span([E(3)], 4)
    assert upper_central(get("r4").algebra, 1).dim == 4
    assert upper_central(h3, 2) == Subspace.full(3)


def test_series_monotone_and_stable(g0, g1, h3):
    for g in (g0, g1, h3, get("r+sl2").algebra):
        for r in range(g.dim):
            assert lower_central(g, r).contains_subspace(lower_central(g, r + 1))
            assert upper_central(g, r + 1).contains_subspace(upper_central(g, r))
        assert lower_central(g, g.dim) == lower_central(g, g.dim + 1)
    assert is_nilpotent(h3)
    assert not is_nilpotent(g0)
    assert is_solvable(g0) and is_solvable(g1)
    assert not is_solvable(get("sl2").algebra)


def test_center_commutator(g1):
    assert center(g1) == Subspace.span([E(3)], 4)
    assert commutator(g1).dim == 3
    r4 = get("r4").algebra
    assert center(r4).dim == 4 and commutator(r4).dim == 0
    aff = get("aff").algebra
    assert center(aff).dim == 0
    assert commutator(aff) == Subspace.span([(0, 1)], 2)


# --- the series loops that algebra._chain replaced, kept as oracles ------

def _lower_central_loop(g, r):
    n = g.dim
    current = Subspace.full(n)
    for _ in range(min(r, n)):
        gens = [bracket(g, basis_vector(n, i), b)
                for i in range(n) for b in current.basis]
        new = Subspace.span(gens, n)
        if new == current:
            break
        current = new
    return current


def _annihilator_rows(s):
    if not s.basis:
        return [basis_vector(s.ambient_dim, i) for i in range(s.ambient_dim)]
    return nullspace(s.basis)


def _upper_central_loop(g, r):
    n = g.dim
    current = Subspace.zero(n)
    for _ in range(min(r, n)):
        ann = _annihilator_rows(current)
        rows = []
        for j in range(n):
            for a in ann:
                rows.append(tuple(
                    sum((a[k] * g.structure[i][j][k] for k in range(n)),
                        start=F(0))
                    for i in range(n)))
        new = Subspace.span(nullspace(rows, ncols=n), n)
        if new == current:
            break
        current = new
    return current


def _is_solvable_loop(g):
    current = Subspace.full(g.dim)
    for _ in range(g.dim + 1):
        gens = [bracket(g, a, b) for a in current.basis for b in current.basis]
        new = Subspace.span(gens, g.dim)
        if new.dim == 0:
            return True
        if new == current:
            return False
        current = new
    return False


@st.composite
def _antisymmetric_algebras(draw):
    """Sparse random antisymmetric structure constants (Jacobi not
    required), seen in a random basis."""
    n = draw(st.integers(1, 5))
    cells = [(i, j, k) for i in range(n) for j in range(i + 1, n)
             for k in range(n)]
    chosen = draw(st.lists(st.sampled_from(cells), max_size=2 * n,
                           unique=True)) if cells else []
    g = LieAlgebra.from_brackets(n, [(i, j, k, draw(rationals))
                                     for (i, j, k) in chosen])
    rng = random.Random(draw(st.integers(0, 2**32)))
    return change_of_basis(g, random_invertible(rng, n))


@settings(max_examples=80, deadline=None)
@given(_antisymmetric_algebras())
def test_series_match_the_loops_they_replaced(g):
    for r in range(g.dim + 2):
        assert lower_central(g, r) == _lower_central_loop(g, r)
        assert upper_central(g, r) == _upper_central_loop(g, r)
    assert is_solvable(g) == _is_solvable_loop(g)


def test_series_built_once_per_algebra(monkeypatch):
    chains = []
    chain = algebra._chain

    def counted(first, step, n):
        chains.append(chain(first, step, n))
        return chains[-1]

    monkeypatch.setattr(algebra, "_chain", counted)
    g = LieAlgebra.from_brackets(4, [(0, 1, 1, 1), (0, 2, 2, -1), (1, 2, 3, 1)])
    for _ in range(2):
        lower = [lower_central(g, r) for r in range(6)]
        upper = [upper_central(g, r) for r in range(6)]
        assert center(g) is upper[1] and commutator(g) is lower[1]
    assert len(chains) == 2
    assert lower[:5] == list(chains[0]) and upper[:5] == list(chains[1])
    assert lower[5] is chains[0][4] and upper[5] is chains[1][4]


def test_series_memo_is_not_part_of_the_value(g1):
    a = LieAlgebra(g1.dim, g1.structure, "g1")
    b = LieAlgebra(g1.dim, g1.structure, "g1")
    before = (hash(a), repr(a))
    lower_central(a, 2), upper_central(a, 2)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert (hash(a), repr(a)) == before


def test_is_ideal(g0):
    assert is_ideal(g0, Subspace.span([E(3)], 4))
    assert not is_ideal(g0, Subspace.span([E(1)], 4))
    assert is_ideal(g0, Subspace.span([E(1), E(2), E(3)], 4))


def test_change_of_basis_identity(g0):
    assert change_of_basis(g0, identity_matrix(4)).structure == g0.structure


def test_change_of_basis_restores_scaled_brackets():
    # brackets with parameter lambda = 2; the basis (e0/2, e1, e2, 2 e3)
    # brings them back to the unit form
    lam = 2
    scaled = LieAlgebra.from_brackets(
        4, [(0, 1, 2, lam), (0, 2, 1, -lam), (1, 2, 3, lam)])
    P = ((F(1, lam), 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, lam))
    assert change_of_basis(scaled, P).structure == get("g0").algebra.structure


def test_change_of_basis_swap_flips_sign(h3):
    P = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    swapped = change_of_basis(h3, P)
    assert swapped.structure[0][1][2] == -1


def test_change_of_basis_roundtrip(g0, g1):
    from metriclie.linalg import invert
    rng = random.Random(7)
    for g in (g0, g1):
        for _ in range(10):
            P = random_invertible(rng, 4)
            back = change_of_basis(change_of_basis(g, P), invert(P))
            assert back.structure == g.structure


def test_change_of_basis_singular_rejected(g0):
    P = ((1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(InputError):
        change_of_basis(g0, P)


def test_change_of_basis_quadratic_extension(g0):
    # the literal sqrt(2/mu) substitution at mu = 1 keeps the bracket form
    # but leaves <e0', e0'> = 1 - sqrt(2) (nonzero); the rational shift
    # e0 -> e0 - (mu/2) e3 is what actually reaches mu = 0
    half_rt2 = QuadExt(0, F(-1, 2), 2)
    P = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (half_rt2, 0, 0, 1))
    moved = change_of_basis(g0, P)
    assert moved.structure == g0.structure
    from metriclie.forms import SymBilinearForm, transform_form
    B_mu1 = SymBilinearForm(4, ((1, 0, 0, 1), (0, 1, 0, 0),
                                (0, 0, 1, 0), (1, 0, 0, 0)))
    literal = transform_form(B_mu1, P)
    assert literal.matrix[0][0] == QuadExt(1, -1, 2)
    for mu in (F(1), F(2), F(3), F(-1)):
        B = SymBilinearForm(4, ((mu, 0, 0, 1), (0, 1, 0, 0),
                                (0, 0, 1, 0), (1, 0, 0, 0)))
        Q = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-mu / 2, 0, 0, 1))
        assert change_of_basis(g0, Q).structure == g0.structure
        assert transform_form(B, Q).matrix == \
            get("g0").invariant_forms["gmatrix0"].matrix


def test_check_h3_subalgebra_examples(g0):
    assert check_h3_subalgebra(g0, E(1), E(2), E(3)) == "standard"
    # e3 is central, so shifting e1 by it changes nothing
    assert check_h3_subalgebra(g0, (0, 1, 0, 1), E(2), E(3)) == "standard"
    assert check_h3_subalgebra(g0, E(0), E(1), E(2)) == "not_h3"
    # scaled relation [v1, v2] != v3
    assert check_h3_subalgebra(g0, E(1), E(2), (0, 0, 0, 2)) == "not_h3"
    # dependent triple
    assert check_h3_subalgebra(g0, E(1), E(1), (0, 0, 0, 0)) == "not_h3"


def test_h3_rigidity_randomized_small(g0, g1):
    rng = random.Random(1)
    hits = 0
    for g in (g0, g1):
        for _ in range(500):
            zero_e0 = rng.random() < 0.5
            v1 = [random_rational(rng) for _ in range(4)]
            v2 = [random_rational(rng) for _ in range(4)]
            if zero_e0:
                v1[0] = v2[0] = F(0)
            v3 = bracket(g, v1, v2)
            verdict = check_h3_subalgebra(g, v1, v2, v3)
            assert verdict != "nonstandard"
            hits += verdict == "standard"
    assert hits > 0


def test_abelian_flags():
    assert is_abelian(get("r3").algebra)
    assert not is_abelian(get("h3").algebra)


@pytest.mark.parametrize("dim, structure", [
    (3, (((0, 0, 0),) * 3,) * 2),
    (2, (((0, 0), (0, 0)), ((0, 0),))),
])
def test_structure_of_the_wrong_shape_is_input_error(dim, structure):
    with pytest.raises(InputError, match="dim x dim x dim"):
        LieAlgebra(dim, structure)
