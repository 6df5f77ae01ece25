import contextlib
import io
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from metriclie import cli, connection, forms
from metriclie.algebra import (LieAlgebra, Subspace, bracket,
                               change_of_basis, jacobi_check)
from metriclie.base import DegenerateMetricError, InputError, JacobiError
from metriclie.catalog import get
from metriclie.connection import (CONVENTIONS, Connection, SolitonResult,
                                  ahc_isometry_check,
                                  bianchi_check, biinvariant_curvature_check,
                                  curvature, extract_family_parameters,
                                  h3_isotropy, is_derivation, is_flat,
                                  is_isometric_automorphism,
                                  is_locally_symmetric, isometry_family,
                                  levi_civita, linearized_isotropy_dim,
                                  metric_compatibility_check, nabla_R,
                                  naturally_reductive_check, ricci_form,
                                  ricci_operator,
                                  skew_adjoint_form_space, soliton_solve,
                                  torsion_check)
from metriclie.forms import (SymBilinearForm, restrict_form, signature,
                             transform_form)
from metriclie.linalg import (basis_vector, contract, determinant,
                              first_nonzero, identity_matrix, is_zero_vector,
                              mat, mat_mul, mat_vec, nullspace, solve, tensor,
                              transpose)
from metriclie.scalars import QuadExt

E = lambda i: basis_vector(4, i)
HALF = F(1, 2)


# --- Levi-Civita ---------------------------------------------------------

def test_levi_civita_halves_brackets(g0, gmatrix0_g0):
    conn = levi_civita(g0, gmatrix0_g0)
    assert conn.nabla(0, 1) == (0, 0, HALF, 0)
    for i in range(4):
        for j in range(4):
            want = tuple(HALF * c for c in g0.bracket_basis(i, j))
            assert conn.nabla(i, j) == want
    assert metric_compatibility_check(conn)
    assert torsion_check(conn)


def test_levi_civita_abelian_flat():
    r4 = get("r4").algebra
    conn = levi_civita(r4, SymBilinearForm(4, identity_matrix(4)))
    assert all(conn.nabla(i, j) == (0, 0, 0, 0)
               for i in range(4) for j in range(4))


def test_levi_civita_h1_koszul_values(h3, h3_metrics):
    conn = levi_civita(h3, h3_metrics["h1"])
    assert conn.nabla(0, 1) == (0, 0, HALF)       # nabla_X1 X2 = X3/2
    assert conn.nabla(0, 2) == (0, HALF, 0)       # nabla_X1 X3 = X2/2
    assert conn.nabla(2, 0) == (0, HALF, 0)
    assert conn.nabla(1, 2) == (-HALF, 0, 0)      # nabla_X2 X3 = -X1/2
    assert conn.nabla(2, 1) == (-HALF, 0, 0)
    assert conn.nabla(0, 0) == (0, 0, 0)
    assert metric_compatibility_check(conn)
    assert torsion_check(conn)


def test_levi_civita_rejects_degenerate(h3):
    zero = SymBilinearForm(3, ((0,) * 3,) * 3)
    with pytest.raises(DegenerateMetricError) as exc:
        levi_civita(h3, zero)
    assert exc.value.radical.dim == 3


# --- curvature -----------------------------------------------------------

def test_curvature_biinvariant_identity(g0, g1, gmatrix0_g0, gmatrix0_g1):
    for g, B in ((g0, gmatrix0_g0), (g1, gmatrix0_g1)):
        conn = levi_civita(g, B)
        R = curvature(conn)
        assert biinvariant_curvature_check(conn, R)
        assert bianchi_check(R)
        assert is_locally_symmetric(conn)


def test_curvature_example_values(g0, gmatrix0_g0):
    R = curvature(levi_civita(g0, gmatrix0_g0))
    # R(e1, e2) = -ad(e3)/4 = 0 since e3 is central
    assert all(R.components[1][2][k] == (0, 0, 0, 0) for k in range(4))
    assert R.components[0][1][0] == (0, -F(1, 4), 0, 0)
    assert R.components[0][1][1] == (0, 0, 0, F(1, 4))


def test_curvature_conventions_opposite(g0, gmatrix0_g0):
    conn = levi_civita(g0, gmatrix0_g0)
    R = curvature(conn, "default")
    Ro = curvature(conn, "oneill")
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert Ro.components[i][j][k] == \
                    tuple(-x for x in R.components[i][j][k])
    with pytest.raises(InputError):
        curvature(conn, "other")


def test_curvature_built_once_per_connection_and_convention(g1, gmatrix0_g1):
    conn = levi_civita(g1, gmatrix0_g1)
    R, Ro = curvature(conn), curvature(conn, "oneill")
    assert curvature(conn, "default") is R and curvature(conn, "oneill") is Ro
    assert (R.convention, Ro.convention) == ("default", "oneill")
    assert R != Ro
    # the memo is not part of the connection's value
    fresh = levi_civita(g1, gmatrix0_g1)
    assert fresh == conn and repr(fresh) == repr(conn)
    assert curvature(fresh, "oneill") == Ro and curvature(fresh) == R


def test_geometry_shares_the_curvature_tensor(monkeypatch):
    # cmd_geometry, nabla_R, ricci_form and the soliton system share one
    # build on the geometry verb's connection
    builds = []
    build = connection._build_curvature

    def counted(conn, convention):
        builds.append(convention)
        return build(conn, convention)

    monkeypatch.setattr(connection, "_build_curvature", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["geometry", "g0", "gmatrix0"]) == 0
    assert "ad-invariant: yes" in out.getvalue()
    assert "nabla R = 0: PASS" in out.getvalue()
    assert builds == ["default"]


def test_flatness_dichotomy(h3, h3_metrics):
    assert is_flat(levi_civita(h3, h3_metrics["h0"]))
    assert not is_flat(levi_civita(h3, h3_metrics["h1"]))
    assert not is_flat(levi_civita(h3, h3_metrics["h2"]))


def test_abelian_curvature_zero():
    r4 = get("r4").algebra
    assert is_flat(levi_civita(r4, SymBilinearForm(4, identity_matrix(4))))


def test_nabla_R_vanishes_biinvariant(g1, gmatrix0_g1):
    conn = levi_civita(g1, gmatrix0_g1)
    nr = nabla_R(conn)
    assert all(nr[h][i][j][k] == (0, 0, 0, 0)
               for h in range(4) for i in range(4)
               for j in range(4) for k in range(4))


def test_h1_not_locally_symmetric(h3, h3_metrics):
    assert not is_locally_symmetric(levi_civita(h3, h3_metrics["h1"]))


def _half_ad(g):
    return tensor(g.dim, 2, lambda h, i: tuple(HALF * c
                                               for c in g.bracket_basis(h, i)))


def test_half_ad_without_jacobi_takes_the_full_tensor():
    # antisymmetric, but Jacobi fails at (0, 1, 2); with Gamma = 1/2 ad the
    # shortcut alone would answer True here
    bad = LieAlgebra.from_brackets(3, [(0, 1, 2, 1), (1, 2, 0, 1),
                                       (0, 2, 0, 1)])
    assert jacobi_check(bad).witness == (0, 1, 2)
    conn = Connection(bad, SymBilinearForm(3, identity_matrix(3)),
                      _half_ad(bad))
    assert first_nonzero(nabla_R(conn), 4) == (0, 0, 1, 1)
    assert not is_locally_symmetric(conn)


@pytest.mark.parametrize("name, metric", [
    ("g0", "gmatrix0"), ("g1", "gmatrix0"), ("r+sl2", "killing+1"),
    ("r+so3", "killing+1")])
def test_geometry_certifies_nabla_R_without_the_tensor(monkeypatch, name,
                                                       metric):
    # on an ad-invariant metric Gamma = 1/2 ad and Jacobi decide nabla R = 0
    def refused(*args, **kwargs):
        raise AssertionError("nabla_R built on an ad-invariant metric")

    monkeypatch.setattr(connection, "nabla_R", refused)
    entry = get(name)
    assert levi_civita(entry.algebra, entry.invariant_forms[metric]).gamma == \
        _half_ad(entry.algebra)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["geometry", name, metric]) == 0
    assert "nabla R = 0: PASS" in out.getvalue()


# --- Ricci and solitons --------------------------------------------------

def test_ricci_h1_h2(h3, h3_metrics):
    want = ((HALF, 0, 0), (0, HALF, 0), (0, 0, -HALF))
    assert ricci_operator(levi_civita(h3, h3_metrics["h1"])) == want
    assert ricci_operator(levi_civita(h3, h3_metrics["h2"])) == want


def test_soliton_h1_h2(h3, h3_metrics):
    results = [soliton_solve(levi_civita(h3, h3_metrics[m]))
               for m in ("h1", "h2")]
    for res in results:
        assert res.feasible
        assert res.c == F(3, 2)
        assert res.derivation == ((-1, 0, 0), (0, -1, 0), (0, 0, -2))
        assert is_derivation(h3, res.derivation)
        assert all(all(x == 0 for x in row) for row in res.residual)
    assert results[0].c == results[1].c
    assert results[0].derivation == results[1].derivation


def test_is_derivation_refuses_a_matrix_of_the_wrong_size(h3):
    with pytest.raises(InputError):
        is_derivation(h3, ((1, 0), (0, 1)))


def test_soliton_convention_independent(h3, h3_metrics):
    res = soliton_solve(levi_civita(h3, h3_metrics["h1"]),
                        convention="oneill")
    assert res.feasible
    assert res.c == -F(3, 2)
    assert is_derivation(h3, res.derivation)


def test_soliton_abelian():
    r4 = get("r4").algebra
    res = soliton_solve(levi_civita(r4, SymBilinearForm(4, identity_matrix(4))))
    assert res.feasible and res.c == 0
    assert all(all(x == 0 for x in row) for row in res.derivation)


def _diag(*d):
    return SymBilinearForm(len(d), tuple(
        tuple(x if i == j else 0 for j in range(len(d))) for i, x in enumerate(d)))


# the squashed sphere: so(3) with diag(2,1,1) is not an algebraic soliton
# (its derivation algebra is too small to absorb Ric - c Id)
SQUASHED = (get("so3").algebra, _diag(2, 1, 1))
# neither algebra satisfies Jacobi, yet each keeps Ric symmetric for its
# metric; the first is a soliton with c = 4, the second is not
NON_JACOBI = [
    (LieAlgebra.from_brackets(4, [(0, 1, 3, 2), (1, 2, 1, -2), (1, 3, 0, -2)]),
     _diag(1, 1, -1, -1)),
    (LieAlgebra.from_brackets(4, [(0, 2, 0, -1), (1, 3, 0, -2)]),
     _diag(-1, 1, 1, 1))]


def _defect(g, D, i, j):
    """D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j], from bracket and mat_vec."""
    e = [basis_vector(g.dim, k) for k in range(g.dim)]
    return tuple(a - b - c for a, b, c in zip(
        mat_vec(D, bracket(g, e[i], e[j])), bracket(g, mat_vec(D, e[i]), e[j]),
        bracket(g, e[i], mat_vec(D, e[j]))))


def assert_soliton_witness(g, ric, res):
    """The witness ((i0, j0, k0), (i, j, k)) proves that no c makes Ric - c Id
    a derivation: the defect of Id at (i0, j0, k0) is -[e_i0, e_j0]_k0 != 0,
    so only res.c zeroes that entry of the defect of Ric - c Id, and with
    res.c the entry (i, j, k) is nonzero."""
    (i0, j0, k0), (i, j, k) = res.witness
    n = g.dim
    Id = identity_matrix(n)
    D = tuple(tuple(ric[a][b] - res.c * Id[a][b] for b in range(n))
              for a in range(n))
    slope = bracket(g, basis_vector(n, i0), basis_vector(n, j0))[k0]
    assert slope != 0
    assert _defect(g, Id, i0, j0)[k0] == -slope
    assert _defect(g, D, i0, j0)[k0] == 0
    assert _defect(g, D, i, j)[k] != 0


def test_soliton_infeasible_has_certificate():
    so3, squashed = SQUASHED
    conn = levi_civita(so3, squashed)
    res = soliton_solve(conn)
    assert not res.feasible and res.derivation is None
    assert res.witness == ((0, 1, 2), (1, 2, 0)) and res.c == 1
    assert_soliton_witness(so3, ricci_operator(conn), res)


def _joint_soliton(g, ric):
    """The reference solver: one linear system in c and the n^2 entries of D,
    the rows c Id + D = Ric plus the derivation rows of D.  (c, D) with the
    free variables at zero, or None when the system is inconsistent."""
    n = g.dim
    rows = [(F(a == b),) + basis_vector(n * n, a * n + b)
            for a in range(n) for b in range(n)]
    rhs = [ric[a][b] for a in range(n) for b in range(n)]
    # the derivation rows on every basis pair, column a*n + b read off the
    # defect of the matrix unit E_ab
    units = [tuple(tuple(F(r == a and s == b) for s in range(n)) for r in range(n))
             for a in range(n) for b in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        defects = [_defect(g, U, i, j) for U in units]
        for k in range(n):
            rows.append((F(0),) + tuple(d[k] for d in defects))
            rhs.append(F(0))
    sol = solve(rows, rhs)
    if sol is None:
        return None
    return sol[0], tuple(tuple(sol[1 + a * n + b] for b in range(n))
                         for a in range(n))


small = st.builds(F, st.integers(-2, 2), st.sampled_from((1, 1, 2)))
SOLITON_SOURCES = [SQUASHED] + NON_JACOBI + [
    (get(name).algebra, B) for name in ("h3", "g0", "g1", "sl2")
    for B in {**get(name).left_metrics, **get(name).invariant_forms}.values()]


def _square(n):
    return st.lists(st.lists(small, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@st.composite
def soliton_inputs(draw):
    """(algebra, metric): one of SOLITON_SOURCES in a random basis, or random
    structure constants (sometimes not Jacobi, sometimes no soliton) with a
    random metric."""
    if draw(st.booleans()):
        g, B = draw(st.sampled_from(SOLITON_SOURCES))
        P = draw(_square(g.dim).filter(determinant))
        return change_of_basis(g, P), transform_form(B, P)
    n = draw(st.integers(3, 4))
    entries = draw(st.dictionaries(st.tuples(
        st.sampled_from(list(itertools.combinations(range(n), 2))),
        st.integers(0, n - 1)), small.filter(bool), min_size=1, max_size=6))
    B = draw(_square(n).map(lambda M: SymBilinearForm(n, tuple(
        tuple(M[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))))
        .filter(lambda B: B.is_nondegenerate()))
    return LieAlgebra.from_brackets(
        n, [(i, j, k, v) for ((i, j), k), v in entries.items()]), B


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=soliton_inputs(), convention=st.sampled_from(CONVENTIONS))
@example(case=SQUASHED, convention="default")
@example(case=(get("r4").algebra, _diag(1, 1, 1, 1)), convention="default")
@example(case=(get("h3").algebra, get("h3").left_metrics["h1"]),
         convention="oneill")
@example(case=NON_JACOBI[0], convention="oneill")
@example(case=NON_JACOBI[1], convention="default")
def test_soliton_matches_the_joint_system(case, convention):
    g, B = case
    conn = levi_civita(g, B)
    try:
        ric = ricci_operator(conn, convention)
    except JacobiError:
        # without Jacobi, Ric need not be symmetric, and ricci_form refuses it
        reject()
    res = soliton_solve(conn, convention)
    ref = _joint_soliton(g, ric)
    assert res.feasible == (ref is not None)
    if ref is None:
        assert_soliton_witness(g, ric, res)
    else:
        assert repr((res.c, res.derivation)) == repr(ref)
        assert all(x == 0 for row in res.residual for x in row)


def _derivation_defects_loop(g, D):
    """((i, j), E_D(i, j)) for i < j, E_D(i, j) = D[e_i, e_j] - [D e_i, e_j]
    - [e_i, D e_j] from mat_vec and contract: the loop that the derivation
    rows over Z replaced in soliton_solve and is_derivation."""
    C = g.structure
    E = [basis_vector(g.dim, k) for k in range(g.dim)]
    cols = transpose(D)
    for i, j in itertools.combinations(range(g.dim), 2):
        yield (i, j), tuple(a - b - c for a, b, c in zip(
            mat_vec(D, C[i][j]), contract(C, (cols[i], E[j])),
            contract(C, (E[i], cols[j]))))


def _reference_soliton(conn, convention):
    """soliton_solve as it was, on the Fraction defects of the loop above."""
    n = conn.algebra.dim
    C = conn.algebra.structure
    ric = ricci_operator(conn, convention)
    entries = [((i, j, k), e[k], C[i][j][k]) for (i, j), e in
               _derivation_defects_loop(conn.algebra, ric) for k in range(n)]
    forcing, c = next(((key, -e / s) for key, e, s in entries if s),
                      (None, F(0)))
    bad = next((key for key, e, s in entries if e + c * s), None)
    if bad is not None:
        return SolitonResult(False, c=c, witness=(forcing, bad),
                             convention=convention)
    Id = identity_matrix(n)
    D = tuple(tuple(r - c * e for r, e in zip(*rows)) for rows in zip(ric, Id))
    residual = tuple(tuple(r - d - c * e for r, d, e in zip(*rows))
                     for rows in zip(ric, D, Id))
    return SolitonResult(True, c=c, derivation=D, residual=residual,
                         convention=convention)


def _reference_derivation_witness(g, D):
    return next((ij for ij, e in _derivation_defects_loop(g, mat(D))
                 if not is_zero_vector(e)), None)


def _sqrt2_scaled(g):
    """[x, y]' = sqrt(2) [x, y]: constants in Q(sqrt 2), Jacobi kept."""
    r2 = QuadExt(0, 1, 2)
    return LieAlgebra(g.dim, tuple(tuple(tuple(r2 * c if c else c for c in cij)
                                         for cij in plane)
                                   for plane in g.structure))


def assert_soliton_matches_the_loop(g, B, convention, extra=()):
    conn = levi_civita(g, B)
    try:
        ric = ricci_operator(conn, convention)
    except JacobiError:
        return False
    res = soliton_solve(conn, convention)
    # repr: c, the derivation and the residual must match in type as well
    assert repr(res) == repr(_reference_soliton(conn, convention))
    n = g.dim
    Id = identity_matrix(n)
    shifted = tuple(tuple(r - res.c * e for r, e in zip(*rows))
                    for rows in zip(ric, Id))
    for D in (ric, shifted) + tuple(extra):
        assert is_derivation(g, D).witness == _reference_derivation_witness(g, D)
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=soliton_inputs(), convention=st.sampled_from(CONVENTIONS),
       D=_square(4))
@example(case=SQUASHED, convention="default", D=[[0] * 4] * 4)
@example(case=NON_JACOBI[0], convention="oneill", D=[[0] * 4] * 4)
@example(case=NON_JACOBI[1], convention="default", D=[[0] * 4] * 4)
def test_soliton_and_is_derivation_match_the_defect_loop(case, convention, D):
    g, B = case
    extra = [tuple(tuple(row[:g.dim]) for row in D[:g.dim])]
    if not assert_soliton_matches_the_loop(g, B, convention, extra):
        reject()


def test_quadratic_field_solitons_match_the_defect_loop():
    sources = [(get(name).algebra, B) for name in ("h3", "g0", "g1", "sl2", "so3")
               for B in {**get(name).left_metrics,
                         **get(name).invariant_forms}.values()]
    sources += [(get("r+sl2").algebra, get("r+sl2").invariant_forms["killing+1"]),
                SQUASHED]
    seen = set()
    for g, B in sources:
        gq = _sqrt2_scaled(g)
        for convention in CONVENTIONS:
            assert assert_soliton_matches_the_loop(gq, B, convention)
            seen.add(soliton_solve(levi_civita(gq, B), convention).feasible)
    assert seen == {True, False}


def test_geometry_builds_each_ricci_form_once(monkeypatch):
    calls = []
    real = connection.ricci_form

    def counted(conn, convention="default"):
        calls.append((id(conn), convention))
        return real(conn, convention)

    monkeypatch.setattr(connection, "ricci_form", counted)
    for argv in (["geometry", "g0", "gmatrix0"], ["geometry", "h3", "h1"],
                 ["geometry", "so3", "killing"]):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(calls) == len(set(calls)) >= 1, argv


def test_geometry_checks_ad_invariance_once(monkeypatch, tmp_path):
    # the verb's check also serves linearized_isotropy_dim's precondition;
    # file algebras are fresh, so no earlier check is kept on them
    calls = []
    real = forms._skew_witness

    def counted(B, maps):
        calls.append(B)
        return real(B, maps)

    monkeypatch.setattr(forms, "_skew_witness", counted)
    osc = tmp_path / "osc.json"
    osc.write_text(json.dumps({
        "dim": 4, "brackets": [[0, 1, 2, "1"], [0, 2, 1, "-1"], [1, 2, 3, "1"]],
        "metrics": {"B": [[0, 3, "1"], [1, 1, "1"], [2, 2, "1"]]}}))
    so3 = tmp_path / "so3.json"
    so3.write_text(json.dumps({
        "dim": 3, "brackets": [[0, 1, 2, 1], [1, 2, 0, 1], [2, 0, 1, 1]]}))
    for argv in (["geometry", str(osc), "B"], ["geometry", str(so3), "killing"]):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert "isotropy dim: " in out.getvalue()
        assert len(calls) == 1, argv


def test_asymmetric_ricci_names_the_jacobi_triple():
    # NON_JACOBI[0] keeps Ric symmetric; one more constant in [e0, e1]
    # breaks that, and ricci_form names the triple where Jacobi fails
    g0, B = NON_JACOBI[0]
    g = LieAlgebra.from_brackets(4, [(0, 1, 2, 1), (0, 1, 3, 2), (1, 2, 1, -2),
                                     (1, 3, 0, -2)])
    assert jacobi_check(g0).witness == jacobi_check(g).witness == (0, 1, 2)
    with pytest.raises(JacobiError) as err:
        ricci_form(levi_civita(g, B))
    assert err.value.triple == (0, 1, 2)
    assert str(err.value) == ("Ricci form matrix not symmetric at (1,0) because "
                              "the Jacobi identity fails at basis triple (0, 1, 2)")


def test_asymmetric_ricci_with_jacobi_stays_an_input_error():
    # a connection that is not Levi-Civita can give an asymmetric Ricci form
    # on a Jacobi algebra; that is a bad argument, not a Jacobi failure
    g = get("h3").algebra
    gamma = tensor(3, 2, lambda i, j: basis_vector(3, 0) if (i, j) == (2, 0)
                   else (F(0),) * 3)
    with pytest.raises(InputError) as err:
        ricci_form(Connection(g, _diag(1, 1, 1), gamma))
    assert not isinstance(err.value, JacobiError)
    assert str(err.value) == "form matrix not symmetric at (1,0)"


# --- naturally reductive -------------------------------------------------

def test_nr_ad_invariant_case(g0, gmatrix0_g0):
    res = naturally_reductive_check(g0, Subspace.zero(4), Subspace.full(4),
                                    gmatrix0_g0)
    assert res


def test_nr_derived_pair(g0, gmatrix0_g0):
    h = Subspace.span([(1, 0, 0, 1)], 4)
    m = Subspace.span([(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)], 4)
    B_m = restrict_form(gmatrix0_g0, m)
    # the projected-bracket 3-space is Lorentzian: <e0-e3, e0-e3> = -2
    assert B_m.evaluate((1, 0, 0), (1, 0, 0)) == -2
    assert signature(B_m).is_lorentzian()
    assert naturally_reductive_check(g0, h, m, B_m)
    # the projection of [e1, e2] = e3 along h is -(e0 - e3)/2, so the
    # projected bracket on m is again of Heisenberg type
    cols = list(zip(*(list(h.basis) + list(m.basis))))
    coords = solve(cols, (0, 0, 0, 1))
    assert coords is not None
    assert coords[1] == -HALF and coords[2] == 0 and coords[3] == 0


def test_nr_broken_reductivity(g0, gmatrix0_g0):
    # [e2, e0] = e1 escapes m = span{e0, e1+e2, e3}
    h = Subspace.span([(0, 0, 1, 0)], 4)
    m = Subspace.span([(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)], 4)
    B_m = restrict_form(gmatrix0_g0, m)
    assert B_m.is_nondegenerate()
    res = naturally_reductive_check(g0, h, m, B_m)
    assert not res
    assert "[h, m]" in res.reason
    assert res.witness is not None and len(res.witness) == 2


def test_nr_identity_metric_fails_with_triple(g0):
    res = naturally_reductive_check(g0, Subspace.zero(4), Subspace.full(4),
                                    SymBilinearForm(4, identity_matrix(4)))
    assert not res
    assert "identity" in res.reason
    assert len(res.witness) == 3


def test_nr_bad_decomposition_rejected(g0, gmatrix0_g0):
    overlapping = Subspace.span([E(1)], 4)
    m = Subspace.span([E(1), E(2), E(3)], 4)
    with pytest.raises(InputError):
        naturally_reductive_check(g0, overlapping, m, gmatrix0_g0)


def test_nr_degenerate_bm_rejected(g0, gmatrix0_g0):
    h = Subspace.span([E(0)], 4)
    m = Subspace.span([E(1), E(2), E(3)], 4)
    B_m = restrict_form(gmatrix0_g0, m)  # diag(1,1,0): degenerate
    with pytest.raises(DegenerateMetricError):
        naturally_reductive_check(g0, h, m, B_m)


# --- isometry conditions -------------------------------------------------

def test_ahc_identity(g0, gmatrix0_g0):
    assert ahc_isometry_check(g0, gmatrix0_g0, identity_matrix(4))


def test_ahc_reflection_fails(g0, gmatrix0_g0):
    bad = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    res = ahc_isometry_check(g0, gmatrix0_g0, bad)
    assert not res and res.reason == "metric not preserved"
    assert res.witness == (0, 3)


def test_family_identity():
    assert isometry_family("g0", 1, (0, 0), identity_matrix(2)) == \
        identity_matrix(4)


def test_family_g0_rational_rotation(g0, gmatrix0_g0):
    rot = ((F(3, 5), F(-4, 5)), (F(4, 5), F(3, 5)))
    A = isometry_family("g0", 1, (F(1, 2), F(-2)), rot)
    assert ahc_isometry_check(g0, gmatrix0_g0, A)
    refl = ((F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5)))
    A = isometry_family("g0", -1, (1, 1), refl)
    assert ahc_isometry_check(g0, gmatrix0_g0, A)


def test_family_g1_example(g1, gmatrix0_g1):
    At = ((F(2), 0), (0, HALF))
    A = isometry_family("g1", -1, (1, 1), At)
    assert A[3][0] == 1  # -sign * |w|^2 / 2 with |w|^2 = 2xy = 2
    assert ahc_isometry_check(g1, gmatrix0_g1, A)


def test_family_membership_validation():
    with pytest.raises(InputError):
        isometry_family("g0", 1, (0, 0), ((2, 0), (0, 2)))
    with pytest.raises(InputError):
        isometry_family("g1", 1, (0, 0), ((2, 0), (0, 2)))
    with pytest.raises(InputError):
        isometry_family("g0", 2, (0, 0), identity_matrix(2))
    # diag(2, 1/2) is in O(1,1) for the off-diagonal pairing
    isometry_family("g1", 1, (0, 0), ((2, 0), (0, HALF)))


def test_family_products_close(g0, g1, gmatrix0_g0, gmatrix0_g1):
    rng = random.Random(5)
    from metriclie.cli import _sample_family
    for which in ("g0", "g1"):
        for _ in range(15):
            A = _sample_family(which, rng)
            B = _sample_family(which, rng)
            prod = mat_mul(A, B)
            params = extract_family_parameters(which, prod)
            assert params is not None
            assert isometry_family(which, *params) == prod


def test_ad_matrices_are_family_members(g0, gmatrix0_g0):
    # rational rotation point: Ad(t, v) with R0(t) = [(3/5, -4/5), (4/5, 3/5)]
    c, s = F(3, 5), F(4, 5)
    v = (F(1), F(-2))
    Jv = (v[1], -v[0])
    At = ((c, -s), (s, c))
    A = isometry_family("g0", 1, Jv, At)
    assert ahc_isometry_check(g0, gmatrix0_g0, A)
    assert A[3][0] == -(v[0] ** 2 + v[1] ** 2) / 2


def test_linearized_isotropy_dims(g0, g1, gmatrix0_g0, gmatrix0_g1):
    assert linearized_isotropy_dim(g0, gmatrix0_g0) == 3
    assert linearized_isotropy_dim(g1, gmatrix0_g1) == 3
    r4 = get("r4").algebra
    assert linearized_isotropy_dim(r4, SymBilinearForm(4, identity_matrix(4))) == 6


def test_linearized_isotropy_preconditions(g0):
    with pytest.raises(InputError):
        linearized_isotropy_dim(g0, SymBilinearForm(4, identity_matrix(4)))


# --- skew-adjoint systems (Heisenberg rigidity engine) -------------------

def test_skew_space_g0_origin():
    space = skew_adjoint_form_space("g0", 0, 0)
    assert len(space) == 2
    for Q in space:
        m = Q.matrix
        assert m[0][1] == 0 and m[0][0] == m[1][1]
        assert m[0][2] == 0 and m[1][2] == 0


def test_skew_space_g0_alpha1():
    space = skew_adjoint_form_space("g0", 1, 0)
    for Q in space:
        assert Q.matrix[0][2] == Q.matrix[2][2]  # b13 = b33
        assert Q.matrix[0][1] == 0               # b12 = 0


def test_skew_space_g1_beta1():
    space = skew_adjoint_form_space("g1", 0, 1)
    for Q in space:
        assert Q.matrix[0][2] == Q.matrix[2][2]  # b13 = b33
        assert Q.matrix[0][0] == Q.matrix[0][2]  # b11 = b13


def _b33_zero_subspace(space):
    """Basis of the sub-span of forms with vanishing center entry."""
    if not space:
        return []
    coeffs_rows = [[B.matrix[2][2] for B in space]]
    combos = nullspace(coeffs_rows, ncols=len(space))
    out = []
    for combo in combos:
        m = [[F(0)] * 3 for _ in range(3)]
        for c, B in zip(combo, space):
            for i in range(3):
                for j in range(3):
                    m[i][j] += c * B.matrix[i][j]
        out.append(tuple(map(tuple, m)))
    return out


def test_degenerate_center_forces_degenerate_form():
    grid = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
    for which in ("g0", "g1"):
        for alpha in grid:
            for beta in grid:
                space = skew_adjoint_form_space(which, alpha, beta)
                sub = _b33_zero_subspace(space)
                for t in itertools.product(range(4), repeat=len(sub)):
                    m = [[sum(ti * s[i][j] for ti, s in zip(t, sub))
                          for j in range(3)] for i in range(3)]
                    assert determinant(tuple(map(tuple, m))) == 0


# --- Heisenberg isotropy -------------------------------------------------

def test_h3_isotropy_dims(h3_metrics):
    assert h3_isotropy(h3_metrics["h1"]).dim == 1
    assert h3_isotropy(h3_metrics["h2"]).dim == 1
    assert h3_isotropy(h3_metrics["h0"]).dim == 3


def test_h3_isotropy_kinds(h3_metrics):
    assert h3_isotropy(h3_metrics["h1"]).kind == "O(2) type"
    assert h3_isotropy(h3_metrics["h2"]).kind == "O(1,1) type"
    assert h3_isotropy(h3_metrics["h0"]).kind == "O(2,1) type"


def test_h3_isotropy_generators_are_skew_derivations(h3, h3_metrics):
    for name in ("h1", "h2"):
        rep = h3_isotropy(h3_metrics[name])
        for S in rep.generators:
            assert is_derivation(h3, S)


def test_h1_reflection_is_isometric_automorphism(h3, h3_metrics):
    refl = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert is_isometric_automorphism(h3, h3_metrics["h1"], refl)
    assert not is_isometric_automorphism(h3, h3_metrics["h1"],
                                         ((1, 0, 0), (0, -1, 0), (0, 0, 1)))


def test_metric_violation_witness_shared(g0, gmatrix0_g0, h3, h3_metrics):
    scale = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for res in (ahc_isometry_check(g0, gmatrix0_g0, scale),
                is_isometric_automorphism(g0, gmatrix0_g0, scale)):
        assert not res
        assert res.reason == "metric not preserved" and res.witness == (1, 1)
    stretch = ((2, 0, 0), (0, 1, 0), (0, 0, 2))
    res = is_isometric_automorphism(h3, h3_metrics["h1"], stretch)
    assert not res and res.witness == (0, 0)


def test_h2_swap_is_isometric_automorphism(h3, h3_metrics):
    # the finite-order element of the O(1,1) isotropy swaps X1, X2 and
    # flips the center
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert is_isometric_automorphism(h3, h3_metrics["h2"], swap)


def test_ach_curvature_equivariance(g0, gmatrix0_g0):
    # every family member commutes with curvature in the equivariance sense
    rng = random.Random(9)
    from metriclie.cli import _sample_family
    R = curvature(levi_civita(g0, gmatrix0_g0))
    for _ in range(10):
        A = _sample_family("g0", rng)
        cols = [tuple(A[r][i] for r in range(4)) for i in range(4)]
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    from metriclie.linalg import mat_vec
                    lhs = R.apply(cols[i], cols[j], cols[k])
                    rhs = mat_vec(A, R.components[i][j][k])
                    assert lhs == rhs
