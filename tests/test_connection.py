import contextlib
import io
import itertools
import random
from fractions import Fraction as F

import pytest

from metriclie import cli, connection
from metriclie.algebra import Subspace
from metriclie.base import DegenerateMetricError, InputError
from metriclie.catalog import get
from metriclie.connection import (ahc_isometry_check, bianchi_check,
                                  biinvariant_curvature_check, curvature,
                                  extract_family_parameters, h3_isotropy,
                                  is_derivation, is_flat,
                                  is_isometric_automorphism,
                                  is_locally_symmetric, isometry_family,
                                  levi_civita, linearized_isotropy_dim,
                                  metric_compatibility_check, nabla_R,
                                  naturally_reductive_check, ricci_operator,
                                  skew_adjoint_form_space, soliton_solve,
                                  torsion_check)
from metriclie.forms import SymBilinearForm, restrict_form, signature
from metriclie.linalg import (basis_vector, determinant, identity_matrix,
                              mat_mul, nullspace)

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


def test_soliton_infeasible_has_certificate():
    # the squashed sphere: so(3) with diag(2,1,1) is not an algebraic
    # soliton (its derivation algebra is too small to absorb Ric - c Id)
    so3 = get("so3").algebra
    squashed = SymBilinearForm(3, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    res = soliton_solve(levi_civita(so3, squashed))
    assert not res.feasible
    assert res.inconsistent_row is not None
    assert any(x != 0 for x in res.inconsistent_row)


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
    from metriclie.linalg import solve
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
