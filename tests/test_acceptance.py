"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np

from metriclie.algebra import (Subspace, bracket, change_of_basis,
                               check_h3_subalgebra)
from metriclie.catalog import classify_dim4_metric, get
from metriclie.cli import _sample_family
from metriclie.connection import (ahc_isometry_check, bianchi_check,
                                  biinvariant_curvature_check, curvature,
                                  extract_family_parameters, h3_isotropy,
                                  is_derivation, is_flat, is_locally_symmetric,
                                  isometry_family, levi_civita,
                                  linearized_isotropy_dim, nabla_R,
                                  naturally_reductive_check,
                                  skew_adjoint_form_space, soliton_solve)
from metriclie.forms import (SymBilinearForm, has_nondegenerate_invariant_form,
                             invariant_form_space, restrict_form,
                             series_duality_check)
from metriclie.groups import (GeodesicSpec, GroupElement, exp_map, frame,
                              geodesic_closed_form, group_identity, multiply)
from metriclie.integrate import (chart, christoffel, compare_to_closed_form,
                                 energy_series, integrate_spec)
from metriclie.linalg import (basis_vector, determinant, first_nonzero,
                              mat_mul, mat_vec, nullspace)

from conftest import random_invertible, random_rational

E4 = lambda i: basis_vector(4, i)


def _say(msg):
    print(f"\nPASS {msg}")


def test_criterion_01_invariant_form_spaces():
    start = time.perf_counter()
    g0, g1, h3 = get("g0").algebra, get("g1").algebra, get("h3").algebra

    space0 = invariant_form_space(g0)
    assert len(space0) == 2
    for B in space0:
        m = B.matrix
        assert m[1][1] == m[2][2] == m[0][3]
        assert all(m[i][j] == 0 for i in range(4) for j in range(4)
                   if (i, j) not in {(0, 0), (0, 3), (3, 0), (1, 1), (2, 2)})

    space1 = invariant_form_space(g1)
    assert len(space1) == 2
    for B in space1:
        m = B.matrix
        assert m[1][2] == m[0][3]
        assert all(m[i][j] == 0 for i in range(4) for j in range(4)
                   if (i, j) not in {(0, 0), (0, 3), (3, 0), (1, 2), (2, 1)})

    space_h3 = invariant_form_space(h3)
    assert len(space_h3) == 3
    assert all(not B.is_nondegenerate() for B in space_h3)

    assert len(invariant_form_space(get("sl2").algebra)) == 1
    assert len(invariant_form_space(get("so3").algebra)) == 1

    assert not has_nondegenerate_invariant_form(get("aff").algebra).found
    assert not has_nondegenerate_invariant_form(h3).found

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _say(f"criterion 1: invariant-form spaces exact (dims 2/2/3/1/1, "
         f"patterns, degeneracy certificates) in {elapsed:.3f}s")


def test_criterion_02_classification_stability():
    rng = random.Random(2024)
    expected = {"r4": "R4", "r+sl2": "R+sl2", "r+so3": "R+so3",
                "g0": "oscillator_g0", "g1": "g1"}
    for name, label in expected.items():
        g = get(name).algebra
        assert classify_dim4_metric(g) == label
        for _ in range(100):
            moved = change_of_basis(g, random_invertible(rng, 4))
            assert classify_dim4_metric(moved) == label, name
    _say("criterion 2: classifier correct on all 5 entries and stable under "
         "100 random rational basis changes each")


def test_criterion_03_biinvariant_identities():
    half = F(1, 2)
    for name in ("g0", "g1"):
        entry = get(name)
        g = entry.algebra
        B = entry.invariant_forms["gmatrix0"]
        conn = levi_civita(g, B)
        for i in range(4):
            for j in range(4):
                assert conn.nabla(i, j) == tuple(half * c
                                                 for c in g.bracket_basis(i, j))
        R = curvature(conn)
        assert biinvariant_curvature_check(conn, R)
        assert is_locally_symmetric(conn)
        # the claim itself, on the full tensor the shortcut does not build
        assert first_nonzero(nabla_R(conn), 4) is None
        assert bianchi_check(R)
        assert series_duality_check(g, B)
        from metriclie.algebra import lower_central, upper_central
        for r in range(5):
            assert lower_central(g, r).dim + upper_central(g, r).dim == 4
    _say("criterion 3: bi-invariant identities exact for (g0, gmatrix0) and "
         "(g1, gmatrix0): nabla = [.,.]/2, R = -ad([X,Y])/4, nabla R = 0, "
         "Bianchi, series duality")


def test_criterion_04_flatness_dichotomy():
    h3 = get("h3").algebra
    metrics = get("h3").left_metrics
    assert is_flat(levi_civita(h3, metrics["h0"]))
    assert not is_flat(levi_civita(h3, metrics["h1"]))
    assert not is_flat(levi_civita(h3, metrics["h2"]))
    _say("criterion 4: flatness dichotomy on H3 exact: h0 flat, h1/h2 not")


def test_criterion_05_ricci_solitons():
    h3 = get("h3").algebra
    metrics = get("h3").left_metrics
    results = {}
    for name in ("h1", "h2"):
        res = soliton_solve(levi_civita(h3, metrics[name]))
        assert res.feasible
        assert is_derivation(h3, res.derivation)
        assert all(all(x == 0 for x in row) for row in res.residual)
        results[name] = (res.c, res.derivation)
    assert results["h1"] == results["h2"]
    c, D = results["h1"]
    assert (c, D) == (F(3, 2), ((-1, 0, 0), (0, -1, 0), (0, 0, -2)))
    # feasibility must not depend on the curvature convention
    for name in ("h1", "h2"):
        alt = soliton_solve(levi_civita(h3, metrics[name]),
                            convention="oneill")
        assert alt.feasible and is_derivation(h3, alt.derivation)
    _say(f"criterion 5: solitons feasible for h1 and h2 with identical "
         f"(c, D) = ({c}, diag(-1,-1,-2)), D an exact derivation; "
         f"feasible in both curvature conventions")


def test_criterion_06_naturally_reductive():
    g0 = get("g0").algebra
    B = get("g0").invariant_forms["gmatrix0"]
    assert naturally_reductive_check(g0, Subspace.zero(4), Subspace.full(4), B)

    h = Subspace.span([(1, 0, 0, 1)], 4)
    m = Subspace.span([(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)], 4)
    assert naturally_reductive_check(g0, h, m, restrict_form(B, m))

    broken_h = Subspace.span([(0, 0, 1, 0)], 4)
    broken_m = Subspace.span([(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)], 4)
    res = naturally_reductive_check(g0, broken_h, broken_m,
                                    restrict_form(B, broken_m))
    assert not res and res.witness is not None

    from metriclie.linalg import identity_matrix
    res = naturally_reductive_check(g0, Subspace.zero(4), Subspace.full(4),
                                    SymBilinearForm(4, identity_matrix(4)))
    assert not res and len(res.witness) == 3
    _say("criterion 6: naturally reductive checks exact: ad-invariant case "
         "and derived pair pass; broken decompositions fail with the "
         "violating datum")


def test_criterion_07_degenerate_center_engine():
    grid = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
    gammas = [F(-1), F(0), F(1)]
    checked = 0
    for which in ("g0", "g1"):
        for alpha, beta, gamma in itertools.product(grid, grid, gammas):
            space = skew_adjoint_form_space(which, alpha, beta, gamma)
            # sub-span with vanishing center entry b33
            rows = [[B.matrix[2][2] for B in space]]
            combos = nullspace(rows, ncols=len(space))
            subs = []
            for combo in combos:
                m = [[F(0)] * 3 for _ in range(3)]
                for cc, B in zip(combo, space):
                    for i in range(3):
                        for j in range(3):
                            m[i][j] += cc * B.matrix[i][j]
                subs.append(m)
            # det is identically zero on the constrained span: degree <= 3,
            # so the grid {0..3}^k certifies the identity
            for t in itertools.product(range(4), repeat=len(subs)):
                m = [[sum(ti * s[i][j] for ti, s in zip(t, subs))
                      for j in range(3)] for i in range(3)]
                assert determinant(tuple(map(tuple, m))) == 0
                checked += 1
    _say(f"criterion 7: skew-adjoint systems over the 5x5x3 parameter grid: "
         f"b33 = 0 forces det Q = 0 exactly ({checked} determinants, both "
         f"models)")


def test_criterion_08_heisenberg_rigidity():
    rng = random.Random(0)
    start = time.perf_counter()
    trials_per_algebra = 5000
    standard_hits = 0
    for name in ("g0", "g1"):
        g = get(name).algebra
        for _ in range(trials_per_algebra):
            v1 = [random_rational(rng) for _ in range(4)]
            v2 = [random_rational(rng) for _ in range(4)]
            if rng.random() < 0.5:
                v1[0] = v2[0] = F(0)
            v3 = bracket(g, v1, v2)
            verdict = check_h3_subalgebra(g, v1, v2, v3)
            assert verdict != "nonstandard"
            standard_hits += verdict == "standard"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert standard_hits > 0
    _say(f"criterion 8: 10^4 randomized trials, zero nonstandard Heisenberg "
         f"copies ({standard_hits} standard hits) in {elapsed:.2f}s")


def test_criterion_09_isometry_families():
    rng = random.Random(1)
    for which in ("g0", "g1"):
        entry = get(which)
        g = entry.algebra
        B = entry.invariant_forms["gmatrix0"]
        samples = [_sample_family(which, rng) for _ in range(200)]
        for A in samples:
            assert ahc_isometry_check(g, B, A)
        for _ in range(40):
            A, Bm = rng.choice(samples), rng.choice(samples)
            prod = mat_mul(A, Bm)
            params = extract_family_parameters(which, prod)
            assert params is not None
            assert isometry_family(which, *params) == prod
        assert linearized_isotropy_dim(g, B) == 3
        # curvature equivariance R(Au, Av)Aw = A R(u,v)w on basis triples
        R = curvature(levi_civita(g, B))
        for A in samples[:25]:
            cols = [tuple(A[r][i] for r in range(4)) for i in range(4)]
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        assert R.apply(cols[i], cols[j], cols[k]) == \
                            mat_vec(A, R.components[i][j][k])
    _say("criterion 9: 200 family samples per model pass the isometry "
         "conditions exactly; products re-extract as family members; "
         "isotropy dim 3 for both; curvature equivariance for 25+25 members")


def test_criterion_10_h3_isotropy_dims():
    metrics = get("h3").left_metrics
    dims = {name: h3_isotropy(metrics[name]).dim for name in ("h1", "h2", "h0")}
    assert dims == {"h1": 1, "h2": 1, "h0": 3}
    _say("criterion 10: H3 isotropy algebra dims exact: h1 -> 1, h2 -> 1, "
         "h0 -> 3")


def test_criterion_11_geodesics():
    start = time.perf_counter()
    rng = random.Random(3)
    worst = 0.0
    ics = [(0.0, 1.0, 2.0, 3.0), (0.0, -1.0, 0.5, 0.0)]
    while len(ics) < 20:
        a0 = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
        ics.append((a0, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                    rng.uniform(-1.5, 1.5)))
    grid = np.linspace(0.0, 2.0, 41)
    for idx, a in enumerate(ics):
        model = "G0" if idx % 2 == 0 else "G1"
        spec = GeodesicSpec(model, group_identity(model), a)
        traj = integrate_spec(spec, max(grid), 1e-3)
        worst = max(worst, compare_to_closed_form(spec, traj, grid))
    assert worst <= 1e-8

    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 1, 1))
    e1 = compare_to_closed_form(spec, integrate_spec(spec, 2.0, 0.02), [2.0])
    e2 = compare_to_closed_form(spec, integrate_spec(spec, 2.0, 0.01), [2.0])
    factor = e1 / e2
    assert 12 <= factor <= 20

    drift = 0.0
    for model, name in (("G0", "g0"), ("G1", "g1")):
        sp = GeodesicSpec(model, group_identity(model), (1.0, 0.7, -0.4, 0.2))
        traj = integrate_spec(sp, 2.0, 1e-3)
        En = energy_series(chart(name), traj)
        drift = max(drift, float(np.max(np.abs(En - En[0]))))
    assert drift <= 1e-8

    hom = 0.0
    for model in ("G0", "G1"):
        for _ in range(10):
            a = tuple(rng.uniform(-1.5, 1.5) for _ in range(4))
            s, u = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            whole = exp_map(model, tuple((s + u) * c for c in a))
            stepped = multiply(exp_map(model, tuple(s * c for c in a)),
                               exp_map(model, tuple(u * c for c in a)))
            hom = max(hom, max(abs(p - q) for p, q in
                               zip(whole.coords, stepped.coords)))
    assert hom <= 1e-10

    cont = 0.0
    for model in ("G0", "G1"):
        tiny = GeodesicSpec(model, group_identity(model), (1e-8, 1, 2, 3))
        zero = GeodesicSpec(model, group_identity(model), (0, 1, 2, 3))
        cont = max(cont, max(abs(p - q) for p, q in zip(
            geodesic_closed_form(tiny, 2.0).coords,
            geodesic_closed_form(zero, 2.0).coords)))
    assert cont <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _say(f"criterion 11: 20 RK4 geodesics match closed forms to {worst:.2e} "
         f"<= 1e-8; order factor {factor:.1f} in [12,20]; energy drift "
         f"{drift:.2e}; homomorphism residual {hom:.2e}; a0->0 continuity "
         f"{cont:.2e}; runtime {elapsed:.2f}s < 10s")


def test_criterion_12_christoffel_cross_check():
    rng = np.random.default_rng(7)

    def ode_g0(p):
        t, x, y, z = p
        G = np.zeros((4, 4, 4))
        G[1, 0, 2] = G[1, 2, 0] = 0.5
        G[2, 0, 1] = G[2, 1, 0] = -0.5
        G[3, 0, 1] = G[3, 1, 0] = -x / 4
        G[3, 0, 2] = G[3, 2, 0] = -y / 4
        return G

    def ode_g1(p):
        t, x, y, z = p
        G = np.zeros((4, 4, 4))
        G[1, 0, 1] = G[1, 1, 0] = -0.5
        G[2, 0, 2] = G[2, 2, 0] = 0.5
        G[3, 0, 1] = G[3, 1, 0] = y / 4
        G[3, 0, 2] = G[3, 2, 0] = x / 4
        return G

    worst_ode = 0.0
    for name, oracle in (("g0", ode_g0), ("g1", ode_g1)):
        ch = chart(name)
        for _ in range(100):
            p = rng.uniform(-2, 2, 4)
            worst_ode = max(worst_ode,
                            float(np.max(np.abs(christoffel(ch, p) - oracle(p)))))
    assert worst_ode <= 1e-10

    from metriclie.groups import coordinate_metric
    targets = {
        "g0": np.array([[0, 0, 0, 1], [0, 1, 0, 0],
                        [0, 0, 1, 0], [1, 0, 0, 0]], float),
        "g1": np.array([[0, 0, 0, 1], [0, 0, 1, 0],
                        [0, 1, 0, 0], [1, 0, 0, 0]], float),
        "h1": np.diag([1.0, 1.0, -1.0]),
        "h2": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], float),
    }
    worst_frame = 0.0
    for name, want in targets.items():
        model = "H3" if name.startswith("h") else name.upper()
        dim = 3 if model == "H3" else 4
        for _ in range(100):
            p = GroupElement(model, tuple(rng.uniform(-3, 3, dim)))
            Fm = frame(model, p)
            got = Fm.T @ coordinate_metric(name, p.coords) @ Fm
            worst_frame = max(worst_frame, float(np.max(np.abs(got - want))))
    assert worst_frame <= 1e-12
    _say(f"criterion 12: generated geodesic ODEs match the hand-derived systems "
         f"to {worst_ode:.1e} <= 1e-10 at 100 random points; frame-evaluated "
         f"coordinate metrics constant to {worst_frame:.1e} <= 1e-12")
