import io
import math
import random

import numpy as np
import pytest

from metriclie.base import InputError
from metriclie.groups import GeodesicSpec, GroupElement, exp_map, group_identity
from metriclie.integrate import (MetricChart, chart, christoffel,
                                 compare_to_closed_form, energy_series,
                                 flow_left_invariant_field, geodesic_rhs,
                                 initial_velocity, integrate_geodesic,
                                 integrate_spec, write_trajectory_csv)


def known_ode_gamma_g0(p):
    """Christoffel symbols of the g0 chart, written out by hand from the
    geodesic system t'' = 0, x'' = -t'y', y'' = t'x', z'' = t'(xx' + yy')/2."""
    t, x, y, z = p
    G = np.zeros((4, 4, 4))
    G[1, 0, 2] = G[1, 2, 0] = 0.5
    G[2, 0, 1] = G[2, 1, 0] = -0.5
    G[3, 0, 1] = G[3, 1, 0] = -x / 4
    G[3, 0, 2] = G[3, 2, 0] = -y / 4
    return G


def known_ode_gamma_g1(p):
    """For g1: t'' = 0, x'' = t'x', y'' = -t'y', z'' = -t'(xy' + yx')/2."""
    t, x, y, z = p
    G = np.zeros((4, 4, 4))
    G[1, 0, 1] = G[1, 1, 0] = -0.5
    G[2, 0, 2] = G[2, 2, 0] = 0.5
    G[3, 0, 1] = G[3, 1, 0] = y / 4
    G[3, 0, 2] = G[3, 2, 0] = x / 4
    return G


def test_flat_chart_christoffel_zero():
    flat = MetricChart("flat", 3, lambda p: np.eye(3),
                       lambda p: np.zeros((3, 3, 3)))
    assert np.allclose(christoffel(flat, [0.3, -1, 2]), 0)


def test_christoffel_symmetric():
    rng = np.random.default_rng(5)
    for name in ("g0", "g1", "h1", "h2"):
        ch = chart(name)
        for _ in range(10):
            p = rng.uniform(-2, 2, ch.dim)
            G = christoffel(ch, p)
            assert np.allclose(G, G.transpose(0, 2, 1))


def test_christoffel_matches_known_systems():
    rng = np.random.default_rng(0)
    for name, oracle in (("g0", known_ode_gamma_g0), ("g1", known_ode_gamma_g1)):
        ch = chart(name)
        for _ in range(100):
            p = rng.uniform(-2, 2, 4)
            assert np.max(np.abs(christoffel(ch, p) - oracle(p))) <= 1e-10


def test_partials_cross_validate_by_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for name in ("g0", "g1", "h1", "h2"):
        ch = chart(name)
        for _ in range(10):
            p = rng.uniform(-2, 2, ch.dim)
            fd = np.zeros((ch.dim, ch.dim, ch.dim))
            for k in range(ch.dim):
                dp = np.zeros(ch.dim)
                dp[k] = h
                fd[k] = (ch.metric_at(p + dp) - ch.metric_at(p - dp)) / (2 * h)
            assert np.max(np.abs(fd - ch.partials_at(p))) < 1e-6


def test_unknown_chart():
    with pytest.raises(InputError):
        chart("h0")


def test_straight_line_in_flat_chart():
    flat = MetricChart("flat", 2, lambda p: np.eye(2),
                       lambda p: np.zeros((2, 2, 2)))
    traj = integrate_geodesic(flat, [1.0, 2.0], [0.5, -1.0], 1.0, 1e-2)
    want = np.array([1.0, 2.0]) + traj.s[:, None] * np.array([0.5, -1.0])
    assert np.max(np.abs(traj.positions - want)) < 1e-12


def test_rk4_matches_closed_form_g0():
    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 0, 0))
    err = compare_to_closed_form(spec, np.linspace(0, 2, 21), 1e-3)
    assert err <= 1e-8


def test_rk4_matches_closed_form_g1():
    spec = GeodesicSpec("G1", group_identity("G1"), (2, 1, 1, 0))
    err = compare_to_closed_form(spec, np.linspace(0, 1, 11), 1e-3)
    assert err <= 1e-8


def test_rk4_straight_line_a0_zero():
    spec = GeodesicSpec("G0", group_identity("G0"), (0, 1, 2, 3))
    err = compare_to_closed_form(spec, np.linspace(0, 2, 11), 1e-3)
    assert err <= 1e-10


def test_rk4_from_translated_base():
    base = GroupElement("G1", (0.2, -0.5, 0.7, 0.1))
    spec = GeodesicSpec("G1", base, (1.0, 0.5, -0.5, 0.3))
    err = compare_to_closed_form(spec, np.linspace(0, 1, 6), 1e-3)
    assert err <= 1e-8


def test_h1_central_direction_is_straight():
    traj = integrate_geodesic(chart("h1"), [0, 0, 0], [0, 0, 1.0], 1.0, 1e-3)
    want = np.stack([np.zeros(len(traj)), np.zeros(len(traj)), traj.s], axis=1)
    assert np.max(np.abs(traj.positions - want)) < 1e-12


def test_h1_h2_energy_conservation():
    rng = random.Random(1)
    for name in ("h1", "h2"):
        ch = chart(name)
        v0 = np.array([rng.uniform(-1, 1) for _ in range(3)])
        p0 = [0.1, -0.2, 0.05]
        traj = integrate_geodesic(ch, p0, v0, 2.0, 1e-3)
        E = energy_series(ch, traj)
        assert np.max(np.abs(E - E[0])) <= 1e-8


def _reference_rk4(ch, pos, vel, s_end, step):
    """Position and velocity stepped as two arrays, without abort handling."""
    pos, vel = np.asarray(pos, dtype=float), np.asarray(vel, dtype=float)
    ps, vs = [pos], [vel]
    for _ in range(max(1, int(round(s_end / step)))):
        k1p, k1v = geodesic_rhs(ch, pos, vel)
        k2p, k2v = geodesic_rhs(ch, pos + 0.5 * step * k1p, vel + 0.5 * step * k1v)
        k3p, k3v = geodesic_rhs(ch, pos + 0.5 * step * k2p, vel + 0.5 * step * k2v)
        k4p, k4v = geodesic_rhs(ch, pos + step * k3p, vel + step * k3v)
        pos = pos + step / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        vel = vel + step / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        ps.append(pos)
        vs.append(vel)
    return np.array(ps), np.array(vs)


@pytest.mark.parametrize("name, p0, v0", [
    ("g0", [0.1, -0.2, 0.3, 0.4], [1.0, 0.5, -0.7, 0.2]),
    ("g1", [0.0, 0.0, 0.0, 0.0], [-1.2, 0.3, 0.9, -0.4]),
    ("h2", [0.3, -0.1, 0.2], [0.6, -1.1, 0.4]),
])
def test_stepper_matches_reference_bit_for_bit(name, p0, v0):
    traj = integrate_geodesic(chart(name), p0, v0, 0.5, 0.01)
    ps, vs = _reference_rk4(chart(name), p0, v0, 0.5, 0.01)
    assert np.array_equal(traj.positions, ps)
    assert np.array_equal(traj.velocities, vs)
    assert np.array_equal(traj.s, [k * 0.01 for k in range(len(ps))])


def test_energy_conservation_g0():
    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 1, 1))
    traj = integrate_spec(spec, 2.0, 1e-3)
    E = energy_series(chart("g0"), traj)
    assert np.max(np.abs(E - E[0])) <= 1e-8


def test_rk4_order_four():
    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 1, 1))
    e1 = compare_to_closed_form(spec, [2.0], 0.02)
    e2 = compare_to_closed_form(spec, [2.0], 0.01)
    assert 12 <= e1 / e2 <= 20


def test_flow_matches_exp():
    for model, a in (("G0", (1.0, 0.0, 0.0, 1.0)),
                     ("G1", (1.0, 1.0, 1.0, 0.0)),
                     ("H3", (0.5, -0.5, 2.0))):
        got = flow_left_invariant_field(model, a, 1.0, 1e-3)
        want = exp_map(model, a)
        assert max(abs(p - q) for p, q in zip(got.coords, want.coords)) <= 1e-8


def test_flow_zero_field_stays_home():
    got = flow_left_invariant_field("G0", (0, 0, 0, 0), 1.0, 1e-2)
    assert max(abs(c) for c in got.coords) == 0


def test_flow_agrees_with_geodesic_integration():
    # bi-invariant metrics: geodesics from the identity are integral curves
    # of left-invariant fields
    a = (1.0, 1.0, 1.0, 1.0)
    spec = GeodesicSpec("G0", group_identity("G0"), a)
    traj = integrate_spec(spec, 2.0, 1e-3)
    got = flow_left_invariant_field("G0", a, 2.0, 1e-3)
    assert max(abs(p - q) for p, q in
               zip(got.coords, traj.positions[-1])) <= 1e-8


def test_initial_velocity_uses_frame():
    base = GroupElement("G0", (math.pi / 2, 0.0, 0.0, 0.0))
    v = initial_velocity("G0", base, (0, 1, 0, 0))
    assert np.allclose(v, [0, 0, 1, 0], atol=1e-15)  # X1 = d_y there


def test_csv_format():
    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 0, 0))
    traj = integrate_spec(spec, 0.01, 1e-3)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "s,t,x,y,z,vt,vx,vy,vz"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert len(first) == 9
    assert float(first[0]) == 0.0
    # 17 significant digits round-trip doubles
    assert float(lines[2].split(",")[1]) == traj.positions[1][0]


def test_csv_h3_padding():
    traj = integrate_geodesic(chart("h1"), [0, 0, 0], [1.0, 0, 0], 0.01, 1e-3)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, model="H3")
    row = buf.getvalue().strip().split("\n")[1].split(",")
    assert len(row) == 9
    assert float(row[1]) == 0.0 and float(row[5]) == 0.0


def test_bad_step_rejected():
    with pytest.raises(InputError):
        integrate_geodesic(chart("g0"), [0, 0, 0, 0], [1, 0, 0, 0], 1.0, 0.0)


@pytest.mark.parametrize("s_end", [-1.0, -1e-9, math.nan, math.inf])
def test_bad_s_end_rejected(s_end):
    with pytest.raises(InputError):
        integrate_geodesic(chart("g0"), [0, 0, 0, 0], [1, 0, 0, 0], s_end, 0.5)
    with pytest.raises(InputError):
        flow_left_invariant_field("G0", (1, 0, 0, 0), s_end, 0.5)


def test_singular_chart_aborts_with_last_valid_sample():
    # metric degenerates at x = 1; the run must stop there, keeping samples
    degenerating = MetricChart(
        "bad", 2,
        lambda p: np.array([[max(1.0 - p[0], 0.0), 0.0], [0.0, 1.0]]),
        lambda p: np.array([[[-1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.0, 0.0]]]))
    traj = integrate_geodesic(degenerating, [0.0, 0.0], [1.0, 0.0], 5.0, 1e-2)
    assert traj.aborted
    assert 0 < len(traj) < 501
    assert np.all(np.isfinite(traj.positions))
