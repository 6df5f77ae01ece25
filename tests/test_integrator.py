import inspect
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.linalg import _umath_linalg

from metriclie.base import InputError, NumericalError
from metriclie.groups import (GeodesicSpec, GroupElement, exp_map, frame,
                              group_identity)
from metriclie import integrate
from metriclie.integrate import (_CSV_CHUNK, _SINGULAR_RAISES, MetricChart,
                                 Trajectory, _all_finite, _BuiltinChart,
                                 _g0g1_partials, _h1_partials, _h2_partials,
                                 _step_count, c_einsum, chart,
                                 christoffel, compare_to_closed_form,
                                 energy_series, flow_left_invariant_field,
                                 geodesic_rhs, initial_velocity,
                                 integrate_geodesic, integrate_spec,
                                 write_trajectory_csv)


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
    err = compare_to_closed_form(spec, integrate_spec(spec, 2, 1e-3),
                                 np.linspace(0, 2, 21))
    assert err <= 1e-8


def test_rk4_matches_closed_form_g1():
    spec = GeodesicSpec("G1", group_identity("G1"), (2, 1, 1, 0))
    err = compare_to_closed_form(spec, integrate_spec(spec, 1, 1e-3),
                                 np.linspace(0, 1, 11))
    assert err <= 1e-8


def test_rk4_straight_line_a0_zero():
    spec = GeodesicSpec("G0", group_identity("G0"), (0, 1, 2, 3))
    err = compare_to_closed_form(spec, integrate_spec(spec, 2, 1e-3),
                                 np.linspace(0, 2, 11))
    assert err <= 1e-10


def test_rk4_from_translated_base():
    base = GroupElement("G1", (0.2, -0.5, 0.7, 0.1))
    spec = GeodesicSpec("G1", base, (1.0, 0.5, -0.5, 0.3))
    err = compare_to_closed_form(spec, integrate_spec(spec, 1, 1e-3),
                                 np.linspace(0, 1, 6))
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


def test_compare_to_closed_form_refuses_an_aborted_trajectory():
    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 0, 0))
    traj = integrate_spec(spec, 0.5, 0.01)
    assert compare_to_closed_form(spec, traj, [0.5]) <= 1e-8
    with pytest.raises(NumericalError, match="aborted"):
        compare_to_closed_form(spec, replace(traj, aborted=True), [0.5])


@pytest.mark.parametrize("s", [2.0, -0.5, 1.006, -0.006, math.nan, math.inf])
def test_compare_to_closed_form_refuses_s_outside_the_trajectory(s):
    """A grid value is not snapped to another sample: 2.0 used to be clamped
    to the last sample and -0.5 to read a sample from the end."""
    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 0, 0))
    traj = integrate_spec(spec, 1.0, 0.01)
    with pytest.raises(InputError, match=f"s = {s} "):
        compare_to_closed_form(spec, traj, [0.5, s])
    # within half a step of either end the nearest sample is in range
    assert compare_to_closed_form(spec, traj, [-0.004, 1.004]) <= 1e-8


def test_energy_conservation_g0():
    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 1, 1))
    traj = integrate_spec(spec, 2.0, 1e-3)
    E = energy_series(chart("g0"), traj)
    assert np.max(np.abs(E - E[0])) <= 1e-8


def test_rk4_order_four():
    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 1, 1))
    e1 = compare_to_closed_form(spec, integrate_spec(spec, 2.0, 0.02), [2.0])
    e2 = compare_to_closed_form(spec, integrate_spec(spec, 2.0, 0.01), [2.0])
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
    write_trajectory_csv(traj, buf)
    row = buf.getvalue().strip().split("\n")[1].split(",")
    assert len(row) == 9
    assert float(row[1]) == 0.0 and float(row[5]) == 0.0


def test_bad_step_rejected():
    with pytest.raises(InputError):
        integrate_geodesic(chart("g0"), [0, 0, 0, 0], [1, 0, 0, 0], 1.0, 0.0)


@pytest.mark.parametrize("s_end, step, steps", [
    (0.0, 0.5, 0), (0.2, 0.5, 0), (0.3, 0.5, 1), (2.0, 1e-3, 2000),
    (1.0, 1e-6, 10**6), (1.0, 1e-7, None), (1.0, 1e-320, None),
    (1e300, 1.0, None), (1.0, math.inf, None), (1.0, math.nan, None),
])
def test_step_count(s_end, step, steps):
    if steps is None:
        with pytest.raises(InputError):
            _step_count(s_end, step)
    else:
        assert _step_count(s_end, step) == steps


@pytest.mark.parametrize("s_end", [-1.0, -1e-9, math.nan, math.inf])
def test_bad_s_end_rejected(s_end):
    with pytest.raises(InputError):
        integrate_geodesic(chart("g0"), [0, 0, 0, 0], [1, 0, 0, 0], s_end, 0.5)
    with pytest.raises(InputError):
        flow_left_invariant_field("G0", (1, 0, 0, 0), s_end, 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, a", [
    ("H3", (1e200, 1e200, 0)),      # the frame overflows in the matmul
    ("G1", (1e3, 0, 0, 0)),         # exp(t) in the G1 frame
    ("G0", (1.0, 1e308, 1e308, 0)),  # the RK4 combination overflows
])
def test_flow_out_of_float_range_raises_numerical_error(model, a):
    with pytest.raises(NumericalError):
        flow_left_invariant_field(model, a, 1.0, 0.5)


def _degenerating_chart():
    # metric degenerates at x = 1
    return MetricChart(
        "bad", 2,
        lambda p: np.array([[max(1.0 - p[0], 0.0), 0.0], [0.0, 1.0]]),
        lambda p: np.array([[[-1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.0, 0.0]]]))


def test_singular_chart_aborts_with_last_valid_sample():
    # the run must stop where the metric degenerates, keeping samples
    traj = integrate_geodesic(_degenerating_chart(), [0.0, 0.0], [1.0, 0.0],
                              5.0, 1e-2)
    assert traj.aborted
    assert 0 < len(traj) < 501
    assert np.all(np.isfinite(traj.positions))


# The right-hand side and CSV writer as they were before the lowered tensor
# was cached per chart: metric and partials built from np.zeros on numpy
# scalars, np.linalg.inv, T per call, and the same einsum contractions.  The
# production code must reproduce them bit for bit.

def _oracle_metric(name, p):
    if name in ("g0", "g1"):
        t, x, y, z = p
        g = np.zeros((4, 4))
        g[0, 3] = g[3, 0] = 1.0
        g[0, 1] = g[1, 0] = y / 2
        g[0, 2] = g[2, 0] = -x / 2
        if name == "g0":
            g[1, 1] = g[2, 2] = 1.0
        else:
            g[1, 2] = g[2, 1] = 1.0
        return g
    x, y, z = p
    g = np.zeros((3, 3))
    if name == "h1":
        g[0, 0] = 1 - y * y / 4
        g[1, 1] = 1 - x * x / 4
        g[2, 2] = -1.0
        g[0, 1] = g[1, 0] = x * y / 4
        g[0, 2] = g[2, 0] = -y / 2
        g[1, 2] = g[2, 1] = x / 2
    else:
        g[0, 0] = y * y / 4
        g[1, 1] = x * x / 4
        g[2, 2] = 1.0
        g[0, 1] = g[1, 0] = 1 - x * y / 4
        g[0, 2] = g[2, 0] = y / 2
        g[1, 2] = g[2, 1] = -x / 2
    return g


def _oracle_partials(name, p):
    if name in ("g0", "g1"):
        out = np.zeros((4, 4, 4))
        out[2, 0, 1] = out[2, 1, 0] = 0.5
        out[1, 0, 2] = out[1, 2, 0] = -0.5
        return out
    x, y, _ = p
    out = np.zeros((3, 3, 3))
    out[1, 0, 0] = -y / 2
    out[0, 1, 1] = -x / 2
    out[0, 0, 1] = out[0, 1, 0] = y / 4
    out[1, 0, 1] = out[1, 1, 0] = x / 4
    out[1, 0, 2] = out[1, 2, 0] = -0.5
    out[0, 1, 2] = out[0, 2, 1] = 0.5
    return out if name == "h1" else -out


def _oracle_christoffel(name, p):
    p = np.asarray(p, dtype=float)
    ginv = np.linalg.inv(_oracle_metric(name, p))
    dg = _oracle_partials(name, p)
    T = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, T)


def _oracle_integrate(name, p0, v0, s_end, step):
    """(positions, velocities, aborted, invalid_at) of the RK4 loop on the
    concatenated state, with the oracle Christoffel symbols.  invalid_at
    names the function of each operation that raised numpy's invalid flag
    outside np.linalg.inv; recording it changes no value."""
    n = len(p0)
    invalid_at = []

    def record(err, flag):
        invalid_at.append(sys._getframe(1).f_code.co_name)

    def rhs(y):
        vel = y[n:]
        acc = -np.einsum("kij,i,j->k", _oracle_christoffel(name, y[:n]),
                         vel, vel)
        return np.concatenate((vel, acc))

    y = np.concatenate((np.asarray(p0, dtype=float),
                        np.asarray(v0, dtype=float)))
    ys = [y]
    aborted = False
    with np.errstate(all="ignore", invalid="call", call=record):
        for _ in range(_step_count(s_end, step)):
            try:
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * step * k1)
                k3 = rhs(y + 0.5 * step * k2)
                k4 = rhs(y + step * k3)
            except np.linalg.LinAlgError:
                aborted = True
                break
            y = y + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(y)):
                aborted = True
                break
            ys.append(y)
    Y = np.array(ys)
    return Y[:, :n], Y[:, n:], aborted, invalid_at


_coordinate = st.one_of(st.floats(-2, 2),
                        st.sampled_from([0.0, -0.0, 1e-300, 1e200, -1e200]))


# the RK4 stage sums of the first step meet inf - inf
_INVALID_STAGE = dict(name="h2", data=[0.0, 0.0, 0.0, 0.0, 1e150, 1.0, 1e160,
                                       0.0], nsteps=1)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["g0", "g1", "h1", "h2"]),
       data=st.lists(_coordinate, min_size=8, max_size=8),
       nsteps=st.integers(1, 12))
@example(name="h2", data=[0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0], nsteps=3)
@example(name="g1", data=[0.3, -0.2, 0.1, 0.0, -1.1, 0.9, 1e200, 0.0], nsteps=4)
@example(**_INVALID_STAGE)
def test_trajectory_matches_pre_cache_christoffel_bit_for_bit(name, data,
                                                               nsteps):
    # tobytes, not array_equal: -0.0 and 0.0 compare equal but print
    # differently in the CSV
    dim = chart(name).dim
    p0, v0 = data[:dim], data[4:4 + dim]
    traj = integrate_geodesic(chart(name), p0, v0, nsteps * 0.01, 0.01)
    ps, vs, aborted, invalid_at = _oracle_integrate(name, p0, v0,
                                                    nsteps * 0.01, 0.01)
    if dict(name=name, data=data, nsteps=nsteps) == _INVALID_STAGE:
        assert "_oracle_integrate" in invalid_at
    # an invalid operation leaves a NaN in the state, so the oracle aborts
    # where integrate_geodesic, which raises on the flag, aborts too
    assert aborted or not invalid_at
    assert traj.aborted == aborted
    assert traj.positions.tobytes() == ps.tobytes()
    assert traj.velocities.tobytes() == vs.tobytes()


@pytest.mark.parametrize("name", ["g0", "g1", "h1", "h2"])
def test_trajectory_at_the_benchmark_shape_matches_the_oracle_bit_for_bit(name):
    # s_end = 1 and step = 0.005, the 200 steps of each `geodesic` call of
    # the geodesics workload, from seeded points and velocities of its size
    rng = random.Random(f"workload shape {name}")
    dim = chart(name).dim
    for _ in range(3):
        p0 = [rng.uniform(-1, 1) for _ in range(dim)]
        v0 = [rng.uniform(-1.5, 1.5) for _ in range(dim)]
        traj = integrate_geodesic(chart(name), p0, v0, 1.0, 0.005)
        ps, vs, aborted, _ = _oracle_integrate(name, p0, v0, 1.0, 0.005)
        assert len(traj) == 201 and not traj.aborted and not aborted
        assert traj.positions.tobytes() == ps.tobytes()
        assert traj.velocities.tobytes() == vs.tobytes()


@pytest.mark.parametrize("ch, p0, v0, aborted", [
    (chart("h2"), [0.3, -0.1, 0.2], [0.6, -1.1, 0.4], False),
    (chart("g1"), [0.1, 0.2, -0.3, 0.4], [1.0, -0.5, 0.7, 0.2], False),
    (_degenerating_chart(), [0.0, 0.0], [1.0, 0.0], True),
    (chart("g0"), [0.0, 0.0, 0.0, 0.0], [1e200, 1e200, 1e200, 0.0], True),
])
def test_a_trajectory_does_not_alias_the_stepper_buffers(ch, p0, v0, aborted):
    first = integrate_geodesic(ch, p0, v0, 2.0, 1e-2)
    assert first.aborted == aborted
    before = first.positions.tobytes(), first.velocities.tobytes()
    # a second run on the same chart, from the same and from other data
    integrate_geodesic(ch, p0, v0, 2.0, 1e-2)
    integrate_geodesic(ch, [c + 0.25 for c in p0], [2 * c for c in v0], 2.0,
                       1e-2)
    assert (first.positions.tobytes(), first.velocities.tobytes()) == before
    assert not np.shares_memory(first.positions,
                                integrate_geodesic(ch, p0, v0, 0.5, 1e-2)
                                .positions)


def _oracle_rk4_step(rhs, y, h):
    """One classical RK4 step of y' = rhs(y), each stage a new array."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _oracle_flow(model, a, s_end, step):
    """The allocating RK4 loop of flow_left_invariant_field, without its
    range checks."""
    a = np.asarray(a, dtype=float)
    pos = np.array([float(c) for c in group_identity(model).coords])

    def rhs(p):
        return frame(model, GroupElement(model, tuple(p))) @ a

    with np.errstate(all="ignore"):
        for _ in range(_step_count(s_end, step)):
            pos = _oracle_rk4_step(rhs, pos, step)
    return pos


@pytest.mark.parametrize("model", ["G0", "G1", "H3"])
def test_flow_matches_the_allocating_loop_bit_for_bit(model):
    rng = random.Random(f"flow {model}")
    dim = 3 if model == "H3" else 4
    fields = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(6)]
    fields += [[0.0, -0.0, 1.0, -0.0][:dim], [-0.0] * dim,
               [1e-300, -1e-300, 1e-10, 3.0][:dim]]
    for a in fields:
        for s_end, step in ((1.0, 1e-2), (0.7, 0.05), (0.0, 0.1)):
            got = flow_left_invariant_field(model, a, s_end, step)
            want = _oracle_flow(model, a, s_end, step)
            assert np.array(got.coords).tobytes() == want.tobytes()


def test_christoffel_matches_oracle_bit_for_bit():
    rng = np.random.default_rng(11)
    for name in ("g0", "g1", "h1", "h2"):
        ch = chart(name)
        points = [rng.uniform(-3, 3, ch.dim) for _ in range(50)]
        points += [rng.choice([0.0, -0.0, 1e-300, -1e-300], ch.dim)
                   for _ in range(20)]
        for p in points:
            assert christoffel(ch, p).tobytes() == \
                _oracle_christoffel(name, p).tobytes()


def _oracle_csv(traj, model):
    buf = io.StringIO()
    buf.write("s,t,x,y,z,vt,vx,vy,vz\n")
    pad = model == "H3" or traj.positions.shape[1] == 3
    for s, p, v in zip(traj.s, traj.positions, traj.velocities):
        row = [s, 0.0, *p, 0.0, *v] if pad else [s, *p, *v]
        buf.write(",".join(format(x, ".17g") for x in row) + "\n")
    return buf.getvalue()


_csv_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 2.0, -3.0, 0.1]))


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["G0", "G1", "H3"]),
       rows=st.lists(st.lists(_csv_value, min_size=9, max_size=9),
                     min_size=1, max_size=6))
@example(model="H3", rows=[[0.0, -0.0, 1e-300, 1e300, 2.0, -0.0, 0.0, 2.0, 0.5]])
@example(model="G0", rows=[[2.0, -0.0, 1e-300, 1e300, 2.0, -0.0, 0.0, 2.0, -1e300]])
def test_csv_matches_row_by_row_writer(model, rows):
    dim = 3 if model == "H3" else 4
    A = np.array(rows)
    traj = Trajectory(A[:, 0], A[:, 1:1 + dim], A[:, 5:5 + dim], 0.01)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    assert buf.getvalue() == _oracle_csv(traj, model)


def test_csv_pads_three_dim_trajectory_of_any_model():
    traj = Trajectory(np.array([0.0, 0.5]), np.array([[-0.0, 1e-300, 2.0]] * 2),
                      np.array([[1e300, 0.0, -1.5]] * 2), 0.5)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    assert buf.getvalue() == _oracle_csv(traj, "G0")
    assert buf.getvalue().splitlines()[1] == "0,0,-0,1e-300,2,0,1.0000000000000001e+300,0,-1.5"


@pytest.mark.parametrize("n", [3, 4])
def test_private_inverse_gufunc_is_np_linalg_inv(n):
    # christoffel calls numpy's inverse gufunc directly; the private name can
    # move between numpy releases, and its result must stay bit-equal
    rng = np.random.default_rng(n)
    for _ in range(200):
        A = rng.standard_normal((n, n))
        assert _umath_linalg.inv(A, signature="d->d").tobytes() == \
            np.linalg.inv(A).tobytes()


@pytest.mark.parametrize("n", [3, 4])
def test_private_einsum_is_np_einsum(n):
    # the geodesic layer calls np.einsum's C function directly; it must be
    # the function np.einsum(..., optimize=False) calls, with the same bits
    assert c_einsum is inspect.unwrap(np.einsum).__globals__["c_einsum"]
    rng = np.random.default_rng(n)
    special = [0.0, -0.0, 1e-300, -1e-300, 1e200, -1e200, 1.0, -2.5]
    for k in range(200):
        if k % 2:
            A, T, v = (rng.standard_normal(shape)
                       for shape in ((n, n), (n, n, n), n))
        else:
            A, T, v = (rng.choice(special, shape)
                       for shape in ((n, n), (n, n, n), n))
        for spec, args in (("kl,ijl->kij", (A, T)), ("kij,i,j->k", (T, v, v))):
            with np.errstate(all="ignore"):
                assert c_einsum(spec, *args).tobytes() == \
                    np.einsum(spec, *args).tobytes()


def test_private_einsum_import_warns_nothing():
    # numpy 2 warns on numpy.core; the module imports numpy._core there
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(inspect.getfile(chart))),
        os.environ.get("PYTHONPATH")])))
    code = ("import warnings, numpy; warnings.simplefilter('error');"
            " import metriclie.integrate")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _h3_point_values():
    edges = [0.0, -0.0, 1e-300, -1e-300, 1e200, -1e200]
    rng = np.random.default_rng(7)
    return [(x, y, z) for x in edges for y in edges for z in (0.0, -1e200)] + \
        [tuple(rng.uniform(-3, 3, 3)) for _ in range(100)]


@pytest.mark.parametrize("name, partials", [("h1", _h1_partials),
                                            ("h2", _h2_partials)])
def test_h3_lowered_tensor_matches_the_partials_bit_for_bit(name, partials):
    ch = chart(name)
    assert ch.partials_at is partials
    for p in _h3_point_values():
        T = ch.lowered_at(np.array(p))
        assert T.tobytes() == MetricChart.lowered_at(ch, np.array(p)).tobytes()
    # entries that are zero at every point are +0.0 on both charts
    always_zero = ch.lowered_at(np.array([0.7, -1.3, 0.2])) == 0
    for p in ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]):
        assert not np.signbit(ch.lowered_at(np.array(p))[always_zero]).any()


@pytest.mark.parametrize("name", ["g0", "g1", "h1", "h2"])
def test_every_builtin_chart_is_one_class(name):
    ch = chart(name)
    assert type(ch) is _BuiltinChart
    assert ch.dim == (4 if name in ("g0", "g1") else 3)


def test_g0_and_g1_share_one_read_only_lowered_tensor():
    rng = np.random.default_rng(11)
    points = [np.zeros(4), np.full(4, -0.0), *rng.uniform(-3, 3, (20, 4))]
    T = chart("g0").lowered_at(points[0])
    assert not T.flags.writeable
    want = MetricChart("g0", 4, None, _g0g1_partials).lowered_at(None)
    assert T.tobytes() == want.tobytes() and T.shape == want.shape
    for name in ("g0", "g1"):
        ch = chart(name)
        # the stepper's held tensor is the shared one, never written
        assert ch._held()[1] is T
        for p in points:
            assert ch.lowered_at(p) is T


def test_h2_lowered_tensor_is_not_h1s_negated():
    # at y = 0, T[0,1,0] = (y/4 - y/2) - y/4 is +0.0 on both charts: a zero
    # that mixes signs is not negated with the rest
    p = np.array([0.0, 0.0, 0.0])
    h1, h2 = chart("h1").lowered_at(p), chart("h2").lowered_at(p)
    assert h1[0, 1, 0] == h2[0, 1, 0] == 0 and not np.signbit(h2[0, 1, 0])
    assert (-h1).tobytes() != h2.tobytes()


def _ignore(err, flag):
    pass


@pytest.mark.parametrize("outer", [{}, dict(all="warn", under="raise",
                                            call=_ignore)])
@pytest.mark.parametrize("ch, p0, v0, aborted", [
    (chart("h1"), [0.1, -0.2, 0.05], [0.3, 0.2, -0.1], False),
    (_degenerating_chart(), [0.0, 0.0], [1.0, 0.0], True),       # singular
    (chart("g0"), [0.0, 0.0, 0.0, 0.0], [1e200, 1e200, 1e200, 0.0], True),
])
def test_integration_restores_the_error_state(outer, ch, p0, v0, aborted):
    with np.errstate(**outer):
        before = np.geterr(), np.geterrcall()
        traj = integrate_geodesic(ch, p0, v0, 2.0, 1e-2)
        assert (np.geterr(), np.geterrcall()) == before
    assert traj.aborted == aborted


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", [
    np.zeros((3, 3)),
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
])
def test_singular_metric_raises_numerical_error_without_warning(metric):
    singular = MetricChart("singular", 3, lambda p: metric,
                           lambda p: np.zeros((3, 3, 3)))
    with pytest.raises(NumericalError, match="singular"):
        christoffel(singular, [0.1, 0.2, 0.3])
    with pytest.raises(NumericalError, match="singular"):
        geodesic_rhs(singular, np.array([0.1, 0.2, 0.3]), np.ones(3))


@pytest.mark.parametrize("model", ["G0", "H3"])
@pytest.mark.parametrize("rows", [_CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1,
                                  2 * _CSV_CHUNK])
def test_csv_across_chunk_bounds_matches_row_by_row_writer(model, rows):
    dim = 3 if model == "H3" else 4
    rng = np.random.default_rng(rows + dim)
    special = [0.0, -0.0, 1e-310, 5e-324, -1e300, 0.1, math.inf, math.nan]
    A = rng.uniform(-2, 2, (rows, 9))
    mask = rng.random((rows, 9)) < 0.2
    A[mask] = rng.choice(special, mask.sum())
    traj = Trajectory(A[:, 0], A[:, 1:1 + dim], A[:, 5:5 + dim], 0.01)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    assert buf.getvalue() == _oracle_csv(traj, model)


class _RefusesWrites(io.StringIO):
    def write(self, text):
        raise AssertionError("wrote " + repr(text[:20]))


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_csv_refuses_a_trajectory_the_header_does_not_fit(dim):
    # a 2-dim chart used to give 5-cell rows under the 9-column header
    flat = MetricChart("flat", dim, lambda p: np.eye(dim),
                       lambda p: np.zeros((dim,) * 3))
    traj = integrate_geodesic(flat, [0.0] * dim, [1.0] * dim, 0.02, 0.01)
    with pytest.raises(InputError, match=f"not {dim}-dim"):
        write_trajectory_csv(traj, _RefusesWrites())


@pytest.mark.parametrize("name, p0, v0, lengths", [
    ("g0", [0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], "got 3 for the point and 4"),
    ("h1", [0.0, 0.0, 0.0], [1.0, 0.0], "got 3 for the point and 2"),
    ("h1", [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.5], "got 4 for the point and 4"),
])
def test_initial_data_of_the_wrong_length_is_refused(monkeypatch, name, p0, v0,
                                                     lengths):
    # refused before any buffer is allocated: a raw ValueError came from the
    # chart writers or the history array
    def refuse(*args, **kwargs):
        raise AssertionError("allocated a buffer")
    monkeypatch.setattr(integrate, "_christoffel_kernel", refuse)
    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(InputError, match=f"has {chart(name).dim} coordinates;"
                                         f" {lengths} for the velocity"):
        integrate_geodesic(chart(name), p0, v0, 1.0, 0.01)


@pytest.mark.parametrize("size", [6, 8])
def test_finiteness_test_agrees_with_isfinite_all(size):
    zeros = np.zeros(size)
    states = [np.array([0.0, -0.0, 1e-310, 5e-324, -1e308, 1.7e308, 2.5, -3.0]
                       [:size])]
    for bad in (math.inf, -math.inf, math.nan):
        for i in range(size):
            y = np.linspace(-1e300, 1e300, size)
            y[i] = bad
            states.append(y)
    with np.errstate(**_SINGULAR_RAISES):
        for y in states:
            assert _all_finite(y, zeros) is bool(np.isfinite(y).all())


def test_geodesics_and_flows_share_the_one_stepper(monkeypatch):
    calls = []
    stepper = integrate._rk4_stepper

    def counted(rhs, Z, offset, h):
        calls.append(Z.shape)
        return stepper(rhs, Z, offset, h)
    monkeypatch.setattr(integrate, "_rk4_stepper", counted)
    integrate_geodesic(chart("h1"), [0.1, 0.2, 0.3], [1.0, 0.0, 0.5], 0.1, 0.05)
    flow_left_invariant_field("G0", (1.0, 0.0, 0.0, 1.0), 0.1, 0.05)
    # one stage block per run: [pos | vel | acc] and [pos | derivative]
    assert calls == [(4, 9), (4, 8)]
