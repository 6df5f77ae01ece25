"""Numeric geodesic integration in coordinates.

A chart supplies the metric matrix and its analytic first partials;
Christoffel symbols come from the standard formula and trajectories from
classical fixed-step RK4 on the first-order system (position, velocity).
The four built-in charts (g0, g1, h1, h2) have polynomial coefficients, so
the partials are written out by hand; finite differences appear only in
tests that cross-validate them.

One RK4 stepper, ``_rk4_stepper``, serves geodesics and the flows of
left-invariant fields.  It works in buffers held for the whole run: a stage
block with one row per stage, holding the stage's input and its derivative
(for a geodesic the row is [position | velocity | acceleration], so the
derivative's position half is the stage velocity itself and the right-hand
side writes only the acceleration), and for a geodesic the metric, the
lowered tensor, the inverse metric and the Christoffel symbols, which the
chart's writers fill in place.  Each state is written into one row of a
history array allocated before the first step.  Every float operation is
one of the textbook formula evaluated left to right, so a trajectory has
the bits of the loop that allocates a new array per stage (the tests keep
that loop and compare bytes).  The CSV writer formats its rows in chunks
of ``_CSV_CHUNK``, one ``%`` operation each.

Initial data whose length is not the chart's dimension, and a trajectory
the CSV header does not fit (not 3- or 4-dim), raise InputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

# np.einsum(..., optimize=False) hands its arguments to this C function, so
# calling it directly gives the same bits without the Python wrapper
if int(np.__version__.split(".")[0]) >= 2:
    from numpy._core.multiarray import c_einsum
else:
    from numpy.core.multiarray import c_einsum

from .base import InputError, NumericalError
from .groups import (_METRICS, GeodesicSpec, GroupElement, coordinate_metric,
                     frame, geodesic_closed_form, group_identity)

CSV_HEADER = "s,t,x,y,z,vt,vx,vy,vz"
# rows per formatted string: a long run never builds one giant string
_CSV_CHUNK = 1000
# fixed steps one run may take; a trajectory keeps every sample in memory
MAX_STEPS = 10**6


@dataclass
class MetricChart:
    """Coordinate metric with analytic partial derivatives.

    ``partials_at(p)[k]`` is the matrix of d g_ij / d x_k at p.
    """

    name: str
    dim: int
    metric_at: Callable[[np.ndarray], np.ndarray]
    partials_at: Callable[[np.ndarray], np.ndarray]

    def lowered_at(self, p) -> np.ndarray:
        """T[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij at p."""
        dg = self.partials_at(p)  # dg[k,i,j] = d_k g_ij
        return dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)

    def _held(self) -> tuple:
        """(metric, lowered tensor, write) for one run: write(p) copies the
        chart at the float array p into the two buffers."""
        g, lowered = np.empty((self.dim, self.dim)), np.empty((self.dim,) * 3)

        def write(p):
            g[...] = self.metric_at(p)
            lowered[...] = self.lowered_at(p)
        return g, lowered, write


def _g0g1_partials(p):
    out = np.zeros((4, 4, 4))
    # only g_tx = y/2 and g_ty = -x/2 depend on the point
    out[2, 0, 1] = out[2, 1, 0] = 0.5
    out[1, 0, 2] = out[1, 2, 0] = -0.5
    return out


def _h1_template():
    out = np.zeros((3, 3, 3))
    out[1, 0, 2] = out[1, 2, 0] = -0.5
    out[0, 1, 2] = out[0, 2, 1] = 0.5
    out.flags.writeable = False
    return out


# the point-independent partials of h1
_H1_PARTIALS = _h1_template()


def _h1_partials(p):
    x, y, _ = _floats(p)
    out = _H1_PARTIALS.copy()
    out[1, 0, 0] = -y / 2
    out[0, 1, 1] = -x / 2
    out[0, 0, 1] = out[0, 1, 0] = y / 4
    out[1, 0, 1] = out[1, 1, 0] = x / 4
    return out


def _h2_partials(p):
    # g_h1 + g_h2 is constant, so the partials are opposite
    return -_h1_partials(p)


def _h3_lowered_template(s):
    """The point-independent entries of the h1 (s = 1.0) or h2 (s = -1.0)
    lowered tensor, flat at index 9 i + 3 j + l.  T[0,1,2] and T[1,0,2] are
    (0.5 - 0.5) - 0 = +0.0 on both charts."""
    out = np.zeros(27)
    out[7] = out[19] = s     # T[0,2,1], T[2,0,1]
    out[15] = out[21] = -s   # T[1,2,0], T[2,1,0]
    out.flags.writeable = False
    return out


# the lowered tensor of g0 and g1 does not depend on the point: one
# read-only array serves both charts
_G0G1_LOWERED = MetricChart("g0", 4, None, _g0g1_partials).lowered_at(None)
_G0G1_LOWERED.flags.writeable = False
_LOWERED = {"g0": _G0G1_LOWERED, "g1": _G0G1_LOWERED,
            "h1": _h3_lowered_template(1.0), "h2": _h3_lowered_template(-1.0)}
_PARTIALS = {"g0": _g0g1_partials, "g1": _g0g1_partials,
             "h1": _h1_partials, "h2": _h2_partials}


class _BuiltinChart(MetricChart):
    """g0, g1, h1 or h2: the metric comes from the writers of
    groups.coordinate_metric and the lowered tensor from a table; h1 and h2
    fill in its point-dependent entries with ``_write_h3_lowered``.  The
    buffers of ``_held`` are written from Python floats, one conversion of
    the point serving the metric and the tensor.
    """

    def _held(self) -> tuple:
        template, write_metric = _METRICS[self.name]
        g = template.copy()
        if self.dim == 4:  # g0 and g1: the same tensor at every point
            return g, _G0G1_LOWERED, lambda p: write_metric(p.tolist(), g)
        name, flat = self.name, _LOWERED[self.name].copy()

        def write(p):
            q = p.tolist()
            write_metric(q, g)
            _write_h3_lowered(name, q, flat)
        return g, flat.reshape(3, 3, 3), write

    def lowered_at(self, p) -> np.ndarray:
        out = _LOWERED[self.name]
        if self.dim == 4:
            return out
        out = out.copy()
        _write_h3_lowered(self.name, p, out)
        return out.reshape(3, 3, 3)


def _write_h3_lowered(name, p, out):
    """The point-dependent entries of the h1 or h2 lowered tensor at p, into
    the flat array out.

    Each entry is (d_i g_jl + d_j g_il) - d_l g_ij on the partials of the
    chart itself (h2's are h1's negated, zeros included), in the order
    MetricChart.lowered_at adds them, so the bits are the same: negating
    h1's tensor as a whole would flip the sign of a zero that mixes signs.
    """
    x, y, _ = p
    # d_y g_xx, d_x g_yy, d_x g_xy and d_y g_xy, as _h1_partials has them
    yxx, xyy, xxy, yxy = -y / 2, -x / 2, y / 4, x / 4
    if name == "h2":
        yxx, xyy, xxy, yxy = -yxx, -xyy, -xxy, -yxy
    out[1] = (xxy + xxy) - yxx               # T[0,0,1]
    out[3] = out[9] = (xxy + yxx) - xxy      # T[0,1,0], T[1,0,0]
    out[4] = out[10] = (xyy + yxy) - yxy     # T[0,1,1], T[1,0,1]
    out[12] = (yxy + yxy) - xyy              # T[1,1,0]


def _floats(p) -> list:
    """The coordinates of p as Python floats, which compute the chart
    entries faster than numpy scalars and round the same."""
    return np.asarray(p, dtype=float).tolist()


def chart(name: str) -> MetricChart:
    """Built-in charts: g0, g1 (4-dim) and h1, h2 (3-dim on H3)."""
    if name not in _PARTIALS:
        raise InputError(f"no chart named {name!r}; have g0, g1, h1, h2")
    return _BuiltinChart(name, 4 if name in ("g0", "g1") else 3,
                         lambda p: coordinate_metric(name, _floats(p)),
                         _PARTIALS[name])


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("singular matrix")


# the error state np.linalg.inv enters: its inverse gufunc flags a singular
# matrix as invalid, and the callback raises LinAlgError
_SINGULAR_RAISES = dict(call=_raise_singular, invalid="call", over="ignore",
                        divide="ignore", under="ignore")


def _christoffel_kernel(ch: MetricChart) -> tuple:
    """(gam, at): a buffer for the Christoffel symbols and at(p), which
    writes them at the float array p into it, under the caller's error
    state: a singular metric raises LinAlgError when that state is
    _SINGULAR_RAISES."""
    g, lowered, write = ch._held()
    ginv, gam, half = np.empty(g.shape), np.empty(lowered.shape), np.array(0.5)

    def at(p):
        write(p)
        # the LAPACK gufunc of np.linalg.inv, without its Python wrapper:
        # the same bits
        _umath_linalg.inv(g, signature="d->d", out=ginv)
        c_einsum("kl,ijl->kij", ginv, lowered, out=gam)
        np.multiply(gam, half, out=gam)
    return gam, at


def christoffel(ch: MetricChart, p: Sequence) -> np.ndarray:
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 at p."""
    p = np.asarray(p, dtype=float)
    gam, at = _christoffel_kernel(ch)
    try:
        with np.errstate(**_SINGULAR_RAISES):
            at(p)
    except np.linalg.LinAlgError:
        raise NumericalError(f"metric of chart {ch.name} singular at {p.tolist()}")
    return gam


def geodesic_rhs(ch: MetricChart, pos: np.ndarray, vel: np.ndarray) -> tuple:
    # -Gamma^k_ij v^i v^j: the sign is a separate negation, as in
    # integrate_geodesic; folded into a factor it would flip a zero's sign
    return vel, -c_einsum("kij,i,j->k", christoffel(ch, pos), vel, vel)


@dataclass
class Trajectory:
    """Uniform-step samples (s, position, velocity) of one integration."""

    s: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    step: float
    aborted: bool = False

    def __len__(self):
        return len(self.s)


def integrate_geodesic(ch: MetricChart, p0: Sequence, v0: Sequence,
                       s_end: float, step: float = 1e-3) -> Trajectory:
    """Classical RK4 on (position, velocity).

    The run enters np.linalg.inv's error state once, not once per
    Christoffel evaluation, so an invalid operation anywhere in a step (a
    singular metric, or inf - inf) raises and aborts the run.  Such an
    operation leaves a NaN in the state, which the finiteness test would
    catch at the end of the step, so the samples are the same.  A non-finite
    state aborts too; the trajectory then carries the samples up to the last
    valid one and is flagged ``aborted``.  That flag is the report, so
    numpy's other floating-point warnings are silenced.

    Raises InputError when p0 or v0 does not have ch.dim entries.
    """
    nsteps = _step_count(s_end, step)
    n = ch.dim
    if len(p0) != n or len(v0) != n:
        raise InputError(f"chart {ch.name} has {n} coordinates; got {len(p0)}"
                         f" for the point and {len(v0)} for the velocity")
    gam, christoffel_at = _christoffel_kernel(ch)
    # stage i's row is [position | velocity | acceleration]: its input is
    # the first 2n entries and its derivative the last 2n
    Z = np.empty((4, 3 * n))
    stages = [(z[:n], z[n:2 * n], z[2 * n:]) for z in Z]

    def rhs(i):
        pos, vel, acc = stages[i]
        christoffel_at(pos)
        # -Gamma^k_ij v^i v^j: the sign is a separate negation; folded into
        # a factor it would flip the sign of a zero
        c_einsum("kij,i,j->k", gam, vel, vel, out=acc)
        np.negative(acc, acc)

    Y = np.empty((nsteps + 1, 2 * n))
    Y[0, :n], Y[0, n:] = p0, v0
    rk4, zeros = _rk4_stepper(rhs, Z, n, step), np.zeros(2 * n)
    done = 0
    with np.errstate(**_SINGULAR_RAISES):
        while done < nsteps:
            try:
                if not _all_finite(rk4(Y[done], Y[done + 1]), zeros):
                    break
            except np.linalg.LinAlgError:
                break
            done += 1
    Y = Y[:done + 1]
    return Trajectory(np.arange(done + 1) * step, Y[:, :n], Y[:, n:], step,
                      aborted=done < nsteps)


def _step_count(s_end: float, step: float) -> int:
    """Number of fixed RK4 steps from 0 to s_end: s_end / step rounded to
    the nearest whole step, zero included."""
    if not (step > 0 and math.isfinite(step)):
        raise InputError("step must be positive and finite")
    if not (s_end >= 0 and math.isfinite(s_end)):
        raise InputError("s_end must be finite and non-negative")
    ratio = s_end / step
    if not ratio <= MAX_STEPS:
        raise InputError(f"s_end / step must not exceed {MAX_STEPS} steps")
    return int(round(ratio))


def _all_finite(y, zeros) -> bool:
    """np.isfinite(y).all() in one numpy call, under _SINGULAR_RAISES:
    0 * x is a signed zero for finite x and NaN for inf or NaN, and 0 * inf
    raises numpy's invalid flag, which that state turns into LinAlgError."""
    try:
        return math.isfinite(y.dot(zeros))
    except np.linalg.LinAlgError:
        return False


def _rk4_stepper(rhs, Z: np.ndarray, offset: int, h: float) -> Callable:
    """step(y, out): one classical RK4 step of y' = f(y) from y, written
    into out and returned.  Z is the stage block, held across steps: row i
    holds stage i's input in Z[i, :m] and rhs(i) writes f of it into
    Z[i, offset:], its last m = Z.shape[1] - offset entries.  The
    operations are those of y + h/6 (k1 + 2 k2 + 2 k3 + k4) with stage
    inputs y + (h/2) k, evaluated left to right, each rounded once."""
    (y1, y2, y3, y4), (k1, k2, k3, k4) = Z[:, :-offset], Z[:, offset:]
    # 0-d arrays: numpy multiplies by them faster than by Python floats,
    # and they hold the same doubles
    half, whole, sixth, two = map(np.array, (0.5 * h, h, h / 6.0, 2.0))
    add, mul = np.add, np.multiply

    # a ufunc's third argument is its out
    def step(y, out):
        np.copyto(y1, y)
        rhs(0)
        add(y, mul(k1, half, y2), y2)
        rhs(1)
        add(y, mul(k2, half, y3), y3)
        rhs(2)
        add(y, mul(k3, whole, y4), y4)
        rhs(3)
        # ((k1 + 2 k2) + 2 k3) + k4, then times h/6, then plus y; k1 may
        # overlap y1, which is no longer read
        add(k1, mul(k2, two, k2), k1)
        add(k1, mul(k3, two, k3), k1)
        add(k1, k4, k1)
        return add(y, mul(k1, sixth, k1), out)
    return step


def energy_series(ch: MetricChart, traj: Trajectory) -> np.ndarray:
    """g(gamma', gamma') along a trajectory; constant for true geodesics."""
    return np.array([v @ ch.metric_at(p) @ v
                     for p, v in zip(traj.positions, traj.velocities)])


def initial_velocity(model: str, base: GroupElement, a: Sequence) -> np.ndarray:
    """Coordinate velocity of the frame combination sum a_i X_i at base.

    Raises NumericalError when it leaves the floating-point range."""
    return _finite(lambda: frame(model, base) @ np.asarray(a, dtype=float),
                   "initial velocity at the base point")


def _finite(compute, what: str) -> np.ndarray:
    """compute() as a float array, with numpy's floating-point warnings
    silenced; NumericalError, with this message, when it leaves the
    floating-point range (an overflow, a division by an underflowed zero, a
    non-finite value, or a NumericalError of compute's own)."""
    try:
        with np.errstate(all="ignore"):
            value = np.asarray(compute(), dtype=float)
    except (OverflowError, ZeroDivisionError, NumericalError):
        value = np.array(math.inf)
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"{what} leaves the floating-point range")
    return value


def integrate_spec(spec: GeodesicSpec, s_end: float,
                   step: float = 1e-3) -> Trajectory:
    name = {"G0": "g0", "G1": "g1"}.get(spec.model)
    if name is None:
        raise InputError("integrate_spec covers G0 and G1; use an h1/h2 chart"
                         " with explicit initial data for H3")
    ch = chart(name)
    v0 = initial_velocity(spec.model, spec.base, spec.a)
    return integrate_geodesic(ch, [float(c) for c in spec.base.coords], v0,
                              s_end, step)


def compare_to_closed_form(spec: GeodesicSpec, traj: Trajectory,
                           s_grid: Sequence[float]) -> float:
    """Sup-norm coordinate error of a trajectory of spec against the closed
    form at the grid values (each snapped to the nearest sample).

    Raises InputError for a grid value whose nearest sample lies outside the
    trajectory, and NumericalError when the trajectory was aborted or the
    comparison leaves the floating-point range."""
    if traj.aborted:
        raise NumericalError("integration aborted before the grid end")
    worst = 0.0
    for s in s_grid:
        idx = int(round(s / traj.step)) if math.isfinite(s) else -1
        if not 0 <= idx < len(traj):
            raise InputError(f"s = {s} lies outside the trajectory "
                             f"(0 to {traj.s[-1]})")
        diff = _finite(lambda: traj.positions[idx] - np.array(
            geodesic_closed_form(spec, traj.s[idx]).coords),
            f"closed-form comparison at s = {traj.s[idx]}")
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def flow_left_invariant_field(model: str, a: Sequence, s_end: float,
                              step: float = 1e-3) -> GroupElement:
    """RK4 integral curve of the left-invariant field sum a_i X_i from the
    identity; coincides with exp(s_end a) on G0/G1."""
    nsteps = _step_count(s_end, step)
    a = np.asarray(a, dtype=float)
    pos = np.array([float(c) for c in group_identity(model).coords])
    m = len(pos)
    # stage i's row is [position | derivative]
    Z = np.empty((4, 2 * m))
    stages = [(z[:m], z[m:]) for z in Z]

    def rhs(i):
        p, dp = stages[i]
        np.matmul(frame(model, GroupElement(model, tuple(p))), a, out=dp)

    rk4, new = _rk4_stepper(rhs, Z, m, step), np.empty(m)
    for _ in range(nsteps):
        _finite(lambda: rk4(pos, new), "flow")
        pos, new = new, pos
    return GroupElement(model, tuple(pos))


def write_trajectory_csv(traj: Trajectory, stream) -> None:
    """Delimited output, one row per sample: s,t,x,y,z,vt,vx,vy,vz.

    Three-dimensional (H3) trajectories fill the t and vt columns with 0.
    Values carry 17 significant digits so doubles round-trip.  Rows are
    formatted _CSV_CHUNK at a time, one % operation and one write each.

    Raises InputError, before writing anything, for a trajectory that is
    not 3- or 4-dimensional: its rows would not match the header.
    """
    n = traj.positions.shape[1]
    if n not in (3, 4):
        raise InputError(f"CSV columns {CSV_HEADER} hold 3- or 4-dim"
                         f" trajectories, not {n}-dim")
    stream.write(CSV_HEADER + "\n")
    # H3 pads t and vt with "0", which is "%.17g" % 0.0
    cells = ",%.17g" * 4 if n == 4 else ",0" + ",%.17g" * 3
    row = "%.17g" + cells + cells + "\n"
    for a in range(0, len(traj), _CSV_CHUNK):
        block = np.column_stack([x[a:a + _CSV_CHUNK] for x in
                                 (traj.s, traj.positions, traj.velocities)])
        stream.write((row * len(block)) % tuple(block.ravel().tolist()))
