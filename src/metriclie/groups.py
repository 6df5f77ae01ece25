"""Coordinate models of the groups H3(R), G0 and G1.

H3 is R^3 with the polynomial product

    (v, z) (v', z') = (v + v', z + z' + v^T J v' / 2),

and G0, G1 are R x H3 with the plane twisted by a rotation (G0) or a boost
(G1) block R_i(t) before it enters the product.  H3 arithmetic is scalar
generic, so Fractions stay exact; the four-dimensional models use floats
because of cos/sin/exp.  For exact work on G1 there is a separate product
in exponential coordinates where tau stands for e^t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import InputError, NumericalError

MODELS = ("H3", "G0", "G1")


@dataclass(frozen=True)
class GroupElement:
    model: str
    coords: tuple

    def __post_init__(self):
        if self.model not in MODELS:
            raise InputError(f"unknown model {self.model!r}")
        want = 3 if self.model == "H3" else 4
        if len(self.coords) != want:
            raise InputError(f"{self.model} elements have {want} coordinates")
        object.__setattr__(self, "coords", tuple(self.coords))


@dataclass(frozen=True)
class GeodesicSpec:
    """Initial data: base point and frame coefficients a of the velocity
    X = sum a_i X_i at the base."""

    model: str
    base: GroupElement
    a: tuple

    def __post_init__(self):
        a = _frame_coefficients(self.model, self.a)
        if self.base.model != self.model:
            raise InputError("base point model mismatch")
        object.__setattr__(self, "a", a)


def _frame_coefficients(model: str, a: Sequence) -> tuple:
    want = 3 if model == "H3" else 4
    if len(a) != want:
        raise InputError(f"{model} takes {want} frame coefficients")
    return tuple(a)


def group_identity(model: str) -> GroupElement:
    return GroupElement(model, (0, 0, 0) if model == "H3" else (0, 0, 0, 0))


def rotation_block(model: str, t) -> np.ndarray:
    """The twist block R_i(t): a rotation for G0, a boost for G1."""
    if model == "G0":
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s], [s, c]])
    if model == "G1":
        return np.array([[math.exp(t), 0.0], [0.0, math.exp(-t)]])
    raise InputError("rotation block exists for G0 and G1 only")


def rho(model: str, t) -> np.ndarray:
    """The automorphism of H3 induced by t: block diag(R_i(t), 1)."""
    out = np.eye(3)
    out[:2, :2] = rotation_block(model, t)
    return out


def _twist(v, Rv2, z, z2):
    # common core (v, z)(v', z') with v' already twisted
    x, y = v
    x2, y2 = Rv2
    return (x + x2, y + y2, z + z2 + (x * y2 - y * x2) / 2)


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product.  H3 works for any scalar type; G0/G1 use floats."""
    if a.model != b.model:
        raise InputError("cannot multiply elements of different models")
    if a.model == "H3":
        x, y, z = a.coords
        x2, y2, z2 = b.coords
        return GroupElement("H3", _twist((x, y), (x2, y2), z, z2))
    t, x, y, z = a.coords
    t2, x2, y2, z2 = b.coords
    R = rotation_block(a.model, t)
    rx = R[0, 0] * x2 + R[0, 1] * y2
    ry = R[1, 0] * x2 + R[1, 1] * y2
    nx, ny, nz = _twist((x, y), (rx, ry), z, z2)
    return GroupElement(a.model, (t + t2, nx, ny, nz))


def inverse(a: GroupElement) -> GroupElement:
    """(t, v, z)^-1 = (-t, -R(-t) v, -z); for H3 just negate."""
    if a.model == "H3":
        return GroupElement("H3", tuple(-c for c in a.coords))
    t, x, y, z = a.coords
    R = rotation_block(a.model, -t)
    return GroupElement(a.model, (-t,
                                  -(R[0, 0] * x + R[0, 1] * y),
                                  -(R[1, 0] * x + R[1, 1] * y),
                                  -z))


def g1_product_exp_coords(a: Sequence, b: Sequence) -> tuple:
    """Exact G1 product in coordinates (tau, x, y, z) with tau = e^t.

    tau multiplies and the boost block becomes diag(tau, 1/tau), so the
    whole product is rational and Fractions stay exact.
    """
    tau, x, y, z = a
    tau2, x2, y2, z2 = b
    if not tau or not tau2:
        raise InputError("tau = e^t must be nonzero (and positive)")
    rx, ry = tau * x2, y2 / tau
    nx, ny, nz = _twist((x, y), (rx, ry), z, z2)
    return (tau * tau2, nx, ny, nz)


def ad_matrix(model: str, t, v: Sequence) -> np.ndarray:
    """Adjoint action of the element (t, v, *) on the algebra basis
    (e0, e1, e2, e3); the center coordinate acts trivially.

    Block form: first column (1, -K v, -v^T J K v / 2), middle block R_i(t)
    with z-row v^T J R_i(t), where K is the generator of the twist block.
    """
    if model not in ("G0", "G1"):
        raise InputError("Ad matrices exist for G0 and G1 only")
    x, y = float(v[0]), float(v[1])
    R = rotation_block(model, t)
    out = np.zeros((4, 4))
    out[0, 0] = 1.0
    out[3, 3] = 1.0
    out[1:3, 1:3] = R
    if model == "G0":
        # K = -J, so -K v = J v and v^T J K v = |v|^2
        out[1, 0], out[2, 0] = y, -x
        out[3, 0] = -(x * x + y * y) / 2
    else:
        out[1, 0], out[2, 0] = -x, y
        out[3, 0] = x * y
    out[3, 1] = -y * R[0, 0] + x * R[1, 0]
    out[3, 2] = -y * R[0, 1] + x * R[1, 1]
    return out


def frame(model: str, p: GroupElement) -> np.ndarray:
    """Left-invariant frame at p, one field per column.

    Columns reduce to the standard basis at the identity and their pairwise
    brackets reproduce the structure constants of the corresponding algebra.
    """
    if p.model != model:
        raise InputError("point model mismatch")
    if model == "H3":
        x, y, _ = p.coords
        return np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [-y / 2, x / 2, 1.0],
        ])
    t, x, y, _ = p.coords
    F = np.zeros((4, 4))
    F[0, 0] = 1.0
    F[3, 3] = 1.0
    if model == "G0":
        c, s = math.cos(t), math.sin(t)
        F[1, 1], F[2, 1] = c, s
        F[1, 2], F[2, 2] = -s, c
        F[3, 1] = (x * s - y * c) / 2
        F[3, 2] = (x * c + y * s) / 2
    else:
        et, emt = math.exp(t), math.exp(-t)
        F[1, 1] = et
        F[3, 1] = -y * et / 2
        F[2, 2] = emt
        F[3, 2] = x * emt / 2
    return F


def _metric_template(dim, ones) -> np.ndarray:
    g = np.zeros((dim, dim))
    for (i, j), value in ones.items():
        g[i, j] = g[j, i] = value
    g.flags.writeable = False
    return g


# the point-independent entries of each coordinate metric
_METRIC_TEMPLATES = {
    "g0": _metric_template(4, {(0, 3): 1.0, (1, 1): 1.0, (2, 2): 1.0}),
    "g1": _metric_template(4, {(0, 3): 1.0, (1, 2): 1.0}),
    "h1": _metric_template(3, {(2, 2): -1.0}),
    "h2": _metric_template(3, {(2, 2): 1.0}),
}


def coordinate_metric(name: str, p: Sequence) -> np.ndarray:
    """Matrix of the coordinate metric at p.

    These are the unique coordinate tensors whose values on the
    left-invariant frame are the constant matrices of the corresponding
    algebra metrics (gmatrix0 for g0/g1; diag(1,1,-1) for h1 and the
    <X1,X2> = <X3,X3> = 1 pattern for h2).  The point-dependent entries are
    computed on the scalars of p, so a list of Python floats is cheaper
    than a float array.
    """
    template = _METRIC_TEMPLATES.get(name)
    if template is None:
        raise InputError(f"no coordinate metric named {name!r}")
    g = template.copy()
    if name in ("g0", "g1"):
        t, x, y, z = p
        g[0, 1] = g[1, 0] = y / 2
        g[0, 2] = g[2, 0] = -x / 2
    elif name == "h1":
        x, y, z = p
        g[0, 0] = 1 - y * y / 4
        g[1, 1] = 1 - x * x / 4
        g[0, 1] = g[1, 0] = x * y / 4
        g[0, 2] = g[2, 0] = -y / 2
        g[1, 2] = g[2, 1] = x / 2
    else:
        x, y, z = p
        g[0, 0] = y * y / 4
        g[1, 1] = x * x / 4
        g[0, 1] = g[1, 0] = 1 - x * y / 4
        g[0, 2] = g[2, 0] = y / 2
        g[1, 2] = g[2, 1] = -x / 2
    return g


def exp_map(model: str, a: Sequence) -> GroupElement:
    """Group exponential of X = sum a_i X_i.

    For the bi-invariant metrics on G0 and G1 this is also the time-1
    geodesic through the identity; on H3 it is only the group exponential
    (the h1/h2 geodesics are not one-parameter subgroups in general).
    """
    return _one_parameter(model, _frame_coefficients(model, a), 1.0)


def geodesic_closed_form(spec: GeodesicSpec, s) -> GroupElement:
    """Closed-form geodesic of the bi-invariant metric through the base.

    Through the identity the geodesic is the one-parameter subgroup of the
    frame coefficients; through any other point it is the left translate
    g exp(sX).  Only G0 and G1 carry closed forms.
    """
    model = spec.model
    if model not in ("G0", "G1"):
        raise InputError("closed-form geodesics are available for G0 and G1")
    at_identity = _one_parameter(model, spec.a, s)
    if all(c == 0 for c in spec.base.coords):
        return at_identity
    return multiply(spec.base, at_identity)


def _one_parameter(model: str, a: Sequence, s) -> GroupElement:
    """exp(s X) for X = sum a_i X_i; NumericalError when a coordinate leaves
    the floating-point range."""
    a0, a1, a2, a3 = ([0.0] if model == "H3" else []) + [float(c) for c in a]
    try:
        coords = _one_parameter_coords(model, a0, a1, a2, a3, s)
    except (OverflowError, ZeroDivisionError, ValueError):
        coords = (math.inf,)
    if not all(map(math.isfinite, coords)):
        raise NumericalError(f"exp on {model} leaves the floating-point range")
    return GroupElement(model, coords[1:] if model == "H3" else coords)


def _one_parameter_coords(model, a0, a1, a2, a3, s) -> tuple:
    # every ratio is a function of th = a0 s that is finite at th = 0, so a
    # tiny a0 neither divides by an underflowed a0^2 nor cancels; H3
    # (a0 = 0) takes the G1 branch, which at th = 0 is the line s a
    th, u, v = a0 * s, a1 * s, a2 * s
    if model == "G0":
        sinc, vers = _sinc(th), math.sin(th / 2) * _sinc(th / 2)
        c = _cubic_ratio(th, -1.0)
        return (th, u * sinc - v * vers, u * vers + v * sinc,
                a3 * s + 0.5 * (u * (u * c) + v * (v * c)))
    c = _cubic_ratio(th, 1.0)
    return (th, u * _expm1_ratio(th), v * _expm1_ratio(-th),
            a3 * s - u * (v * c))


def _sinc(th):
    """sin th / th, 1 at th = 0."""
    return math.sin(th) / th if th else 1.0


def _expm1_ratio(th):
    """(e^th - 1) / th, 1 at th = 0."""
    return math.expm1(th) / th if th else 1.0


def _cubic_ratio(th, sign):
    """(th - sin th) / th^2 for sign -1.0, (sinh th - th) / th^2 for sign
    1.0.  Below |th| = 2 the difference would cancel, so the Taylor series
    sum_k sign^(k+1) th^(2k-1) / (2k+1)! is summed until its terms no longer
    change the total; its ratio of terms is at most 1/5 there."""
    if not abs(th) < 2:  # NaN too, which would never end the sum
        ratio = math.sinh(th) / th if sign > 0 else math.sin(th) / th
        return sign * (ratio - 1.0) / th
    total, term, k = 0.0, th / 6, 1
    while total + term != total:
        total += term
        k += 2
        term *= sign * th * th / ((k + 1) * (k + 2))
    return total
