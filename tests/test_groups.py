import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie.base import InputError, NumericalError
from metriclie.groups import (GeodesicSpec, GroupElement, ad_matrix,
                              coordinate_metric, exp_map, frame,
                              g1_product_exp_coords, geodesic_closed_form,
                              group_identity, inverse, multiply, rho,
                              rotation_block)

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


# --- group law -----------------------------------------------------------

def test_h3_multiplication_example():
    a = GroupElement("H3", (1, 0, 0))
    b = GroupElement("H3", (0, 1, 0))
    assert multiply(a, b).coords == (1, 1, F(1, 2))


def test_g0_center_line():
    a = GroupElement("G0", (0.7, 0.0, 0.0, 1.5))
    b = GroupElement("G0", (-0.2, 0.0, 0.0, 0.5))
    t, x, y, z = multiply(a, b).coords
    assert abs(t - 0.5) < 1e-15 and x == y == 0.0 and abs(z - 2.0) < 1e-15


def test_inverse_two_sided():
    rng = random.Random(2)
    for model in ("G0", "G1"):
        for _ in range(20):
            g = GroupElement(model, tuple(rng.uniform(-2, 2) for _ in range(4)))
            for prod in (multiply(g, inverse(g)), multiply(inverse(g), g)):
                assert max(abs(c) for c in prod.coords) < 1e-12
    e = group_identity("G1")
    g = GroupElement("G1", (1.0, 2.0, 3.0, 5.0))
    assert max(abs(c) for c in multiply(multiply(g, inverse(g)), e).coords) < 1e-12


def test_model_mismatch():
    with pytest.raises(InputError):
        multiply(group_identity("G0"), group_identity("G1"))


def test_associativity_float():
    rng = random.Random(4)
    for model in ("H3", "G0", "G1"):
        nc = 3 if model == "H3" else 4
        for _ in range(1000):
            g1_, g2_, g3_ = (GroupElement(model,
                                          tuple(rng.uniform(-1.5, 1.5)
                                                for _ in range(nc)))
                             for _ in range(3))
            left = multiply(multiply(g1_, g2_), g3_)
            right = multiply(g1_, multiply(g2_, g3_))
            assert max(abs(a - b) for a, b in
                       zip(left.coords, right.coords)) < 1e-12


@given(a=st.tuples(rationals, rationals, rationals),
       b=st.tuples(rationals, rationals, rationals),
       c=st.tuples(rationals, rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_associativity_h3_exact(a, b, c):
    ga, gb, gc = (GroupElement("H3", v) for v in (a, b, c))
    left = multiply(multiply(ga, gb), gc)
    right = multiply(ga, multiply(gb, gc))
    assert left.coords == right.coords


def test_associativity_g1_exact_exp_coords():
    # tau = e^t as an explicit rational coordinate makes G1 exact
    rng = random.Random(8)
    for _ in range(100):
        elems = [(F(rng.randint(1, 5), rng.randint(1, 5)),
                  F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2),
                  F(rng.randint(-3, 3), 2)) for _ in range(3)]
        a, b, c = elems
        assert g1_product_exp_coords(g1_product_exp_coords(a, b), c) == \
            g1_product_exp_coords(a, g1_product_exp_coords(b, c))


def test_g1_inverse_closed_form_exact():
    a = (F(2), F(1), F(-1), F(3))
    inv = (1 / a[0], -a[1] / a[0], -a[2] * a[0], -a[3])
    prod = g1_product_exp_coords(a, inv)
    assert prod == (F(1), F(0), F(0), F(0))


# --- twist blocks and Ad -------------------------------------------------

def test_rotation_blocks_at_zero():
    assert np.allclose(rotation_block("G0", 0.0), np.eye(2))
    assert np.allclose(rotation_block("G1", 0.0), np.eye(2))
    assert np.allclose(rho("G0", 0.0), np.eye(3))


def test_rotation_block_groups():
    R = rotation_block("G0", 0.7)
    assert np.allclose(R.T @ R, np.eye(2))
    B = rotation_block("G1", 0.7)
    Jt = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(B.T @ Jt @ B, Jt)


def test_ad_matrix_examples():
    A = ad_matrix("G0", 0.9, (0.0, 0.0))
    assert np.allclose(A[1:3, 1:3], rotation_block("G0", 0.9))
    assert np.allclose(A[:, 0], [1, 0, 0, 0])
    A = ad_matrix("G0", 0.0, (1.0, 0.0))
    assert np.allclose(A[:, 0], [1.0, 0.0, -1.0, -0.5])


def test_ad_representation_property():
    rng = random.Random(6)
    for model in ("G0", "G1"):
        for _ in range(40):
            t1, t2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            v1 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            v2 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            ga = GroupElement(model, (t1, *v1, 0.3))
            gb = GroupElement(model, (t2, *v2, -0.7))
            prod = multiply(ga, gb)
            lhs = ad_matrix(model, t1, v1) @ ad_matrix(model, t2, v2)
            rhs = ad_matrix(model, prod.coords[0], prod.coords[1:3])
            assert np.max(np.abs(lhs - rhs)) < 1e-10


# --- frames --------------------------------------------------------------

def test_frame_at_identity_is_standard_basis():
    for model in ("H3", "G0", "G1"):
        F_ = frame(model, group_identity(model))
        assert np.allclose(F_, np.eye(3 if model == "H3" else 4))


def test_frame_examples():
    F_ = frame("G0", GroupElement("G0", (math.pi / 2, 0, 0, 0)))
    assert np.allclose(F_[:, 1], [0, 0, 1, 0], atol=1e-15)  # X1 = d_y
    F_ = frame("G1", GroupElement("G1", (1.0, 1.0, 1.0, 0.0)))
    e = math.exp(-1)
    assert np.allclose(F_[:, 2], [0, 0, e, e / 2])
    F_ = frame("H3", GroupElement("H3", (2.0, 3.0, 0.0)))
    assert np.allclose(F_[:, 0], [1, 0, -1.5])
    assert np.allclose(F_[:, 1], [0, 1, 1.0])


def test_frame_brackets_symbolic():
    # [X_a, X_b]^k = X_a^i d_i X_b^k - X_b^i d_i X_a^k must reproduce the
    # structure constants; the coefficients are closed-form, so differentiate
    # them symbolically instead of by finite differences
    sympy = pytest.importorskip("sympy")
    t, x, y, z = sympy.symbols("t x y z")

    def bracket_fields(Xa, Xb, coords):
        return [sum(Xa[i] * sympy.diff(Xb[k], coords[i])
                    - Xb[i] * sympy.diff(Xa[k], coords[i])
                    for i in range(len(coords)))
                for k in range(len(coords))]

    frames = {
        "H3": ([x, y, z],
               [[1, 0, -y / 2], [0, 1, x / 2], [0, 0, 1]]),
        "G0": ([t, x, y, z],
               [[1, 0, 0, 0],
                [0, sympy.cos(t), sympy.sin(t),
                 (x * sympy.sin(t) - y * sympy.cos(t)) / 2],
                [0, -sympy.sin(t), sympy.cos(t),
                 (x * sympy.cos(t) + y * sympy.sin(t)) / 2],
                [0, 0, 0, 1]]),
        "G1": ([t, x, y, z],
               [[1, 0, 0, 0],
                [0, sympy.exp(t), 0, -y * sympy.exp(t) / 2],
                [0, 0, sympy.exp(-t), x * sympy.exp(-t) / 2],
                [0, 0, 0, 1]]),
    }
    structure = {
        "H3": {(0, 1): {2: 1}},
        "G0": {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {3: 1}},
        "G1": {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {3: 1}},
    }
    for model, (coords, fields) in frames.items():
        n = len(coords)
        for a in range(n):
            for b in range(a + 1, n):
                got = bracket_fields(fields[a], fields[b], coords)
                want = [0] * n
                for k, val in structure[model].get((a, b), {}).items():
                    want[k] = val
                expect = [sum(val * fields[k][comp]
                              for k, val in enumerate(want)) for comp in range(n)]
                for comp in range(n):
                    assert sympy.simplify(got[comp] - expect[comp]) == 0, \
                        (model, a, b, comp)

    # cross-check the numeric frame against the symbolic one at a point
    subs = {t: 0.3, x: 0.7, y: -0.4, z: 0.9}
    for model, (coords, fields) in frames.items():
        pt = tuple(float(subs[c]) for c in coords)
        F_num = frame(model, GroupElement(model, pt))
        for col in range(len(coords)):
            for row in range(len(coords)):
                val = float(sympy.sympify(fields[col][row]).subs(subs))
                assert abs(val - F_num[row, col]) < 1e-12


# --- coordinate metrics --------------------------------------------------

def test_coordinate_metric_h1_at_origin():
    assert np.allclose(coordinate_metric("h1", (0, 0, 0)),
                       np.diag([1.0, 1.0, -1.0]))


def test_coordinate_metric_g0_at_origin():
    g = coordinate_metric("g0", (0, 0, 0, 0))
    want = np.array([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]],
                    dtype=float)
    assert np.allclose(g, want)


def test_coordinate_metric_frame_constancy():
    rng = np.random.default_rng(1)
    targets = {
        "g0": np.array([[0, 0, 0, 1], [0, 1, 0, 0],
                        [0, 0, 1, 0], [1, 0, 0, 0]], float),
        "g1": np.array([[0, 0, 0, 1], [0, 0, 1, 0],
                        [0, 1, 0, 0], [1, 0, 0, 0]], float),
        "h1": np.diag([1.0, 1.0, -1.0]),
        "h2": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], float),
    }
    for name, want in targets.items():
        model = "H3" if name.startswith("h") else name.upper()
        dim = 3 if model == "H3" else 4
        for _ in range(40):
            p = GroupElement(model, tuple(rng.uniform(-3, 3, dim)))
            F_ = frame(model, p)
            got = F_.T @ coordinate_metric(name, p.coords) @ F_
            assert np.max(np.abs(got - want)) < 1e-12, name


# --- exponential and closed-form geodesics -------------------------------

def test_exp_examples():
    got = exp_map("G1", (1, 1, 0, 5))
    assert np.allclose(got.coords, (1, math.e - 1, 0, 5))
    got = exp_map("G0", (1, 0, 0, 1))
    assert np.allclose(got.coords, (1, 0, 0, 1))
    got = exp_map("G1", (1, 1, 1, 0))
    assert np.allclose(got.coords[3], 1 - math.sinh(1))
    assert exp_map("H3", (1, 2, 3)).coords == pytest.approx((1, 2, 3))


@pytest.mark.parametrize("model, a", [
    ("G0", (1, 2, 3)), ("G1", (1, 2, 3, 4, 5)), ("H3", (1, 2, 3, 4)),
    ("H3", (1, 2)), ("G0", ()),
])
def test_exp_with_wrong_coefficient_count_raises_input_error(model, a):
    want = 3 if model == "H3" else 4
    with pytest.raises(InputError, match=f"{model} takes {want} frame"):
        exp_map(model, a)
    with pytest.raises(InputError, match=f"{model} takes {want} frame"):
        GeodesicSpec(model, group_identity(model), a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, a", [
    ("G0", (1e-200, 1e300, 0, 0)),  # z = a1^2 a0 / 12 + ... ~ 8e398
    ("G1", (1e3, 1, 1, 0)),       # exp(1000)
    ("G1", (-1e3, 1, 1, 0)),      # exp(-(-1000))
    ("G0", (1, 1e200, 0, 0)),     # z = a1^2 (1 - sin 1) / 2 ~ 8e398
])
def test_exp_out_of_float_range_raises_numerical_error(model, a):
    with pytest.raises(NumericalError):
        exp_map(model, a)
    spec = GeodesicSpec(model, group_identity(model), a)
    with pytest.raises(NumericalError):
        geodesic_closed_form(spec, 1.0)


def _exp_800_digits(model, a, s):
    """exp(s X) on G0 or G1 from the textbook closed form, which divides by
    a0 and a0^2, at 800 digits, with the size of each coordinate's terms
    in the form that divides by neither (the bound for its rounding).  It
    is taken at th = a0 s, a1 s and a2 s as rounded to floats, the inputs
    any float evaluation starts from."""
    a0, a1, a2, a3 = a
    with mpmath.workdps(800):
        th, u, v, a3, s = map(mpmath.mpf, (a0 * s, a1 * s, a2 * s, a3, s))
        if not th:  # a0 s underflowed: the line s a
            return (th, u, v, a3 * s), (0, abs(u), abs(v), abs(a3 * s))
        a0, a1, a2 = th / s, u / s, v / s
        if model == "G0":
            x = (a1 / a0) * mpmath.sin(th) + (a2 / a0) * (mpmath.cos(th) - 1)
            y = (a1 / a0) * (1 - mpmath.cos(th)) + (a2 / a0) * mpmath.sin(th)
            q = (a1 * a1 + a2 * a2) * (th - mpmath.sin(th)) / (a0 * a0)
            z = a3 * s + q / 2
            sinc, vers = mpmath.sin(th) / th, (1 - mpmath.cos(th)) / th
            sizes = (abs(th), abs(u * sinc) + abs(v * vers),
                     abs(u * vers) + abs(v * sinc), abs(a3 * s) + abs(q) / 2)
        else:
            x = (a1 / a0) * mpmath.expm1(th)
            y = (a2 / a0) * -mpmath.expm1(-th)
            z = a3 * s + a1 * a2 * (th - mpmath.sinh(th)) / (a0 * a0)
            sizes = (abs(th), abs(x), abs(y), abs(a3 * s) + abs(z - a3 * s))
        return (th, x, y, z), sizes


def _assert_near_800_digits(model, a, s, coords):
    exact, sizes = _exp_800_digits(model, a, s)
    for got, want, size in zip(coords, exact, sizes):
        # a few roundings of each term, and the subnormal floor
        assert abs(mpmath.mpf(got) - want) <= 8 * 2.0**-52 * size + 1e-300, \
            (model, a, s, coords, exact)


# each case was refused as out of range while the closed form divided by a0
# and a0^2, although its exact value is finite
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, a", [
    ("G0", (1e-300, 1, 0, 0)),      # (1e-300, 1, 5e-301, 8.3e-302)
    ("G1", (1e-300, 1, 1, 0)),
    ("G0", (1e-200, 1e200, 0, 0)),  # z = 8.3e198
    ("G1", (1e-200, 1e200, 1, 0)),
    ("G0", (1e-10, 1, 1, 0)),
    ("G1", (-1e-10, 1, 1, 0)),
])
def test_exp_with_a_tiny_a0_is_finite_and_exact_to_rounding(model, a):
    _assert_near_800_digits(model, a, 1.0, exp_map(model, a).coords)
    spec = GeodesicSpec(model, group_identity(model), a)
    for s in (0.5, -1.0, 2.0):
        _assert_near_800_digits(model, a, s,
                                geodesic_closed_form(spec, s).coords)


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(["G0", "G1"]),
       mag=st.floats(-300, 2), sign=st.sampled_from([-1.0, 1.0]),
       rest=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       s=st.floats(-2, 2).filter(bool))
def test_exp_matches_the_closed_form_at_800_digits(model, mag, sign, rest, s):
    # a0 over 302 decades, both sides of the series cutoff |a0 s| = 2
    a = (sign * 10.0**mag, *rest)
    coords = geodesic_closed_form(
        GeodesicSpec(model, group_identity(model), a), s).coords
    _assert_near_800_digits(model, a, s, coords)


@pytest.mark.filterwarnings("error")
def test_closed_form_with_overflowing_angle_raises_numerical_error():
    # a0 * s = inf: math.sin refuses it
    spec = GeodesicSpec("G0", group_identity("G0"), (1e300, 1, 0, 0))
    with pytest.raises(NumericalError):
        geodesic_closed_form(spec, 1e10)


def test_geodesic_g0_example():
    spec = GeodesicSpec("G0", group_identity("G0"), (1, 1, 0, 0))
    for s in (0.25, 1.0, 2.0):
        got = geodesic_closed_form(spec, s).coords
        want = (s, math.sin(s), 1 - math.cos(s), (s - math.sin(s)) / 2)
        assert np.allclose(got, want)


def test_geodesic_straight_when_a0_zero():
    for model in ("G0", "G1"):
        spec = GeodesicSpec(model, group_identity(model), (0, 1, 2, 3))
        got = geodesic_closed_form(spec, 1.7).coords
        assert np.allclose(got, (0, 1.7, 3.4, 5.1))


def test_geodesic_through_base_is_translate():
    base = GroupElement("G0", (0.3, -0.2, 0.5, 1.0))
    a = (0.8, 1.0, -0.5, 0.25)
    spec = GeodesicSpec("G0", base, a)
    s = 1.3
    got = geodesic_closed_form(spec, s)
    onepar = geodesic_closed_form(
        GeodesicSpec("G0", group_identity("G0"), a), s)
    want = multiply(base, onepar)
    assert np.allclose(got.coords, want.coords)


def test_exp_one_parameter_homomorphism():
    rng = random.Random(12)
    for model in ("H3", "G0", "G1"):
        nc = 3 if model == "H3" else 4
        for _ in range(25):
            a = tuple(rng.uniform(-1.5, 1.5) for _ in range(nc))
            s, u = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            whole = exp_map(model, tuple((s + u) * c for c in a))
            stepped = multiply(exp_map(model, tuple(s * c for c in a)),
                               exp_map(model, tuple(u * c for c in a)))
            assert max(abs(p - q) for p, q in
                       zip(whole.coords, stepped.coords)) < 1e-10


def test_branch_continuity_a0_to_zero():
    for model in ("G0", "G1"):
        tiny = GeodesicSpec(model, group_identity(model), (1e-8, 1, 2, 3))
        zero = GeodesicSpec(model, group_identity(model), (0, 1, 2, 3))
        a = geodesic_closed_form(tiny, 2.0).coords
        b = geodesic_closed_form(zero, 2.0).coords
        assert max(abs(p - q) for p, q in zip(a, b)) < 1e-6


def test_closed_form_requires_biinvariant_model():
    spec = GeodesicSpec("H3", group_identity("H3"), (1, 0, 0))
    with pytest.raises(InputError):
        geodesic_closed_form(spec, 1.0)
