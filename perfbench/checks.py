"""Output checks, made apart from metriclie and run outside the timed loop.

Each checker takes an invocation, what the CLI printed to stdout and, for
geodesics, the CSV it wrote; it returns None when the output is right, or a
short reason when it is not.  Expected values come from the source algebras in
`exact`, from sympy (series and invariant-form dimensions), from closed
forms written here, or from properties the method must have; none comes
from a stored copy of metriclie's output.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as Q
from functools import lru_cache

import numpy as np

import exact

GEODESIC_TOL = 1e-8     # RK4 against closed form, and energy drift
START_TOL = 1e-12       # initial row against the base point and frame

AD_INVARIANT = ("g0", "g1", "r+sl2", "r+so3")
H3_ISOTROPY = {"H3:h0": (3, "O(2,1) type"), "H3:h1": (1, "O(2) type"),
               "H3:h2": (1, "O(1,1) type")}


def _lines(text):
    return dict(line.split(": ", 1) for line in text.splitlines()
                if ": " in line and not line.startswith(" "))


# ---------------------------------------------------------------- invariants

@lru_cache(maxsize=None)
def source_invariants(name):
    """Series, center, commutator and invariant-form dimensions by sympy."""
    import sympy

    alg = exact.source_algebra(name)
    n = alg.dim
    c = alg.c
    e = [list(r) for r in exact.identity(n)]

    def span_dim_basis(vectors):
        if not vectors:
            return []
        M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                           for x in v] for v in vectors])
        R, piv = M.rref()
        return [[Q(int(x.p), int(x.q)) for x in R.row(i)] for i in range(len(piv))]

    lower = [e]
    for _ in range(n):
        lower.append(span_dim_basis([alg.bracket(e[i], b)
                                     for i in range(n) for b in lower[-1]]))
    upper = [[]]
    for _ in range(n):
        prev = upper[-1]
        if prev:
            ann = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                 for x in v] for v in prev]).nullspace()
            ann = [[Q(int(x.p), int(x.q)) for x in a] for a in ann]
        else:
            ann = e
        rows = [[sum((a[k] * c[i][j][k] for k in range(n)), Q(0))
                 for i in range(n)] for j in range(n) for a in ann]
        rows = [r for r in rows if any(r)]
        if rows:
            M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                               for x in r] for r in rows])
            upper.append(span_dim_basis(
                [[Q(int(x.p), int(x.q)) for x in v] for v in M.nullspace()]))
        else:
            upper.append(e)

    b = {}
    for i in range(n):
        for j in range(i, n):
            b[i, j] = b[j, i] = sympy.Symbol(f"b{i}{j}")
    r = [[[sympy.Rational(x.numerator, x.denominator) for x in row]
          for row in plane] for plane in c]
    eqs = [sum(r[i][j][l] * b[l, k] + r[i][k][l] * b[j, l] for l in range(n))
           for i in range(n) for j in range(n) for k in range(n)]
    unknowns = sorted(set(b.values()), key=str)
    A, _ = sympy.linear_eq_to_matrix(eqs, unknowns)
    return {
        "lower": [len(s) for s in lower],
        "upper": [len(s) for s in upper],
        "center": len(upper[1]),
        "C1": len(lower[1]),
        "forms": len(unknowns) - A.rank(),
        "abelian": not any(x for plane in c for row in plane for x in row),
    }


def check_invariants(inv, out, csv=None):
    src = inv.meta["source"]
    label = exact.SOURCES[src][3]
    lines = _lines(out)
    if lines.get("class") != label:
        return f"class {lines.get('class')!r}, expected {label!r}"
    if inv.kind == "classify":
        return None
    want = source_invariants(src)
    expect = {
        "dim": "4",
        "jacobi": "PASS",
        "abelian": "yes" if want["abelian"] else "no",
        "center dim": str(want["center"]),
        "C1 dim": str(want["C1"]),
        "lower central dims": str(want["lower"]),
        "upper central dims": str(want["upper"]),
        "invariant form space": str(want["forms"]),
    }
    for key, value in expect.items():
        if lines.get(key) != value:
            return f"{key}: {lines.get(key)!r}, expected {value!r}"
    metric = src in exact.METRIC_SOURCES
    if metric:
        m = re.fullmatch(r"yes, signature \((\d+),(\d+),(\d+)\)",
                         lines.get("nondegenerate ad-invariant form", ""))
        if not m or int(m[1]) + int(m[2]) != 4 or m[3] != "0":
            return "no nondegenerate signature reported on a metric source"
        if lines.get("series duality") != "PASS":
            return "series duality does not PASS on a metric source"
    else:
        if "no nondegenerate ad-invariant form" not in out.splitlines():
            return "a non-metric source reported a nondegenerate form"
        if int(lines["center dim"]) + int(lines["C1 dim"]) == 4:
            return "dim z + dim [g,g] = 4 on a non-metric source"
    return None


# ------------------------------------------------------------------ geometry

def _matrix_after(text, header, n):
    lines = text.splitlines()
    at = lines.index(header)
    return [[Q(x) for x in lines[at + 1 + r].strip(" []").split(", ")]
            for r in range(n)]


@lru_cache(maxsize=None)
def _source_geometry(src, metric):
    alg = exact.source_algebra(src)
    B = exact.source_metric(src, metric)
    R = exact.curvature(alg, B)
    flat = not any(x for a in R for b in a for c in b for x in c)
    eig = np.linalg.eigvalsh(np.array(B, dtype=float))
    sig = (int((eig > 0).sum()), int((eig < 0).sum()), 0)
    return exact.ricci_operator(alg, B, R), flat, sig


def check_geometry(inv, out, csv=None):
    if inv.kind == "isometry":
        return _check_isometry(inv, out)
    src, metric, P = inv.meta["source"], inv.meta["metric"], inv.meta["P"]
    n = len(P)
    ric_src, flat, sig = _source_geometry(src, metric)
    lines = _lines(out)
    if not lines.get("algebra", "").endswith(f", metric: {metric}"):
        return "wrong metric named"
    if lines.get("signature") != "({},{},{})".format(*sig):
        return f"signature {lines.get('signature')}, expected {sig}"
    adinv = src in AD_INVARIANT
    if lines.get("ad-invariant") != ("yes" if adinv else "no"):
        return "ad-invariance misreported"
    if adinv:
        for key, value in (("R = -1/4 ad([X,Y])", "PASS"),
                           ("nabla R = 0", "PASS"), ("isotropy dim", "3")):
            if lines.get(key) != value:
                return f"{key}: {lines.get(key)!r}, expected {value!r}"
    if lines.get("first Bianchi") != "PASS":
        return "first Bianchi does not PASS"
    if lines.get("flat") != ("YES" if flat else "NO"):
        return "flatness misreported"
    ric = exact.mat_mul(exact.mat_mul(exact.inverse(P), ric_src), P)
    if _matrix_after(out, "Ricci operator:", n) != ric:
        return "Ricci operator is not P^-1 Ric P of the source"
    m = re.fullmatch(r"FEASIBLE  c = (\S+)", lines.get("soliton", ""))
    if not m:
        return "soliton not FEASIBLE"
    c = Q(m[1])
    D = _matrix_after(out, "derivation D:", n)
    alg = exact.source_algebra(src).changed(P)
    bad = exact.derivation_failure(alg, D)
    if bad is not None:
        return f"soliton D is not a derivation (pair {bad})"
    if any(ric[a][b] != D[a][b] + (c if a == b else 0)
           for a in range(n) for b in range(n)):
        return "Ric != c Id + D"
    if metric in ("h1", "h2") and c != Q(3, 2):
        return f"soliton constant {c}, expected 3/2"
    return None


def _check_isometry(inv, out):
    model = inv.meta["model"]
    if model in H3_ISOTROPY:
        dim, kind = H3_ISOTROPY[model]
        want = f"isotropy algebra dim {dim} ({kind})"
        return None if out.strip() == want else f"{out.strip()!r}, expected {want!r}"
    n = inv.meta["samples"]
    want = f"family (isom): {n}/{n} samples PASS; isotropy dim 3"
    return None if out.splitlines()[0] == want else \
        f"{out.splitlines()[0]!r}, expected {want!r}"


# ----------------------------------------------------------------- geodesics

def _twist(t, model):
    """The block R(t) acting on the (x, y) plane."""
    if model == "G0":
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return np.diag([math.exp(t), math.exp(-t)])


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def closed_form(model, base, a, s):
    """Position and velocity of p exp(sX) for the bi-invariant metric.

    The one-parameter subgroup solves t' = a0, (x, y)' = R(t)(a1, a2) and
    z' = a3 + (x y' - y x')/2; left translation by p = (tp, vp, zp) is
    (tp + t, vp + R(tp) v, zp + z + vp x R(tp) v / 2).
    """
    a0, a1, a2, a3 = a
    th = a0 * s
    if model == "G0":
        alpha = complex(a1, a2)
        w = alpha * (np.exp(1j * th) - 1) / (1j * a0)
        dw = alpha * np.exp(1j * th)
        v, dv = np.array([w.real, w.imag]), np.array([dw.real, dw.imag])
        n2 = a1 * a1 + a2 * a2
        z = a3 * s + n2 / (2 * a0) * (s - math.sin(th) / a0)
        dz = a3 + n2 * (1 - math.cos(th)) / (2 * a0)
    else:
        v = np.array([a1 * (math.exp(th) - 1) / a0,
                      a2 * (1 - math.exp(-th)) / a0])
        dv = np.array([a1 * math.exp(th), a2 * math.exp(-th)])
        z = a3 * s + a1 * a2 / a0 * (s - math.sinh(th) / a0)
        dz = a3 + a1 * a2 / a0 * (1 - math.cosh(th))
    tp, vp, zp = base[0], np.array(base[1:3]), base[3]
    Rp = _twist(tp, model)
    rv, rdv = Rp @ v, Rp @ dv
    pos = [tp + th, *(vp + rv), zp + z + _cross(vp, rv) / 2]
    vel = [a0, *rdv, dz + _cross(vp, rdv) / 2]
    return np.array(pos), np.array(vel)


GRAM = {"G0": np.array([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]),
        "G1": np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
        "H3:h1": np.diag([1, 1, -1]),
        "H3:h2": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])}


def frame_coefficients(model, pos, vel):
    """Left-invariant frame coefficients of coordinate velocities (rows)."""
    if model.startswith("H3"):
        x, y = pos[:, 0], pos[:, 1]
        vx, vy, vz = vel.T
        return np.stack([vx, vy, vz - (x * vy - y * vx) / 2], axis=1)
    t, x, y = pos[:, 0], pos[:, 1], pos[:, 2]
    vt, vx, vy, vz = vel.T
    if model == "G0":
        c1 = np.cos(t) * vx + np.sin(t) * vy
        c2 = -np.sin(t) * vx + np.cos(t) * vy
    else:
        c1, c2 = np.exp(-t) * vx, np.exp(t) * vy
    return np.stack([vt, c1, c2, vz - (x * vy - y * vx) / 2], axis=1)


def frame_velocity(model, base, a):
    """Coordinate velocity of sum a_i X_i at the base point."""
    if model.startswith("H3"):
        (x, y, _), head, (vx, vy), c3 = base, [], a[:2], a[2]
    else:
        (t, x, y, _), head, c3 = base, [a[0]], a[3]
        vx, vy = _twist(t, model) @ np.array(a[1:3])
    return np.array(head + [vx, vy, c3 + (x * vy - y * vx) / 2])


def check_geodesic(inv, out, csv):
    meta = inv.meta
    model, base, a = meta["model"], meta["base"], meta["a"]
    text = csv.decode()
    lines = text.splitlines()
    if lines[0] != "s,t,x,y,z,vt,vx,vy,vz":
        return "bad CSV header"
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    nsteps = round(meta["s_end"] / meta["step"])
    if data.shape != (nsteps + 1, 9):
        return f"CSV shape {data.shape}, expected {(nsteps + 1, 9)}"
    s = data[:, 0]
    if np.max(np.abs(s - meta["step"] * np.arange(nsteps + 1))) > START_TOL:
        return "s column is not the step grid"
    h3 = model.startswith("H3")
    if h3:
        if np.any(data[:, 1] != 0) or np.any(data[:, 5] != 0):
            return "H3 rows must carry t = vt = 0"
        pos, vel = data[:, 2:5], data[:, 6:9]
    else:
        pos, vel = data[:, 1:5], data[:, 5:9]
    if np.max(np.abs(pos[0] - base)) > START_TOL or \
            np.max(np.abs(vel[0] - frame_velocity(model, base, a))) > START_TOL:
        return "first row is not (base, frame velocity)"
    coeffs = frame_coefficients(model, pos, vel)
    energy = np.einsum("ri,ij,rj->r", coeffs, GRAM[model], coeffs)
    drift = float(np.max(np.abs(energy - energy[0])))
    if drift > GEODESIC_TOL:
        return f"energy drift {drift:.2e} > {GEODESIC_TOL}"
    info = _lines(out)
    if info.get("samples") != f"{nsteps + 1}  step: {meta['step']}":
        return f"samples line {info.get('samples')!r}"
    if h3:
        return None
    worst = 0.0
    for k in range(len(s)):
        p, v = closed_form(model, base, a, s[k])
        worst = max(worst, float(np.max(np.abs(pos[k] - p))),
                    float(np.max(np.abs(vel[k] - v))))
    if worst > GEODESIC_TOL:
        return f"deviation from the closed form {worst:.2e} > {GEODESIC_TOL}"
    reported = float(info.get("max deviation from closed form", "nan"))
    if not reported <= GEODESIC_TOL:
        return f"reported deviation {reported} > {GEODESIC_TOL}"
    return None


CHECKERS = {"invariants": check_invariants, "geometry": check_geometry,
            "geodesics": check_geodesic}
