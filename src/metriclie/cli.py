"""Command-line front end.

Verbs: report, geometry, geodesic, isometry, classify.  Algebras come from
the catalog or from JSON files with the schema

    { "dim": 4,
      "brackets": [[i, j, k, "p/q"], ...],
      "metrics": { "name": [[i, j, "p/q"], ...] } }

(0-based indices, rationals as "p/q" strings or integers; the antisymmetric
bracket partners are implied).  Exit codes are a stable contract:
0 ok, 1 invalid argument, 2 parse failure, 3 Jacobi failure, 4 degenerate
metric, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

import numpy as np

from . import catalog
from .algebra import (LieAlgebra, center, commutator, is_abelian, jacobi_check,
                      lower_central, upper_central)
from .base import (DegenerateMetricError, InputError, JacobiError,
                   MetricLieError, NumericalError, ParseError)
from .connection import (ahc_isometry_check, bianchi_check,
                         biinvariant_curvature_check, curvature, h3_isotropy,
                         is_locally_symmetric, isometry_family, levi_civita,
                         linearized_isotropy_dim, ricci_operator, soliton_solve)
from .forms import (SymBilinearForm, has_nondegenerate_invariant_form,
                    is_ad_invariant, series_duality_check, signature)
from .groups import GeodesicSpec, GroupElement, group_identity
from .integrate import (chart, compare_to_closed_form, initial_velocity,
                        integrate_geodesic, write_trajectory_csv)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_JACOBI = 3
EXIT_DEGENERATE = 4
EXIT_NUMERIC = 5
# digits a numerator or denominator in an algebra file may have: Python's
# default limit on int/str conversion, which JSON integers already meet
MAX_DIGITS = 4300
_RATIONAL = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?")


def _parse_rational(value):
    """An integer, or a string of an optional sign, digits and an optional
    "/digits"; booleans, floats, exponents and longer numbers are refused."""
    try:
        if type(value) is int or (type(value) is str
                                   and _RATIONAL.fullmatch(value)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"not a rational value: {value!r}")


def _check_indices(path, where, indices):
    if not all(type(i) is int for i in indices):
        raise ParseError(f"{path}: {where} indices must be integers")


def load_algebra_file(path: str):
    """Parse an AlgebraFile; Jacobi is verified before anything is returned."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno)
    except (ValueError, RecursionError) as exc:
        # not UTF-8, nested too deep, or an integer with too many digits
        raise ParseError(f"{path}: {exc}")
    if not isinstance(data, dict) or "dim" not in data:
        raise ParseError(f"{path}: missing 'dim'")
    dim = data["dim"]
    if type(dim) is not int or dim <= 0:
        raise ParseError(f"{path}: 'dim' must be a positive integer")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError(f"{path}: 'brackets' must be a list")
    entries = []
    for idx, item in enumerate(brackets):
        if not (isinstance(item, list) and len(item) == 4):
            raise ParseError(f"{path}: brackets[{idx}] must be [i, j, k, value]")
        i, j, k, value = item
        _check_indices(path, f"brackets[{idx}]", (i, j, k))
        entries.append((i, j, k, _parse_rational(value)))
    try:
        g = LieAlgebra.from_brackets(dim, entries,
                                     name=os.path.basename(path))
    except InputError as exc:
        raise ParseError(f"{path}: {exc}")
    jac = jacobi_check(g)
    if not jac:
        raise JacobiError(f"{path}: Jacobi identity fails at basis triple "
                          f"{jac.witness}", triple=jac.witness)
    metric_rows = data.get("metrics", {})
    if not isinstance(metric_rows, dict):
        raise ParseError(f"{path}: 'metrics' must be an object")
    metrics = {}
    for mname, rows in metric_rows.items():
        if not isinstance(rows, list):
            raise ParseError(f"{path}: metrics[{mname}] must be a list")
        sparse = []
        for idx, item in enumerate(rows):
            if not (isinstance(item, list) and len(item) == 3):
                raise ParseError(
                    f"{path}: metrics[{mname}][{idx}] must be [i, j, value]")
            i, j, value = item
            _check_indices(path, f"metrics[{mname}][{idx}]", (i, j))
            sparse.append((i, j, _parse_rational(value)))
        try:
            metrics[mname] = SymBilinearForm.from_entries(dim, sparse)
        except InputError as exc:
            raise ParseError(f"{path}: metric {mname}: {exc}")
    return g, metrics


def resolve_algebra(target: str) -> catalog.CatalogEntry:
    """Catalog names win over paths; a '--' prefix forces path lookup."""
    force_path = target.startswith("--")
    name = target[2:] if force_path else target
    if not force_path:
        try:
            return catalog.get(name)
        except InputError:
            pass
    g, metrics = load_algebra_file(name)  # file metrics claim no invariance
    return catalog.CatalogEntry(g, left_metrics=metrics)


def cmd_report(args, out) -> int:
    g = resolve_algebra(args.target).algebra
    name = g.name or args.target
    out.write(f"algebra: {name}\n")
    out.write(f"dim: {g.dim}\n")
    out.write(f"jacobi: {'PASS' if jacobi_check(g) else 'FAIL'}\n")
    out.write(f"abelian: {'yes' if is_abelian(g) else 'no'}\n")
    out.write(f"center dim: {center(g).dim}\n")
    out.write(f"C1 dim: {commutator(g).dim}\n")
    lower_dims = [lower_central(g, r).dim for r in range(g.dim + 1)]
    upper_dims = [upper_central(g, r).dim for r in range(g.dim + 1)]
    out.write(f"lower central dims: {lower_dims}\n")
    out.write(f"upper central dims: {upper_dims}\n")
    search = has_nondegenerate_invariant_form(g)
    out.write(f"invariant form space: {search.space_dim}\n")
    if search.found:
        sig = signature(search.witness)
        out.write(f"nondegenerate ad-invariant form: yes, signature {sig}\n")
        duality = series_duality_check(g, search.witness)
        out.write(f"series duality: {'PASS' if duality else f'FAIL ({duality})'}\n")
    else:
        out.write("no nondegenerate ad-invariant form\n")
    if g.dim == 4:
        out.write(f"class: {catalog.classify_dim4_metric(g)}\n")
    return EXIT_OK


def cmd_classify(args, out) -> int:
    g = resolve_algebra(args.target).algebra
    if g.dim != 4:
        raise InputError("classification is defined for dimension 4")
    out.write(f"class: {catalog.classify_dim4_metric(g)}\n")
    return EXIT_OK


def _fmt_matrix(m) -> str:
    return "\n".join("  [" + ", ".join(str(x) for x in row) + "]" for row in m)


def cmd_geometry(args, out) -> int:
    entry = resolve_algebra(args.target)
    g = entry.algebra
    metric_name = args.metric_flag or args.metric
    if metric_name is None:
        raise InputError("geometry needs a metric (positional or --metric)")
    B = catalog.get_metric(entry, metric_name)
    if not B.is_nondegenerate():
        rad = B.radical()
        raise DegenerateMetricError(
            f"metric {metric_name} is degenerate; radical: {rad}", radical=rad)
    out.write(f"algebra: {g.name or args.target}, metric: {metric_name}\n")
    out.write(f"signature: {signature(B)}\n")
    conn = levi_civita(g, B)
    adinv = is_ad_invariant(g, B)
    out.write(f"ad-invariant: {'yes' if adinv else 'no'}\n")
    R = curvature(conn)
    if adinv:
        bi = biinvariant_curvature_check(conn, R)
        out.write(f"R = -1/4 ad([X,Y]): {'PASS' if bi else f'FAIL {bi.witness}'}\n")
        sym = is_locally_symmetric(conn)
        out.write(f"nabla R = 0: {'PASS' if sym else 'FAIL'}\n")
        out.write(f"isotropy dim: {linearized_isotropy_dim(g, B)}\n")
    bianchi = bianchi_check(R)
    out.write(f"first Bianchi: {'PASS' if bianchi else 'FAIL'}\n")
    out.write(f"flat: {'YES' if R.is_zero() else 'NO'}\n")
    out.write("Ricci operator:\n" + _fmt_matrix(ricci_operator(conn)) + "\n")
    sol = soliton_solve(conn)
    if sol.feasible:
        out.write(f"soliton: FEASIBLE  c = {sol.c}\n")
        out.write("derivation D:\n" + _fmt_matrix(sol.derivation) + "\n")
    else:
        out.write(f"soliton: INFEASIBLE  (inconsistent row: {sol.inconsistent_row})\n")
    return EXIT_OK


def _parse_floats(text: str, want: int, what: str):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"{what} must be comma-separated numbers")
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"{what} must be finite numbers")
    if len(values) != want:
        raise InputError(f"{what} needs {want} comma-separated numbers")
    return values


def cmd_geodesic(args, out, err) -> int:
    model_arg = args.model
    if model_arg in ("G0", "G1"):
        model, chart_name = model_arg, model_arg.lower()
    elif model_arg in ("H3:h1", "H3:h2", "H3(h1)", "H3(h2)"):
        model, chart_name = "H3", model_arg[3:].strip(":()")
    else:
        raise InputError("model must be G0, G1, H3:h1 or H3:h2")
    ncoord = 3 if model == "H3" else 4
    a = _parse_floats(args.a, ncoord, "frame coefficients")
    base = group_identity(model)
    if args.base:
        base = GroupElement(model, _parse_floats(args.base, ncoord, "--base"))
    ch = chart(chart_name)
    v0 = initial_velocity(model, base, a)
    traj = integrate_geodesic(ch, [float(c) for c in base.coords], v0,
                              args.s_end, args.step)
    if traj.aborted:
        raise NumericalError("integration aborted on non-finite state")
    dev = None
    if model in ("G0", "G1"):
        spec = GeodesicSpec(model, base, a)
        grid = np.linspace(0.0, args.s_end, 21)
        dev = compare_to_closed_form(spec, traj, grid)
    if args.out:
        with open(args.out, "w") as fh:
            write_trajectory_csv(traj, fh)
        sink = out
    else:
        write_trajectory_csv(traj, out)
        sink = err
    if dev is not None:
        sink.write(f"max deviation from closed form: {dev:.3e}\n")
    sink.write(f"samples: {len(traj)}  step: {args.step}\n")
    return EXIT_OK


def _rational_circle(rng: random.Random):
    u = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    den = 1 + u * u
    return ((1 - u * u) / den, 2 * u / den)


def _sample_family(which: str, rng: random.Random):
    sign = rng.choice((1, -1))
    w = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
         Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if which == "g0":
        c, s = _rational_circle(rng)
        if rng.random() < 0.5:
            At = ((c, -s), (s, c))
        else:
            At = ((c, s), (s, -c))
    else:
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        if rng.random() < 0.5:
            At = ((lam, Fraction(0)), (Fraction(0), 1 / lam))
        else:
            At = ((Fraction(0), lam), (1 / lam, Fraction(0)))
    return isometry_family(which, sign, w, At)


def cmd_isometry(args, out) -> int:
    if args.samples < 0:
        raise InputError("--samples must be non-negative")
    target = args.model
    if target in ("G0", "G1"):
        which = target.lower()
        entry = catalog.get(which)
        g, B = entry.algebra, catalog.get_metric(entry, "gmatrix0")
        rng = random.Random(args.seed)
        passed = 0
        for _ in range(args.samples):
            A = _sample_family(which, rng)
            if ahc_isometry_check(g, B, A):
                passed += 1
        dim = linearized_isotropy_dim(g, B)
        out.write(f"family (isom): {passed}/{args.samples} samples PASS;"
                  f" isotropy dim {dim}\n")
        group = "O(2)" if which == "g0" else "O(1,1)"
        comps = 4 if which == "g0" else 8
        out.write(f"isotropy group: ({{1,-1}} x {group}) acting on R^2 by"
                  f" the block family; {comps} components\n")
        return EXIT_OK
    if target in ("H3:h0", "H3:h1", "H3:h2"):
        rep = h3_isotropy(catalog.get_metric(catalog.get("h3"), target[3:]))
        out.write(f"isotropy algebra dim {rep.dim} ({rep.kind})\n")
        return EXIT_OK
    raise InputError("model must be G0, G1, H3:h0, H3:h1 or H3:h2")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="metriclie",
        description="metric Lie algebras and the geometry of H3, G0, G1")
    sub = p.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("report", help="algebraic invariants of an algebra")
    rp.add_argument("target", help="catalog name or JSON file")

    cp = sub.add_parser("classify", help="place a 4-dim algebra in the"
                        " ad-invariant-metric list")
    cp.add_argument("target")

    gp = sub.add_parser("geometry", help="curvature, solitons, isotropy")
    gp.add_argument("target")
    gp.add_argument("metric", nargs="?", default=None)
    gp.add_argument("--metric", dest="metric_flag", default=None,
                    help="metric name (alternative to the positional)")

    dp = sub.add_parser("geodesic", help="integrate a geodesic, emit CSV")
    # values such as -1.2,0.5,0,0 and --base -0.5,0,0,0 are values, not
    # options: argparse's default matcher takes only a lone negative number
    dp._negative_number_matcher = re.compile(r"^-\.?\d")
    dp.add_argument("model", help="G0, G1, H3:h1 or H3:h2")
    dp.add_argument("a", help="frame coefficients a0,a1,a2,a3 (3 for H3)")
    dp.add_argument("--base", default=None, help="base point coordinates")
    dp.add_argument("--s-end", type=float, default=2.0)
    dp.add_argument("--step", type=float, default=1e-3)
    dp.add_argument("--out", default=None, help="CSV path (default stdout)")

    ip = sub.add_parser("isometry", help="isometry family checks and"
                        " isotropy dimensions")
    ip.add_argument("model", help="G0, G1, H3:h0, H3:h1 or H3:h2")
    ip.add_argument("--samples", type=int, default=200)
    ip.add_argument("--seed", type=int, default=0)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out, err = sys.stdout, sys.stderr
    try:
        if args.command == "report":
            return cmd_report(args, out)
        if args.command == "classify":
            return cmd_classify(args, out)
        if args.command == "geometry":
            return cmd_geometry(args, out)
        if args.command == "geodesic":
            return cmd_geodesic(args, out, err)
        if args.command == "isometry":
            return cmd_isometry(args, out)
        raise InputError(f"unknown command {args.command}")
    except ParseError as exc:
        line = f" (line {exc.line})" if exc.line else ""
        err.write(f"error: {exc}{line}\n")
        return EXIT_PARSE
    except JacobiError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_JACOBI
    except DegenerateMetricError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_DEGENERATE
    except NumericalError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except MetricLieError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        # str() of a rational past sys.get_int_max_str_digits()
        if "integer string conversion" not in str(exc):
            raise
        err.write("error: a result has too many digits to print\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
