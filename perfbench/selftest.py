"""Show that every output check accepts metriclie's output and rejects a
corrupted copy of it.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload it runs a sample of
seed-0 invocations through `metriclie.cli.main`, requires the checker to
pass each one untouched, then applies each corruption below to every output
it fits and requires the checker to reject it with the named reason.  Exits
1 if a corruption got through or an untouched output was rejected.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
from fractions import Fraction as Q

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import exact  # noqa: E402
from checks import CHECKERS  # noqa: E402
from run import invoke  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def set_line(key, value):
    """Replace the value of the `key: value` line, if there is one."""
    line = re.compile(rf"^{re.escape(key)}: .*$", flags=re.M)

    def corrupt(inv, out, csv):
        if not line.search(out):
            return None
        text = value(inv) if callable(value) else value
        return line.sub(lambda _: f"{key}: {text}", out, count=1), csv
    return corrupt


def bump_series(key):
    def corrupt(inv, out, csv):
        m = re.search(rf"^{re.escape(key)}: \[(\d+)", out, flags=re.M)
        if not m:
            return None
        return out[:m.start(1)] + str(int(m[1]) + 1) + out[m.end(1):], csv
    return corrupt


def _matrix(out, header):
    lines = out.splitlines()
    at = lines.index(header) + 1
    end = at
    while end < len(lines) and lines[end].startswith("  ["):
        end += 1
    rows = [[Q(x) for x in ln.strip(" []").split(", ")] for ln in lines[at:end]]
    return lines, at, rows


def _put_matrix(lines, at, rows):
    lines[at:at + len(rows)] = ["  [" + ", ".join(str(x) for x in r) + "]"
                                for r in rows]
    return "\n".join(lines) + "\n"


def bump_ricci(inv, out, csv):
    if "Ricci operator:" not in out:
        return None
    lines, at, rows = _matrix(out, "Ricci operator:")
    rows[0][-1] += 1
    return _put_matrix(lines, at, rows), csv


def shift_soliton(inv, out, csv):
    """c + 1 and D - Id: Ric = c Id + D still holds, but D - Id is a
    derivation only of an abelian algebra."""
    m = re.search(r"^soliton: FEASIBLE  c = (\S+)$", out, flags=re.M)
    if not m:
        return None
    out = out[:m.start(1)] + str(Q(m[1]) + 1) + out[m.end(1):]
    lines, at, rows = _matrix(out, "derivation D:")
    for i, row in enumerate(rows):
        row[i] -= 1
    return _put_matrix(lines, at, rows), csv


def fewer_passes(inv, out, csv):
    n = inv.meta.get("samples")
    if n is None:
        return None
    return out.replace(f"{n}/{n} samples", f"{n - 1}/{n} samples", 1), csv


def other_h3_dim(inv, out, csv):
    if inv.kind != "isometry" or "samples" in inv.meta:
        return None
    return re.sub(r"dim (\d)", lambda m: f"dim {int(m[1]) % 3 + 1}", out), csv


def _csv_rows(csv):
    lines = csv.decode().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _csv_bytes(header, rows):
    return ("\n".join([header] + [",".join(r) for r in rows]) + "\n").encode()


def nudge_position(inv, out, csv):
    """Move one mid-trajectory position by 1e-6 (and nothing else)."""
    header, rows = _csv_rows(csv)
    k, col = len(rows) // 2, 3
    rows[k][col] = repr(float(rows[k][col]) + 1e-6)
    return out, _csv_bytes(header, rows)


def stretch_velocity(inv, out, csv):
    """Scale the velocity of the second half by 1 + 1e-6."""
    header, rows = _csv_rows(csv)
    for row in rows[len(rows) // 2:]:
        row[5:] = [repr(float(x) * (1 + 1e-6)) for x in row[5:]]
    return out, _csv_bytes(header, rows)


def drop_last_row(inv, out, csv):
    header, rows = _csv_rows(csv)
    return out, _csv_bytes(header, rows[:-1])


def worse_reported_deviation(inv, out, csv):
    if "max deviation from closed form" not in out:
        return None
    return set_line("max deviation from closed form", "1.000e-06")(inv, out, csv)


def _wrong_class(inv):
    return "R4" if exact.SOURCES[inv.meta["source"]][3] != "R4" else "g1"


# workload -> [(what the corruption does, the reason the checker must give,
#               corruption)]
CORRUPTIONS = {
    "invariants": [
        ("wrong class label", "class", set_line("class", _wrong_class)),
        ("center dim changed", "center dim", set_line("center dim", "9")),
        ("C1 dim changed", "C1 dim", set_line("C1 dim", "9")),
        ("lower series changed", "lower central", bump_series("lower central dims")),
        ("upper series changed", "upper central", bump_series("upper central dims")),
        ("invariant form dim wrong", "invariant form space",
         set_line("invariant form space", "0")),
        ("series duality FAIL", "series duality",
         set_line("series duality", "FAIL (0, 1)")),
        ("form claimed on a non-metric source", "nondegenerate",
         lambda inv, out, csv: (out.replace(
             "no nondegenerate ad-invariant form",
             "nondegenerate ad-invariant form: yes, signature (2,2,0)"), csv)
         if "no nondegenerate ad-invariant form" in out else None),
    ],
    "geometry": [
        ("R = -1/4 ad FAIL", "R = -1/4", set_line("R = -1/4 ad([X,Y])", "FAIL (0, 1, 2)")),
        ("nabla R FAIL", "nabla R", set_line("nabla R = 0", "FAIL")),
        ("isotropy dim 2", "isotropy dim", set_line("isotropy dim", "2")),
        ("Bianchi FAIL", "Bianchi", set_line("first Bianchi", "FAIL")),
        ("flatness flipped", "flat", set_line(
            "flat", lambda inv: "NO" if inv.meta["metric"] == "h0" else "YES")),
        ("one Ricci entry + 1", "P^-1 Ric P", bump_ricci),
        ("c + 1 and D - Id", "not a derivation", shift_soliton),
        ("soliton INFEASIBLE", "not FEASIBLE",
         set_line("soliton", "INFEASIBLE  (inconsistent row: 0)")),
        ("signature changed", "signature", set_line("signature", "(0,0,0)")),
        ("isometry sample failed", "samples PASS", fewer_passes),
        ("H3 isotropy dimension changed", "isotropy algebra", other_h3_dim),
    ],
    "geodesics": [
        ("one position + 1e-6", "", nudge_position),
        ("late velocities x (1 + 1e-6)", "energy drift", stretch_velocity),
        ("last row dropped", "CSV shape", drop_last_row),
        ("reported deviation 1e-6", "reported deviation", worse_reported_deviation),
        ("samples line changed", "samples line", set_line("samples", "7  step: 1")),
    ],
}


def sample(name, workdir):
    """One invocation per (verb, source or model), from seed 0, without the
    ten-second 6-dim grid sources."""
    wl = WORKLOADS[name](0, workdir)
    seen, out = set(), []
    for inv in wl.round(0):
        key = (inv.kind, inv.meta.get("source"), inv.meta.get("metric"),
               inv.meta.get("model"))
        if key in seen or inv.meta.get("source") in exact.GRID6_SOURCES:
            continue
        seen.add(key)
        out.append(inv)
    return out


def main():
    from metriclie import cli
    bad = 0
    workdir = os.path.join(HERE, "out", "selftest")
    for name, corruptions in CORRUPTIONS.items():
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        check = CHECKERS[name]
        outputs = []
        for inv in sample(name, workdir):
            error, out = invoke(cli, inv.argv)
            csv = None
            if "path" in inv.meta:
                with open(inv.meta["path"], "rb") as fh:
                    csv = fh.read()
            reason = error or check(inv, out, csv)
            if reason:
                bad += 1
                print(f"FAIL {name}: untouched output of {inv.argv} rejected:"
                      f" {reason}")
            outputs.append((inv, out, csv))
        for what, want, corrupt in corruptions:
            tried = missed = 0
            for inv, out, csv in outputs:
                changed = corrupt(inv, out, csv)
                if changed is None or changed == (out, csv):
                    continue
                tried += 1
                try:
                    reason = check(inv, *changed)
                except Exception as exc:  # noqa: BLE001  (a crash is no verdict)
                    reason = f"checker raised {type(exc).__name__}: {exc}"
                if not reason or want not in reason or "raised" in reason:
                    missed += 1
                    print(f"FAIL {name}: {what} on {inv.argv[:3]} gave"
                          f" {reason!r}, expected a reason with {want!r}")
            if not tried:
                missed += 1
                print(f"FAIL {name}: {what} fits no sampled output")
            elif not missed:
                print(f"ok   {name}: {what} rejected on {tried} outputs")
            bad += missed
        print(f"ok   {name}: {len(outputs)} untouched outputs checked")
    shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
