import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from metriclie import catalog, cli, forms
from metriclie.algebra import LieAlgebra, change_of_basis
from metriclie.base import (DegenerateMetricError, InputError, JacobiError,
                            MetricLieError, NumericalError, ParseError)
from metriclie.cli import main
from metriclie.groups import GeodesicSpec, GroupElement
from metriclie.integrate import compare_to_closed_form, integrate_spec
from metriclie.linalg import determinant


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- report --------------------------------------------------------------

def test_report_g0(capsys):
    code, out, _ = run(capsys, "report", "g0")
    assert code == 0
    assert "center dim: 1" in out
    assert "C1 dim: 3" in out
    assert "invariant form space: 2" in out
    assert "class: oscillator_g0" in out
    assert "series duality: PASS" in out


def test_report_r4(capsys):
    code, out, _ = run(capsys, "report", "r4")
    assert code == 0
    assert "abelian: yes" in out
    assert "invariant form space: 10" in out


def test_report_aff(capsys):
    code, out, _ = run(capsys, "report", "aff")
    assert code == 0
    assert "no nondegenerate ad-invariant form" in out


def test_report_searches_forms_once(capsys, monkeypatch, tmp_path):
    # a fresh file algebra: a catalog algebra may already hold its search
    calls = {"space": 0, "search": 0}
    space, search = forms.invariant_form_space, forms._search_span

    def counted_space(g):
        calls["space"] += 1
        return space(g)

    def counted_search(span):
        calls["search"] += 1
        return search(span)

    monkeypatch.setattr(forms, "invariant_form_space", counted_space)
    monkeypatch.setattr(forms, "_search_span", counted_search)
    path = tmp_path / "g1.json"
    path.write_text(json.dumps({"dim": 4, "brackets": [
        [0, 1, 1, 1], [0, 2, 2, -1], [1, 2, 3, 1]]}))
    code, out, _ = run(capsys, "report", str(path))
    assert code == 0 and "class: g1" in out
    assert "invariant form space: 2" in out
    assert calls == {"space": 1, "search": 1}


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "g1")
    assert code == 0 and "class: g1" in out


def test_classify_of_another_dimension_exits_1(capsys):
    # the classifier's own dimension check is the one the verb reports
    assert run(capsys, "classify", "h3") == (
        1, "", "error: classification is defined for dimension 4\n")


def test_geometry_metric_flag(capsys):
    code, out, _ = run(capsys, "geometry", "g0", "--metric", "gmatrix0")
    assert code == 0 and "R = -1/4 ad([X,Y]): PASS" in out


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv in (["classify", "g1"], ["report", "g0"], ["isometry", "H3:h1"],
                 ["geometry", "h3", "h1"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert calls == [1]


@pytest.mark.parametrize("error, code", [
    (MetricLieError, 1), (InputError, 1), (ParseError, 2), (JacobiError, 3),
    (DegenerateMetricError, 4), (NumericalError, 5),
])
def test_each_error_class_carries_its_exit_code(capsys, monkeypatch, error,
                                                code):
    def fail(target):
        raise error(f"{target} failed")

    monkeypatch.setattr(cli, "resolve_algebra", fail)
    assert error.exit_code == code
    assert run(capsys, "report", "g0") == (code, "", "error: g0 failed\n")
    assert run(capsys, "classify", "g1") == (code, "", "error: g1 failed\n")


def test_parse_error_ends_in_its_line():
    assert str(ParseError("bad", line=3)) == "bad (line 3)"
    assert str(ParseError("bad")) == "bad"


def test_double_dash_forces_file_lookup(capsys):
    # "-- --g0" bypasses the catalog; there is no file named g0 here
    code, _, err = run(capsys, "report", "--", "--g0")
    assert code == 2
    assert "cannot read" in err


# --- file input ----------------------------------------------------------

def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_report_from_file(capsys, tmp_path):
    path = write_json(tmp_path, "osc.json", {
        "dim": 4,
        "brackets": [[0, 1, 2, "1"], [0, 2, 1, "-1"], [1, 2, 3, "1"]],
        "metrics": {"B": [[0, 3, "1"], [1, 1, "1"], [2, 2, "1"]]},
    })
    code, out, _ = run(capsys, "report", path)
    assert code == 0
    assert "class: oscillator_g0" in out


def test_geometry_metric_from_file(capsys, tmp_path):
    path = write_json(tmp_path, "osc.json", {
        "dim": 4,
        "brackets": [[0, 1, 2, "1"], [0, 2, 1, "-1"], [1, 2, 3, "1"]],
        "metrics": {"B": [[0, 3, "1"], [1, 1, "1"], [2, 2, "1"]]},
    })
    code, out, _ = run(capsys, "geometry", path, "B")
    assert code == 0
    assert "R = -1/4 ad([X,Y]): PASS" in out


def test_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, "report", str(path))
    assert code == 2
    assert "line" in err


def test_schema_error_exit_2(capsys, tmp_path):
    path = write_json(tmp_path, "bad.json", {"dim": 3, "brackets": [[0, 1, 2]]})
    code, _, err = run(capsys, "report", str(path))
    assert code == 2


def test_jacobi_error_exit_3(capsys, tmp_path):
    path = write_json(tmp_path, "nonjacobi.json", {
        "dim": 4,
        "brackets": [[0, 1, 2, "1"], [0, 2, 1, "-1"], [1, 2, 3, "1"],
                     [1, 2, 1, "1"]],
    })
    code, _, err = run(capsys, "report", path)
    assert code == 3
    assert err == f"error: {path}: Jacobi identity fails at basis triple (0, 1, 2)\n"


def test_antisymmetry_conflict_is_parse_error(capsys, tmp_path):
    path = write_json(tmp_path, "conflict.json", {
        "dim": 3,
        "brackets": [[0, 1, 2, "1"], [1, 0, 2, "1"]],
    })
    code, _, err = run(capsys, "report", path)
    assert code == 2


@pytest.mark.parametrize("payload", [
    {"dim": 3, "brackets": [[0, 1, 2, 1]], "metrics": []},
    {"dim": 3, "brackets": [["0", 1, 2, 1]]},
    {"dim": 3, "brackets": [[0, 1, 2, 1]], "metrics": {"B": [[0, True, 1]]}},
    {"dim": 3, "brackets": 5},
    {"dim": 3, "metrics": {"B": 5}},
    {"dim": True},
    {"dim": 2, "brackets": [[0, 1, 1, True]]},
    {"dim": 2, "metrics": {"B": [[0, 0, False]]}},
    {"dim": 2, "brackets": [[0, 1, 1, 0.5]]},
])
def test_malformed_schema_exit_2(capsys, tmp_path, payload):
    path = write_json(tmp_path, "bad.json", payload)
    code, _, err = run(capsys, "report", path)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("raw", [
    b'\xff\xfe{"dim": 2}',
    b"[" * 100000 + b"]" * 100000,
    b'{"dim": 2, "brackets": [[0, 1, 1, ' + b"7" * 5000 + b"]]}",
], ids=["not-utf8", "nested-too-deep", "integer-too-long"])
def test_unreadable_file_exit_2(capsys, tmp_path, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, "report", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload, message", [
    ({"dim": 2, "brackets": [[0, 1, 1, 1], [0, 1, True]]},
     "{path}: brackets[1] must be [i, j, k, value]"),
    ({"dim": 2, "brackets": [[0, "1", 1, 1]]},
     "{path}: brackets[0] indices must be integers"),
    ({"dim": 2, "brackets": [[0, 1, 1, True]]},
     "not a rational value: True ({path}: brackets[0])"),
    ({"dim": 2, "metrics": {"B": [[0, 0]]}},
     "{path}: metrics[B][0] must be [i, j, value]"),
    ({"dim": 2, "metrics": {"B": [[0, 0, 1], [0, 0.5, 1]]}},
     "{path}: metrics[B][1] indices must be integers"),
    ({"dim": 2, "metrics": {"B": [[0, 0, 1], [1, 1, "1e3"]]}},
     "not a rational value: '1e3' ({path}: metrics[B][1])"),
    ({"dim": 2, "metrics": {"B": {"0": 1}}}, "{path}: metrics[B] must be a list"),
], ids=["bracket-shape", "bracket-index", "bracket-value", "metric-shape",
        "metric-index", "metric-value", "metric-list"])
def test_entry_errors_name_the_file_and_the_row(capsys, tmp_path, payload,
                                                message):
    path = write_json(tmp_path, "rows.json", payload)
    code, out, err = run(capsys, "report", path)
    assert code == 2 and out == ""
    assert err == f"error: {message.format(path=path)}\n"


def test_algebra_file_dimension_is_bounded(capsys, tmp_path):
    # the abelian algebra of the largest admitted dimension loads, so
    # classify gets as far as its own dimension check
    code, out, err = run(capsys, "classify",
                         write_json(tmp_path, "r16.json", {"dim": 16}))
    assert code == 1 and out == ""
    assert err == "error: classification is defined for dimension 4\n"
    path = write_json(tmp_path, "r17.json", {"dim": 17})
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", path)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: {path}: 'dim' must be at most 16\n"


LONGEST = "9" * cli.MAX_DIGITS


@pytest.mark.parametrize("value", [
    "1e2000000", "1e5000", "1E3", "0.5", "1.", " 1", "1 ", "1_000", "3/-4",
    "--1", "+", "/2", "\u0663", "9" + LONGEST, "1/9" + LONGEST,
])
def test_value_outside_the_documented_forms_exit_2(capsys, tmp_path, value):
    path = write_json(tmp_path, "exp.json",
                      {"dim": 2, "brackets": [[0, 1, 1, value]]})
    start = time.perf_counter()
    code, out, err = run(capsys, "report", path)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: not a rational value: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["+3", "-3/4", "0/5", LONGEST,
                                   f"-{LONGEST}/{LONGEST}"])
def test_values_in_the_documented_forms_parse(value):
    assert cli._parse_rational(value) == Fraction(value)


@pytest.mark.parametrize("payload, code, lines", [
    # Ric = -1/a Id here, so the longest value the parser takes still prints
    ({"dim": 2, "brackets": [[0, 1, 1, 1]],
      "metrics": {"B": [[0, 0, LONGEST], [1, 1, "1"]]}}, 0, 0),
    ({"dim": 2, "brackets": [[0, 1, 1, 1]],
      "metrics": {"B": [[0, 0, "1e5000"], [1, 1, "1"]]}}, 2, 1),
    # on h3 the Ricci operator holds 1/a^2: more digits than str() allows
    ({"dim": 3, "brackets": [[0, 1, 2, 1]],
      "metrics": {"B": [[0, 0, LONGEST], [1, 1, LONGEST], [2, 2, 1]]}}, 5, 1),
])
def test_long_values_keep_the_exit_code_contract(capsys, tmp_path, payload,
                                                 code, lines):
    path = write_json(tmp_path, "big.json", payload)
    start = time.perf_counter()
    got, out, err = run(capsys, "geometry", path, "B")
    assert time.perf_counter() - start < 1
    assert got == code and err.count("\n") == lines
    assert code == 0 or err.startswith("error: ")
    if code == 5:
        assert err == "error: a result has too many digits to print\n"


# --- geometry ------------------------------------------------------------

def test_geometry_g0(capsys):
    code, out, _ = run(capsys, "geometry", "g0", "gmatrix0")
    assert code == 0
    assert "R = -1/4 ad([X,Y]): PASS" in out
    assert "nabla R = 0: PASS" in out
    assert "isotropy dim: 3" in out
    assert "flat: NO" in out


def test_geometry_h3_h0_flat(capsys):
    code, out, _ = run(capsys, "geometry", "h3", "h0")
    assert code == 0
    assert "flat: YES" in out


def test_geometry_h3_h1_soliton(capsys):
    code, out, _ = run(capsys, "geometry", "h3", "h1")
    assert code == 0
    assert "soliton: FEASIBLE" in out
    assert "c = 3/2" in out


def test_geometry_infeasible_soliton_prints_its_witness(capsys, tmp_path):
    # the squashed sphere, so(3) with diag(2, 1, 1): not a soliton
    path = write_json(tmp_path, "so3.json", {
        "dim": 3, "brackets": [[0, 1, 2, 1], [1, 2, 0, 1], [2, 0, 1, 1]],
        "metrics": {"sq": [[0, 0, 2], [1, 1, 1], [2, 2, 1]]}})
    code, out, err = run(capsys, "geometry", path, "sq")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == (
        "soliton: INFEASIBLE  (entry 2 of [e0, e1] forces c = 1; "
        "Ric - c Id fails the derivation identity at entry 0 of [e1, e2])")
    assert "Fraction(" not in out


def test_geometry_degenerate_exit_4(capsys):
    code, _, err = run(capsys, "geometry", "h3", "killing")
    assert code == 4
    assert "radical" in err


def test_geometry_unknown_metric(capsys):
    code, _, err = run(capsys, "geometry", "g0", "nope")
    assert code == 1
    assert "killing" in err


OSC = {"dim": 4,
       "brackets": [[0, 1, 2, "1"], [0, 2, 1, "-1"], [1, 2, 3, "1"]],
       "metrics": {"B": [[0, 3, "1"], [1, 1, "1"], [2, 2, "1"]]}}


@pytest.mark.parametrize("target, listing", [
    ("g0", "g0; available: gmatrix0, killing"),
    ("h3", "h3; available: h0, h1, h2, killing"),
    ("sl2", "sl2; available: killing, killing"),
    (None, "osc.json; available: B, killing"),
], ids=["g0", "h3", "sl2", "file"])
def test_unknown_metric_exit_1_lists_killing(capsys, tmp_path, target,
                                             listing):
    target = target or write_json(tmp_path, "osc.json", OSC)
    for tail in (["nope"], ["--metric", "nope"]):
        code, out, err = run(capsys, "geometry", target, *tail)
        assert code == 1 and out == ""
        assert err == f"error: no metric 'nope' on {listing}\n"


def test_file_metric_named_killing_wins_over_the_killing_form(capsys,
                                                             tmp_path):
    # the Killing form of g0 is degenerate; a file metric of that name is used
    code, _, err = run(capsys, "geometry", "g0", "killing")
    assert code == 4 and "radical" in err
    payload = dict(OSC, metrics={"killing": OSC["metrics"]["B"]})
    code, out, _ = run(capsys, "geometry",
                       write_json(tmp_path, "osc.json", payload), "killing")
    assert code == 0
    assert "metric: killing" in out and "R = -1/4 ad([X,Y]): PASS" in out
    code, _, err = run(capsys, "geometry",
                       write_json(tmp_path, "plain.json", OSC), "killing")
    assert code == 4 and "radical" in err


# --- geodesic ------------------------------------------------------------

def test_geodesic_csv_and_deviation(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "geodesic", "G0", "1,1,0,0",
                       "--s-end", "2", "--step", "0.001",
                       "--out", str(out_path))
    assert code == 0
    assert "max deviation from closed form:" in out
    dev = float(out.split("max deviation from closed form:")[1].split()[0])
    assert dev <= 1e-8
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "s,t,x,y,z,vt,vx,vy,vz"
    assert len(lines) == 2002


@pytest.mark.parametrize("model", ["G0", "G1"])
@pytest.mark.parametrize("a", ["1e-200,1,0,0", "1e-10,1,1,0"])
def test_geodesic_with_a_tiny_a0_compares_to_the_closed_form(capsys, tmp_path,
                                                            model, a):
    # the closed form took a1 / a0 and a1 / a0^2: 1e-200 left the float
    # range, and 1e-10 cancelled down to a deviation of 1.9e-6
    code, out, err = run(capsys, "geodesic", model, a, "--s-end", "1",
                         "--step", "0.01", "--out", str(tmp_path / "x.csv"))
    assert (code, err) == (0, "")
    dev = float(out.split("max deviation from closed form:")[1].split()[0])
    assert dev <= 1e-13


def test_geodesic_stdout_straight_line(capsys):
    code, out, err = run(capsys, "geodesic", "G0", "0,1,2,3",
                         "--s-end", "0.01", "--step", "0.001")
    assert code == 0
    rows = [l for l in out.strip().split("\n") if not l.startswith("s,")]
    last = rows[-1].split(",")
    assert float(last[2]) == pytest.approx(0.01, abs=1e-12)
    assert float(last[3]) == pytest.approx(0.02, abs=1e-12)


def test_geodesic_h3_model(capsys, tmp_path):
    out_path = tmp_path / "h1.csv"
    code, out, _ = run(capsys, "geodesic", "H3:h1", "0,0,1",
                       "--s-end", "0.5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "s,t,x,y,z,vt,vx,vy,vz"
    last = lines[-1].split(",")
    assert float(last[4]) == pytest.approx(0.5, abs=1e-10)


def test_geodesic_with_base(capsys):
    code, out, err = run(capsys, "geodesic", "G1", "1,1,0,0",
                         "--base", "0.1,0.2,0.3,0.4", "--s-end", "0.1")
    assert code == 0
    assert "max deviation from closed form:" in err + out


@pytest.mark.parametrize("spaced, joined", [
    (["G1", "-1.2,0.5,-0.3,0.2"], ["--", "G1", "-1.2,0.5,-0.3,0.2"]),
    (["G1", "-.5,1,0,0"], ["--", "G1", "-.5,1,0,0"]),
    (["G1", "1,1,0,0", "--base", "-0.5,0,0,0"],
     ["G1", "1,1,0,0", "--base=-0.5,0,0,0"]),
])
def test_geodesic_takes_negative_values_after_a_space(capsys, spaced, joined):
    opts = ["--s-end", "0.05", "--step", "0.01"]
    got = run(capsys, "geodesic", *spaced, *opts)
    want = run(capsys, "geodesic", *opts, *joined)
    assert got[0] == 0 and got == want


def test_argparse_still_reads_the_negative_number_matcher():
    # build_parser sets this private attribute on the geodesic subparser;
    # if argparse stops reading it, this fails instead of a usage error
    p = argparse.ArgumentParser()
    p.add_argument("a")
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    assert p.parse_args(["-1.2,0.5"]).a == "-1.2,0.5"


def test_geodesic_deviation_matches_separate_integration(capsys):
    code, _, err = run(capsys, "geodesic", "G1", "0.8,0.3,-0.2,0.5",
                       "--base=0.1,0.2,0.3,0.4", "--s-end", "1.5",
                       "--step", "0.01")
    assert code == 0
    spec = GeodesicSpec("G1", GroupElement("G1", (0.1, 0.2, 0.3, 0.4)),
                        (0.8, 0.3, -0.2, 0.5))
    grid = np.linspace(0.0, 1.5, 21)
    want = compare_to_closed_form(spec, integrate_spec(spec, 1.5, 0.01),
                                  grid)
    assert f"max deviation from closed form: {want:.3e}" in err


@pytest.mark.parametrize("argv, reason", [
    (["G0", "1,0.5,0.2,0.1", "--s-end", "-1", "--step", "0.5"], "s_end must"),
    (["G0", "1,0.5,0.2,0.1", "--s-end", "nan"], "s_end must"),
    (["G0", "nan,0.5,0.2,0.1", "--s-end", "0.1"], "must be finite"),
    (["H3:h1", "0,inf,1", "--s-end", "0.1"], "must be finite"),
    (["G1", "1,0,0,0", "--base", "0,0,nan,0", "--s-end", "0.1"],
     "must be finite"),
])
def test_geodesic_rejects_before_integrating(capsys, tmp_path, argv, reason):
    out_path = tmp_path / "traj.csv"
    code, out, err = run(capsys, "geodesic", *argv)
    assert code != 0 and reason in err
    assert "s,t,x,y,z" not in out
    code, _, _ = run(capsys, "geodesic", *argv, "--out", str(out_path))
    assert code != 0 and not out_path.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_geodesic_output_that_cannot_be_written_exits_1(capsys, tmp_path,
                                                        where):
    target = tmp_path / "nope" / "x.csv" if where == "missing directory" \
        else tmp_path
    code, out, err = run(capsys, "geodesic", "G0", "1,1,0,0", "--s-end",
                         "0.01", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write output: ")
    assert str(target) in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_geodesic_exits_1_when_the_reader_closes_the_pipe():
    # about 2 MB of CSV: far more than a pipe buffers after the reader left
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
            [sys.executable, "-m", "metriclie.cli", "geodesic", "G0",
             "1,1,0,0", "--s-end", "20"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert first == b"s,t,x,y,z,vt,vx,vy,vz\n"
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.count("\n") <= 1 and err.count("error:") <= 1


def test_geodesic_bad_model(capsys):
    code, _, err = run(capsys, "geodesic", "Gx", "1,1,0,0")
    assert code == 1


def test_geodesic_takes_only_the_documented_h3_spellings(capsys):
    code, out, err = run(capsys, "geodesic", "H3(h1)", "0,0,1")
    assert code == 1 and out == ""
    assert err == "error: model must be G0, G1, H3:h1 or H3:h2\n"


@pytest.mark.parametrize("s_end", ["0", "0.2"])
def test_geodesic_rounds_to_zero_steps(capsys, s_end):
    code, out, err = run(capsys, "geodesic", "G0", "1,0,0,0",
                         "--s-end", s_end, "--step", "0.5")
    assert code == 0
    assert out.strip().split("\n") == ["s,t,x,y,z,vt,vx,vy,vz",
                                       "0,0,0,0,0,1,0,0,0"]
    assert "samples: 1" in err


@pytest.mark.parametrize("step", ["1e-320", "inf"])
def test_geodesic_refuses_step_counts_it_cannot_take(capsys, step):
    code, out, err = run(capsys, "geodesic", "G0", "1,0,0,0",
                         "--s-end", "1", "--step", step)
    assert code == 1 and out == ""
    assert err.startswith("error: step") or err.startswith("error: s_end")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # exp(1000) in the G1 closed form
    ["--s-end", "5", "--step", "0.5", "G1", "--", "1e3,1e3,1e3,1"],
    # exp(1000) in the G1 frame at the base point
    ["G1", "0,0,0,1", "--base=1000,0,0,0", "--s-end", "1", "--step", "0.5"],
    # the h1 metric overflows in the first step
    ["--s-end", "1", "--step", "0.5", "H3:h1", "--", "1e160,1,1"],
])
def test_geodesic_overflow_exits_5_without_output(capsys, tmp_path, argv):
    out_path = tmp_path / "traj.csv"
    code, out, err = run(capsys, "geodesic", "--out", str(out_path), *argv)
    assert code == 5 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


EXTREMES = ("0", "-0.0", "-1", "nan", "inf", "-inf", "1e300", "-1e300",
            "1e-300", "1e-320", "1e2000000", "9" * 4301)
# seconds one fuzzed call may take; the slowest accepted ones take well
# under a second
BUDGET = 5


def _numbers(lo, hi):
    """Mostly finite values in [lo, hi], one draw in four an extreme."""
    finite = st.floats(lo, hi).map(repr)
    return st.one_of(finite, finite, finite, st.sampled_from(EXTREMES))


@st.composite
def geodesic_args(draw):
    model = draw(st.sampled_from(["G0", "G1", "H3:h1", "H3:h2"]))
    n = 3 if model.startswith("H3") else 4
    coords = st.sampled_from([n, n, n, 7 - n]).flatmap(
        lambda k: st.lists(_numbers(-3, 3), min_size=k, max_size=k))
    a, base = draw(coords), draw(st.none() | coords)
    s_end, step = draw(_numbers(-0.5, 3)), draw(_numbers(0.01, 1))
    return model, ",".join(a), base and ",".join(base), s_end, step


def _takes_many_steps(s_end, step):
    """An accepted run of more than 1000 steps (slow, so not drawn); runs
    of more than 10**6 steps are refused."""
    s_end, step = float(s_end), float(step)
    if not (step > 0 and math.isfinite(step) and math.isfinite(s_end)):
        return False
    return 1000 < s_end / step <= 10**6


@settings(max_examples=120, deadline=None, derandomize=True)
@given(args=geodesic_args(), separate=st.booleans(), to_file=st.booleans())
def test_geodesic_fuzz_keeps_exit_code_contract(args, separate, to_file):
    model, a, base, s_end, step = args
    assume(not _takes_many_steps(s_end, step))
    with tempfile.TemporaryDirectory() as tmp:
        opts = [f"--s-end={s_end}", f"--step={step}"]
        opts += [f"--base={base}"] if base is not None else []
        opts += ["--out", os.path.join(tmp, "traj.csv")] if to_file else []
        argv = (["geodesic", *opts, "--", model, a] if separate
                else ["geodesic", model, a, *opts])
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors only
                code = exc.code
                assert code == 2
            elapsed = time.perf_counter() - start
    assert elapsed < BUDGET, argv
    assert code in (0, 1, 2, 5), (argv, err.getvalue())
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()


# --- fuzz of the algebra-file verbs ---------------------------------------

fuzz_rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2)))
JUNK = (True, False, None, 1.5, "1/0", "nan", "inf", "x", [], {}, [1, 2],
        -1, 7, "1e3", "3/4")
# exponents (cheap to write, dear to expand) and values at and past the
# digit bound
LONG = ("1e2000000", "1e5000", "9" * 4301, "9" * 4300, "-1/" + "9" * 4300)


def _entries(form):
    n = form.dim
    return [[i, j, str(form.matrix[i][j])] for i in range(n)
            for j in range(i, n) if form.matrix[i][j]]


@st.composite
def algebra_payloads(draw):
    """A rational basis change of a 4-dim metric source with its forms, or a
    small algebra (dim 1-3) with random structure constants and metrics."""
    if draw(st.booleans()):
        entry = catalog.get(draw(st.sampled_from(
            ["g0", "g1", "r+sl2", "r+so3", "r4"])))
        P = draw(st.lists(st.lists(fuzz_rationals, min_size=4, max_size=4),
                          min_size=4, max_size=4).filter(determinant))
        g = change_of_basis(entry.algebra, P)
        metrics = {m: _entries(forms.transform_form(B, P))
                   for m, B in entry.invariant_forms.items()}
    else:
        n = draw(st.integers(1, 3))
        triples = [(i, j, k) for i in range(n) for j in range(i + 1, n)
                   for k in range(n)]
        constants = draw(st.dictionaries(st.sampled_from(triples),
                                         fuzz_rationals, max_size=4)
                         if triples else st.just({}))
        g = LieAlgebra.from_brackets(n, [t + (c,) for t, c in constants.items()])
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        metrics = draw(st.dictionaries(
            st.sampled_from(["B", "killing", "m"]),
            st.dictionaries(st.sampled_from(pairs), fuzz_rationals,
                            max_size=len(pairs)).map(
                lambda d: [[i, j, str(v)] for (i, j), v in d.items()]),
            max_size=2))
    n = g.dim
    brackets = [[i, j, k, str(c)] for i in range(n) for j in range(i + 1, n)
                for k, c in enumerate(g.structure[i][j]) if c]
    return {"dim": n, "brackets": brackets, "metrics": metrics}


@st.composite
def algebra_files(draw):
    """The bytes of an algebra file, possibly broken: a wrong JSON type, a
    boolean, a float or a bad string where a value or an index belongs, an
    index out of range, conflicting entries, a long value, non-UTF-8 bytes
    or deep nesting."""
    payload = draw(algebra_payloads())
    lists = [rows for rows in (payload["brackets"],
                               *payload["metrics"].values()) if rows]
    kind = draw(st.sampled_from(["none", "none", "value", "index",
                                 "conflict", "long", "field", "bytes", "deep"]))
    if kind in ("value", "index", "conflict", "long") and lists:
        rows = draw(st.sampled_from(lists))
        row = draw(st.sampled_from(rows))
        if kind == "conflict":
            # the partner entry, with a value that clashes with this one
            row = [row[1], row[0], *row[2:]]
            if len(row) == 3:
                row[-1] = str(Fraction(row[-1]) + 1)
            rows.append(row)
        elif kind == "long":
            row[-1] = draw(st.sampled_from(LONG))
        else:
            junk = st.sampled_from(JUNK + (payload["dim"], payload["dim"] + 3))
            slot = -1 if kind == "value" else draw(st.integers(0, len(row) - 2))
            row[slot] = draw(junk)
    elif kind == "field":
        key = draw(st.sampled_from(["dim", "brackets", "metrics"]))
        if draw(st.booleans()):
            payload[key] = draw(st.sampled_from(JUNK))
        else:
            del payload[key]
    raw = json.dumps(payload).encode()
    if kind == "bytes":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) \
            + raw[at:]
    elif kind == "deep":
        depth = draw(st.sampled_from([10, 1000, 5000]))
        nest = b"[" * depth + b"]" * depth
        # the whole file, or the first entry of the bracket list
        raw = raw.replace(b'"brackets": [', b'"brackets": [' + nest + b", ", 1) \
            if draw(st.booleans()) else nest
    return payload, raw


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=algebra_files(), verb=st.sampled_from(["report", "classify",
                                                   "geometry"]),
       data=st.data(), flag=st.booleans())
def test_algebra_file_fuzz_keeps_exit_code_contract(case, verb, data, flag):
    payload, raw = case
    named = payload.get("metrics")
    metric = data.draw(st.sampled_from(
        (sorted(named) * 3 if isinstance(named, dict) else [])
        + ["killing", "nope"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alg.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        argv = [verb, path]
        if verb == "geometry":
            argv += ["--metric", metric] if flag else [metric]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors only
                code = exc.code
                assert code == 2
            elapsed = time.perf_counter() - start
    assert elapsed < BUDGET, (argv, payload)
    assert code in (0, 1, 2, 3, 4, 5), (argv, payload, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, payload)
    assert code == 0 or err.getvalue().startswith("error: "), (argv, payload)


# --- isometry ------------------------------------------------------------

def test_isometry_g0(capsys):
    code, out, _ = run(capsys, "isometry", "G0", "--samples", "25")
    assert code == 0
    assert "family (isom): 25/25 samples PASS; isotropy dim 3" in out


def test_isometry_g1(capsys):
    code, out, _ = run(capsys, "isometry", "G1", "--samples", "25")
    assert code == 0
    assert "25/25 samples PASS; isotropy dim 3" in out


def test_isometry_h3(capsys):
    code, out, _ = run(capsys, "isometry", "H3:h1")
    assert code == 0
    assert "isotropy algebra dim 1 (O(2) type)" in out
    code, out, _ = run(capsys, "isometry", "H3:h2")
    assert "isotropy algebra dim 1 (O(1,1) type)" in out
    code, out, _ = run(capsys, "isometry", "H3:h0")
    assert "isotropy algebra dim 3 (O(2,1) type)" in out


@pytest.mark.parametrize("model", ["G0", "H3:h1"])
def test_isometry_rejects_negative_samples(capsys, model):
    code, out, err = run(capsys, "isometry", model, "--samples", "-5")
    assert code == 1 and out == ""
    assert err == "error: --samples must be non-negative\n"


def test_isometry_deterministic_seed(capsys):
    _, out1, _ = run(capsys, "isometry", "G0", "--samples", "10", "--seed", "3")
    _, out2, _ = run(capsys, "isometry", "G0", "--samples", "10", "--seed", "3")
    assert out1 == out2
