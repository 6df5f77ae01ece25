import json

import numpy as np
import pytest

from metriclie import catalog, cli, forms
from metriclie.cli import main
from metriclie.groups import GeodesicSpec, GroupElement
from metriclie.integrate import compare_to_closed_form


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


def test_report_searches_forms_once(capsys, monkeypatch):
    calls = {"space": 0, "search": 0}
    space, search = forms.invariant_form_space, forms.has_nondegenerate_invariant_form

    def counted_space(g):
        calls["space"] += 1
        return space(g)

    def counted_search(g):
        calls["search"] += 1
        return search(g)

    monkeypatch.setattr(forms, "invariant_form_space", counted_space)
    for mod in (cli, catalog):
        monkeypatch.setattr(mod, "has_nondegenerate_invariant_form",
                            counted_search)
    code, out, _ = run(capsys, "report", "g1")
    assert code == 0 and "class: g1" in out
    assert "invariant form space: 2" in out
    assert calls == {"space": 1, "search": 1}


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "g1")
    assert code == 0 and "class: g1" in out


def test_geometry_metric_flag(capsys):
    code, out, _ = run(capsys, "geometry", "g0", "--metric", "gmatrix0")
    assert code == 0 and "R = -1/4 ad([X,Y]): PASS" in out


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
    assert "triple" in err


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
])
def test_malformed_schema_exit_2(capsys, tmp_path, payload):
    path = write_json(tmp_path, "bad.json", payload)
    code, _, err = run(capsys, "report", path)
    assert code == 2
    assert err.startswith("error: ")


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


def test_geometry_degenerate_exit_4(capsys):
    code, _, err = run(capsys, "geometry", "h3", "killing")
    assert code == 4
    assert "radical" in err


def test_geometry_unknown_metric(capsys):
    code, _, err = run(capsys, "geometry", "g0", "nope")
    assert code == 1
    assert "killing" in err


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


def test_geodesic_deviation_matches_separate_integration(capsys):
    code, _, err = run(capsys, "geodesic", "G1", "0.8,0.3,-0.2,0.5",
                       "--base=0.1,0.2,0.3,0.4", "--s-end", "1.5",
                       "--step", "0.01")
    assert code == 0
    spec = GeodesicSpec("G1", GroupElement("G1", (0.1, 0.2, 0.3, 0.4)),
                        (0.8, 0.3, -0.2, 0.5))
    grid = np.linspace(0.0, 1.5, 21)
    want = compare_to_closed_form(spec, grid, 0.01)
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


def test_geodesic_bad_model(capsys):
    code, _, err = run(capsys, "geodesic", "Gx", "1,1,0,0")
    assert code == 1


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


def test_isometry_deterministic_seed(capsys):
    _, out1, _ = run(capsys, "isometry", "G0", "--samples", "10", "--seed", "3")
    _, out2, _ = run(capsys, "isometry", "G0", "--samples", "10", "--seed", "3")
    assert out1 == out2
