"""The package loads the geodesic layer (``groups``, ``integrate``, numpy) on
first use.  Each test runs in a fresh interpreter: this process already
holds numpy and both modules."""

import os
import subprocess
import sys

import metriclie

SRC = os.path.dirname(os.path.dirname(metriclie.__file__))

# metriclie.__all__ before the geodesic layer became lazy
PUBLIC = [
    "CatalogEntry", "CheckResult", "Connection", "CurvatureTensor",
    "DegenerateMetricError", "FormSearch", "GeodesicSpec", "GroupElement",
    "InputError", "IsotropyReport", "JacobiError", "LieAlgebra",
    "MetricChart", "MetricLieError", "NumericalError", "ParseError",
    "QuadExt", "Signature", "SolitonResult", "SplitResult", "Subspace",
    "SymBilinearForm", "Trajectory", "ad_matrix", "ahc_isometry_check",
    "algebra", "base", "bianchi_check", "biinvariant_curvature_check",
    "bracket", "catalog", "center", "change_of_basis", "chart",
    "check_h3_subalgebra", "christoffel", "classify_dim4_metric",
    "commutator", "compare_to_closed_form", "connection",
    "coordinate_metric", "curvature", "energy_series", "exp_map",
    "extract_family_parameters", "flow_left_invariant_field", "forms",
    "frac", "frame", "g1_product_exp_coords", "geodesic_closed_form", "get",
    "get_metric", "group_identity", "groups", "h3_isotropy",
    "has_nondegenerate_invariant_form", "initial_velocity", "integrate",
    "integrate_geodesic", "integrate_spec", "invariant_form_space",
    "inverse", "is_abelian", "is_ad_invariant", "is_derivation", "is_flat",
    "is_ideal", "is_isometric_automorphism", "is_locally_symmetric",
    "is_nilpotent", "is_solvable", "isometry_family", "jacobi_check",
    "killing_form", "levi_civita", "linalg", "linearized_isotropy_dim",
    "lower_central", "metric_compatibility_check", "metric_names",
    "multiply", "nabla_R", "names", "naturally_reductive_check",
    "orthogonal_complement", "restrict_form", "restricted_algebra", "rho",
    "ricci_form", "ricci_operator", "rotation_block", "scalars",
    "series_duality_check", "signature", "skew_adjoint_form_space",
    "soliton_solve", "split_nondegenerate_ideal", "torsion_check",
    "transform_form", "upper_central", "write_trajectory_csv",
]

GEODESIC_LAYER = ("numpy", "metriclie.groups", "metriclie.integrate")


def fresh(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this
    checkout's metriclie."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_exact_pipeline_loads_no_numpy():
    out = fresh(f"""
import sys, metriclie
entry = metriclie.catalog.get("g0")
assert metriclie.has_nondegenerate_invariant_form(entry.algebra).found
metriclie.levi_civita(entry.algebra, entry.invariant_forms["gmatrix0"])
print([m for m in {GEODESIC_LAYER!r} if m in sys.modules])
""")
    assert out == "[]\n"


def test_all_keeps_the_public_names():
    assert len(PUBLIC) == 102
    assert sorted(metriclie.__all__) == PUBLIC
    assert fresh("import metriclie; print(sorted(metriclie.__all__))") \
        == f"{PUBLIC}\n"


def test_every_name_resolves_to_its_home_object():
    out = fresh("""
import sys, types, metriclie
bad = []
for name in metriclie.__all__:
    value = getattr(metriclie, name)
    if isinstance(value, types.ModuleType):
        home = sys.modules["metriclie." + name]
    else:
        home = getattr(sys.modules[value.__module__], name)
    # a resolved name is bound, so the next lookup skips __getattr__
    if value is not home or vars(metriclie).get(name) is not value:
        bad.append(name)
print(bad, metriclie.integrate_geodesic.__module__, metriclie.frame.__module__)
""")
    assert out == "[] metriclie.integrate metriclie.groups\n"


def test_dir_lists_the_lazy_names_and_unknown_names_raise():
    out = fresh(f"""
import sys, metriclie
listed = dir(metriclie)
print(all(n in listed for n in metriclie.__all__), listed == sorted(listed))
try:
    metriclie.no_such_name
except AttributeError as exc:
    print(exc)
print(hasattr(metriclie, "no_such_name"),
      [m for m in {GEODESIC_LAYER!r} if m in sys.modules])
""")
    assert out.splitlines() == [
        "True True", "module 'metriclie' has no attribute 'no_such_name'",
        "False []"]


def test_star_import_binds_every_public_name():
    out = fresh("""
from metriclie import *
print(sorted(n for n in dir() if not n.startswith("_")))
print(integrate_geodesic is integrate.integrate_geodesic)
""")
    assert out.splitlines() == [str(PUBLIC), "True"]


def test_cli_import_loads_the_geodesic_layer():
    # perfbench/tracing.py looks the traced functions up in sys.modules
    # right after `from metriclie import cli`, so the CLI module must keep
    # loading groups and integrate; deferring those imports into
    # cmd_geodesic needs the tracer to import them itself first
    out = fresh(f"""
import sys
from metriclie import cli
print([m for m in {GEODESIC_LAYER!r} if m not in sys.modules])
""")
    assert out == "[]\n"
