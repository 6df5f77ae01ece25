"""Metric Lie algebras and the left-invariant geometry of H3, G0 and G1.

Exact rational computation for the algebraic side (brackets, ad-invariant
forms, curvature identities, isometry conditions) plus floating-point group
models and a geodesic integrator for the coordinate side.

Only the geodesic layer (``groups`` and ``integrate``) needs numpy, so
``import metriclie`` loads the exact modules alone: the names of those two
modules, and the modules themselves, are imported on first use (PEP 562).
``from metriclie import *`` resolves every name and so loads numpy, and so
does ``metriclie.cli``, which imports the geodesic layer at module top: the
benchmark's tracer finds the functions it wraps in ``sys.modules`` right
after importing the CLI.
"""

from importlib import import_module as _import_module

from .algebra import (LieAlgebra, Subspace, bracket, center, change_of_basis,
                      check_h3_subalgebra, commutator, is_abelian, is_ideal,
                      is_nilpotent, is_solvable, jacobi_check, lower_central,
                      restricted_algebra, upper_central)
from .base import (CheckResult, DegenerateMetricError, InputError, JacobiError,
                   MetricLieError, NumericalError, ParseError)
from .catalog import (CatalogEntry, classify_dim4_metric, get, get_metric,
                      metric_names, names)
from .connection import (Connection, CurvatureTensor, IsotropyReport,
                         SolitonResult, ahc_isometry_check, bianchi_check,
                         biinvariant_curvature_check, curvature,
                         extract_family_parameters, h3_isotropy, is_derivation,
                         is_flat, is_isometric_automorphism,
                         is_locally_symmetric, isometry_family, levi_civita,
                         linearized_isotropy_dim, metric_compatibility_check,
                         nabla_R, naturally_reductive_check, ricci_form,
                         ricci_operator, skew_adjoint_form_space,
                         soliton_solve, torsion_check)
from .forms import (FormSearch, Signature, SplitResult, SymBilinearForm,
                    has_nondegenerate_invariant_form, invariant_form_space,
                    is_ad_invariant, killing_form, orthogonal_complement,
                    restrict_form, series_duality_check, signature,
                    split_nondegenerate_ideal, transform_form)
from .scalars import QuadExt, frac

# the geodesic layer, which needs numpy: each module and its public names
_GEODESIC_LAYER = {
    "groups": ("GeodesicSpec", "GroupElement", "ad_matrix",
               "coordinate_metric", "exp_map", "frame",
               "g1_product_exp_coords", "geodesic_closed_form",
               "group_identity", "inverse", "multiply", "rho",
               "rotation_block"),
    "integrate": ("MetricChart", "Trajectory", "chart", "christoffel",
                  "compare_to_closed_form", "energy_series",
                  "flow_left_invariant_field", "initial_velocity",
                  "integrate_geodesic", "integrate_spec",
                  "write_trajectory_csv"),
}
# each lazy name -> the module that defines it (a module names itself)
_LAZY = {name: module for module, names in _GEODESIC_LAYER.items()
         for name in (module, *names)}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _LAZY.keys())
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module("." + _LAZY[name], __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
