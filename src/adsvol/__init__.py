"""Exact volume and Chern-Simons invariants of closed anti-de-Sitter
3-manifolds, with the surface-group representation tools needed to
produce and screen the input data.

Layout:

* `liealg`       exact sl(2, R): brackets, Killing form, calibrated metric
* `forms`        invariant forms, Maurer-Cartan equation, curvature path
* `invariants`   rational volume / Chern-Simons bookkeeping
* `reps`         PSL(2, R) representations, Fuchsian holonomy, Euler classes
* `admissibility` length-spectrum Lipschitz bounds and verdicts
* `verify`       self-checks wired to the `adsvol verify` command

The submodules and the names re-exported here are imported on first
access (PEP 562), so `import adsvol` loads nothing else and only the
float layers `reps` and `admissibility` import numpy.
"""

import importlib

__version__ = "0.1.0"

#: Default cutoff of the Lipschitz word scan.  Kept here rather than in
#: `admissibility` so that the CLI can show it in `lipschitz --help`
#: without importing numpy.
DEFAULT_MAX_WORD_LENGTH = 6

#: The re-exported names, by the submodule that defines them.
_EXPORTS = {
    "admissibility": (
        "AdmissibilityReport", "LipschitzEstimate", "admissibility_report",
        "lipschitz_lower_bound",
    ),
    "errors": ("ConventionWarning", "InputError", "IntegralityError"),
    "forms": (
        "ConnectionPath", "EndValuedForm", "bracket_wedge",
        "canonical_maurer_cartan", "cs_density", "curvature_at", "invariant_d",
        "maurer_cartan_residual", "path_integral_coefficient", "wedge_trace",
    ),
    "invariants": (
        "AdSDescriptor", "chasles", "cs_pair", "cs_rho_id", "cs_scale",
        "geometry_calibration", "unit_tangent_volume", "vol_from_cs", "volume",
    ),
    "liealg": (
        "LieElement", "adjoint", "bracket", "killing", "metric", "omega",
        "volume_form",
    ),
    "reps": (
        "Moebius", "Representation", "SurfaceGroup", "Word", "euler_class",
        "evaluate", "fuchsian_regular_polygon",
        "load_representation", "relator_residual", "save_representation",
        "translation_length", "trivial_representation",
    ),
}

#: Every lazily resolved name -> its submodule; a submodule name maps to
#: itself.
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}
_LAZY.update((module, module) for module in (*_EXPORTS, "verify", "cli"))

__all__ = list(_LAZY)


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    return module if name == module_name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
