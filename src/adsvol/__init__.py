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
"""

from .admissibility import (
    AdmissibilityReport,
    LipschitzEstimate,
    admissibility_report,
    lipschitz_lower_bound,
)
from .errors import ConventionWarning, InputError, IntegralityError
from .forms import (
    ConnectionPath,
    EndValuedForm,
    ScalarForm,
    bracket_wedge,
    canonical_maurer_cartan,
    cs_density,
    curvature_at,
    invariant_d,
    maurer_cartan_residual,
    path_integral_coefficient,
    wedge_trace,
)
from .invariants import (
    AdSDescriptor,
    CsValue,
    PiSquaredScalar,
    VolumeResult,
    chasles,
    cs_pair,
    cs_rho_id,
    cs_scale,
    geometry_calibration,
    unit_tangent_volume,
    vol_from_cs,
    volume,
)
from .liealg import (
    LieElement,
    MetricTensor,
    OrientedFrame,
    adjoint,
    bracket,
    killing,
    metric,
    omega,
    volume_form,
)
from .reps import (
    Moebius,
    Representation,
    SurfaceGroup,
    Word,
    elem_type,
    euler_class,
    evaluate,
    fuchsian_regular_polygon,
    load_representation,
    relator_residual,
    save_representation,
    translation_length,
    trivial_representation,
)

__version__ = "0.1.0"
