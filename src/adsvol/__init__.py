"""Exact volume and Chern-Simons invariants of closed anti-de-Sitter
3-manifolds, with the surface-group representation tools needed to
produce and screen the input data.

Layout:

* `liealg`       exact sl(2, R): brackets, Killing form, calibrated metric
* `forms`        invariant forms, Maurer-Cartan equation, curvature path
* `invariants`   rational volume / Chern-Simons bookkeeping
* `reps`         PSL(2, R) representations, Fuchsian holonomy, Euler classes
* `admissibility` length-spectrum Lipschitz bounds and verdicts
* `errors`       the exceptions behind the CLI's exit codes
* `verify`       self-checks wired to the `adsvol verify` command
* `cli`          the `adsvol` command line

Each public name lives in one submodule and is imported from it, e.g.
`from adsvol.reps import euler_class`.  The submodules are imported on
first access (PEP 562), so `import adsvol` loads nothing else and only
the float layers `reps` and `admissibility` import numpy.
"""

import importlib

__version__ = "0.1.0"

#: Default cutoff of the Lipschitz word scan.  Kept here rather than in
#: `admissibility` so that the CLI can show it in `lipschitz --help`
#: without importing numpy.
DEFAULT_MAX_WORD_LENGTH = 6

__all__ = (
    "liealg", "forms", "invariants", "reps", "admissibility", "errors",
    "verify", "cli",
)


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f".{name}", __name__)
