"""Package namespace: its submodules, loaded lazily, and which layers
load numpy.

`import adsvol` holds only its submodules, each imported on first
access, so the exact layers (liealg, forms, invariants) and the CLI's
`volume` and `cs` commands run without numpy.  Import effects are
checked in a fresh interpreter, because this test session has already
imported every layer.
"""

import os
import subprocess
import sys

import pytest

import adsvol


def run_fresh(code):
    """Run `code` in a new interpreter that imports this adsvol; return
    its stdout lines."""
    src = os.path.dirname(os.path.dirname(adsvol.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=False, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


NUMPY_FREE = {
    "bare import": "import adsvol",
    "exact layers": "import adsvol.liealg, adsvol.forms, adsvol.invariants",
    "volume": "from adsvol import cli; cli.main(['volume', '--e', '-2', '--f', '0', '--k', '-2'])",
    "cs": "from adsvol import cli; cli.main(['cs', '--e', '-4', '--f', '2', '--k', '3'])",
    "volume k=0": "from adsvol import cli; cli.main(['volume', '--e', '1', '--f', '0', '--k', '0'])",
}


def numpy_loaded_after(code):
    lines = run_fresh(code + "\nimport sys\nprint('numpy' in sys.modules)")
    return lines[-1]


@pytest.mark.parametrize("code", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_exact_paths_leave_numpy_unloaded(code):
    assert numpy_loaded_after(code) == "False"


def test_float_layers_load_numpy():
    # the probe can see numpy when a float layer is imported
    assert numpy_loaded_after("import adsvol.reps") == "True"


def test_namespace_is_the_submodules():
    assert adsvol.__all__ == (
        "liealg", "forms", "invariants", "reps", "admissibility", "errors",
        "verify", "cli",
    )
    with pytest.raises(ImportError):
        exec("from adsvol import euler_class", {})
    from adsvol.reps import euler_class

    assert euler_class is adsvol.reps.euler_class


def test_bare_import_resolves_float_submodules():
    lines = run_fresh(
        "import adsvol\n"
        "print(adsvol.reps.__name__, adsvol.admissibility.__name__)"
    )
    assert lines == ["adsvol.reps adsvol.admissibility"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        adsvol.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from adsvol import no_such_name", {})
    assert not hasattr(adsvol, "numpy")
