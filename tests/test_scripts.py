"""Smoke tests of the experiment scripts under scripts/: each runs
through its main() on small arguments and prints something."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("lipschitz_growth", ["--genus", "2", "--max-depth", "2"]),
        ("volume_census", ["--max-euler", "2", "--max-degree", "1"]),
    ],
)
def test_script_runs(capsys, name, argv):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", ["lipschitz_growth", "volume_census"])
@pytest.mark.parametrize("genus", ["1", "0", "-3"])
def test_script_rejects_genus_below_two(capsys, name, genus):
    with pytest.raises(SystemExit) as exit_info:
        load_script(name).main(["--genus", genus])
    assert exit_info.value.code == 2
    assert "--genus must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "depth, env, message",
    [
        ("0", None, "--max-depth must be at least 1"),
        ("-2", None, "--max-depth must be at least 1"),
        # 8 * 7^11 words at genus 2, over the default cap of 10^7
        ("12", None, "over the cap of 10000000"),
        ("3", "100", "over the cap of 100"),
        ("3", "many", "ADSVOL_MAX_WORDS must be an integer"),
        # a word count of over 4300 digits, past int-to-str conversion
        ("6000", None, "over the cap of 10000000"),
    ],
    ids=["zero", "negative", "default-cap", "env-cap", "malformed-cap", "huge-depth"],
)
def test_lipschitz_growth_rejects_bad_depth_before_scanning(
    capsys, monkeypatch, depth, env, message
):
    if env is None:
        monkeypatch.delenv("ADSVOL_MAX_WORDS", raising=False)
    else:
        monkeypatch.setenv("ADSVOL_MAX_WORDS", env)
    with pytest.raises(SystemExit) as exit_info:
        load_script("lipschitz_growth").main(["--genus", "2", "--max-depth", depth])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_lipschitz_growth_reports_a_library_input_error(capsys):
    # at genus 3000 the polygon build loses the precision it needs and
    # raises InputError; the script reports it without a traceback
    code = load_script("lipschitz_growth").main(["--genus", "3000", "--max-depth", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix is not conjugate to a real one\n"


def test_every_mutant_applies_once_and_names_what_kills_it():
    """The mutation check's list stays applicable: each mutant's text
    occurs exactly once in its file, and the list covers the faults
    ROADMAP item 21 names."""
    mutants = load_script("mutants")
    # a mutated copy fails this test, so the runner deselects it by name
    this = test_every_mutant_applies_once_and_names_what_kills_it.__name__
    assert mutants.LIST_TEST == f"tests/test_scripts.py::{this}"
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names) >= 9
    for m in mutants.MUTANTS:
        assert mutants.stale(m) is None, m.name
        assert m.old != m.new and m.note
    assert {
        "wrap-range", "round-truncates", "unit-distance-drops-sign", "det-tolerance-x10",
        "word-cap-accepts-zero", "verdict-strict", "ratios-maximum",
        "unit-tangent-skips-minus-two", "chasles-drops-inverse-law",
        "milnor-wood-below-bound",
    } <= set(names)
