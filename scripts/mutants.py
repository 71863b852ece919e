"""Mutation check: does tier-1 catch each of a fixed list of faults?

    python3 scripts/mutants.py

Each mutant replaces one exact piece of text in one file under src/.
It is applied to a temporary copy of the checkout, never to the
checkout itself, and tier-1 runs there with -x, less the one test that
checks this list against the checkout.  The mutant is killed when a
test fails and survived when all pass; a survivor's line also prints
the note that names the test meant to kill it.  A clean copy runs first
and must pass, or nothing is reported.  Uses the standard library only;
the tests need what tier-1 needs.

Exit 0 when every mutant is killed, 1 when one survived, 2 when the
clean copy fails, the copy's package is not the one imported, or a
mutant's text is not found exactly once (the list is stale).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900
#: The test that this list applies to the checkout fails on every
#: mutated copy, so it would kill every mutant; it is left out.
LIST_TEST = "tests/test_scripts.py::test_every_mutant_applies_once_and_names_what_kills_it"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    note: str  # what kills it; printed when the mutant survives


MUTANTS = (
    Mutant(
        "wrap-range", "src/adsvol/reps.py",
        "    return (x + math.pi / 2) % math.pi - math.pi / 2",
        "    return x % math.pi",
        "every cocycle step lands in [0, pi), so the polygons read wrong classes: "
        "test_euler_class_fuchsian_is_minus_chi, test_criterion_7_euler_classes",
    ),
    Mutant(
        "round-truncates", "src/adsvol/reps.py",
        "euler = round(turn / math.pi)", "euler = int(turn / math.pi)",
        "a turn a rounding short of -2 pi reads -1: "
        "test_euler_class_fuchsian_is_minus_chi, test_rep_then_euler_round_trip",
    ),
    Mutant(
        "unit-distance-drops-sign", "src/adsvol/reps.py",
        "    return min(\n"
        "        math.hypot(x0 - y0, x1 - y1, x2 - y2, x3 - y3),\n"
        "        math.hypot(x0 + y0, x1 + y1, x2 + y2, x3 + y3),\n"
        "    )\n",
        "    return math.hypot(x0 - y0, x1 - y1, x2 - y2, x3 - y3)\n",
        "a relator product near -I is refused (exit 4): "
        "test_euler_class_reads_an_odd_class, test_unit_distance_ignores_scale_and_sign",
    ),
    Mutant(
        "det-tolerance-x10", "src/adsvol/reps.py",
        "DET_TOLERANCE = 1e-6", "DET_TOLERANCE = 1e-5",
        "test_json_reader_refuses_a_determinant_off_one[past-tolerance]",
    ),
    Mutant(
        "word-cap-accepts-zero", "src/adsvol/admissibility.py",
        "if cap <= 0:", "if cap < 0:",
        "test_word_budget_cap_must_be_positive[0]",
    ),
    Mutant(
        "verdict-strict", "src/adsvol/admissibility.py",
        "estimate.lower_bound >= 1.0", "estimate.lower_bound > 1.0",
        "sigma = (rho(a1), I, ..., I) scores exactly 1 with Euler class 0: "
        "test_report_refutes_at_a_bound_of_exactly_one",
    ),
    Mutant(
        "ratios-maximum", "src/adsvol/admissibility.py",
        "np.fmax(lengths, 1.0, out=lengths)", "np.maximum(lengths, 1.0, out=lengths)",
        "a nan sigma-trace becomes a nan ratio and the scan refuses the depth: "
        "test_a_nan_sigma_trace_scores_length_zero_and_the_bound_stays_finite",
    ),
    Mutant(
        "unit-tangent-skips-minus-two", "src/adsvol/verify.py",
        "for e in range(-50, -1):", "for e in range(-50, -2):",
        "test_verify_detects_a_fault_only_one_clause_sees[unit-tangent-at-minus-two]",
    ),
    Mutant(
        "chasles-drops-inverse-law", "src/adsvol/verify.py",
        "if invariants.chasles(x, zero) != x or invariants.chasles(x, -x) != zero:",
        "if invariants.chasles(x, zero) != x:",
        "test_verify_detects_a_fault_only_one_clause_sees[chasles-inverse]",
    ),
    Mutant(
        "milnor-wood-below-bound", "src/adsvol/verify.py",
        "if abs(euler) != 2 * genus - 2:", "if abs(euler) > 2 * genus - 2:",
        "test_verify_detects_a_fault_only_one_clause_sees[milnor-wood-below-bound]",
    ),
    Mutant(
        "genus-one-accepted", "src/adsvol/errors.py",
        "value < 2:", "value < 1:",
        "test_surface_group_validation",
    ),
    Mutant(
        "word-count-short-by-a-length", "src/adsvol/admissibility.py",
        "for length in range(1, max_len + 1))", "for length in range(1, max_len))",
        "test_reduced_word_count_formula",
    ),
    Mutant(
        "ties-go-to-the-longer-word", "src/adsvol/admissibility.py",
        "or (r == best_ratio and length < len(best_witness))",
        "or (r == best_ratio and length <= len(best_witness))",
        "test_exact_ties_go_to_the_shortlex_least_word",
    ),
    Mutant(
        "products-wrong-letter-entry", "src/adsvol/admissibility.py",
        "e += cols[2 + j] * prods[2 * i + 1]", "e += cols[3 - j] * prods[2 * i + 1]",
        "words of length 2 and up are scored wrong: test_scan_matches_plain_python_reference, "
        "test_grid_scan_matches_the_masked_reference, test_scan_reproduces_the_golden_roundings",
    ),
    Mutant(
        "mask-allows-the-inverse", "src/adsvol/admissibility.py",
        "allowed = alphabet[:, None] != (letters[part, -1] ^ 1)",
        "allowed = alphabet[:, None] != letters[part, -1]",
        "the scan extends a word by its last letter's inverse, never by that letter: "
        "test_scan_matches_plain_python_reference, test_grid_scan_matches_the_masked_reference",
    ),
    Mutant(
        "relator-tolerance-x10", "src/adsvol/reps.py",
        "RELATOR_TOLERANCE = 1e-4", "RELATOR_TOLERANCE = 1e-3",
        "rep --genus 55 exits 0: test_rep_relator_gate_refuses_genus_55",
    ),
)


def stale(mutant: Mutant) -> str | None:
    """Why `mutant` cannot be applied to the checkout, or None."""
    count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
    if count != 1:
        return f"{mutant.path} holds its text {count} times, not once"
    return None


def copy_tree(dest: Path) -> None:
    """The checkout without its history, caches and build output."""
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", "*.pyc", "*.egg-info", ".pytest_cache", ".bench_work"
    )
    shutil.copytree(ROOT, dest, ignore=ignore)


def child_env(where: Path) -> dict:
    # no bytecode: a mutant and its undoing can share a size and an mtime
    return dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")


def run_tests(where: Path) -> tuple:
    """(passed, seconds) of tier-1 with -x in `where`."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--deselect", LIST_TEST],
            cwd=where, env=child_env(where), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S, check=False,
        )
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def imported_from(where: Path) -> Path:
    out = subprocess.run(
        [sys.executable, "-c", "import adsvol; print(adsvol.__file__)"],
        cwd=where, env=child_env(where), capture_output=True, text=True, check=True,
    ).stdout
    return Path(out.strip()).resolve()


def main() -> int:
    problems = [f"{m.name}: {why}" for m in MUTANTS if (why := stale(m))]
    if problems:
        print("stale mutant list:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2
    survived = 0
    with tempfile.TemporaryDirectory(prefix="adsvol-mutants-") as tmp:
        work = Path(tmp).resolve() / "repo"
        copy_tree(work)
        package = imported_from(work)
        if work not in package.parents:
            print(f"the tests would import {package}, not the copy", file=sys.stderr)
            return 2
        passed, seconds = run_tests(work)
        print(f"{'passed' if passed else 'FAILED':8} clean copy ({seconds:.1f} s)", flush=True)
        if not passed:
            return 2
        for m in MUTANTS:
            target = work / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                passed, seconds = run_tests(work)
            finally:
                target.write_text(original, encoding="utf-8")
            survived += passed
            verdict = "survived" if passed else "killed"
            print(f"{verdict:8} {m.name} ({seconds:.1f} s)", flush=True)
            if passed:
                print(f"         meant to be killed by: {m.note}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
