"""End-to-end CLI contract: JSON stdout, stderr summaries, exit codes."""

import json
import math
import random
import re
import time
import warnings
from fractions import Fraction

import pytest

from adsvol import admissibility, cli, forms, invariants, liealg, reps, verify
from adsvol.reps import save_representation
from conftest import make_noncommuting_bad_rep, make_steep_conjugate_rep, make_steep_g6_rep


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def parse_single_json(stdout):
    payload = json.loads(stdout, parse_constant=_reject_constant)
    assert isinstance(payload, dict)
    return payload


# ------------------------------------------------------------ volume / cs


def test_volume_command_worked_example(capsys):
    code, out, err = run_cli(capsys, "volume", "--e", "-2", "--f", "0", "--k", "-2")
    assert code == 0
    assert parse_single_json(out) == {
        "e": -2,
        "f": 0,
        "k": -2,
        "volume_signed_pi2": "-8/1",
        "volume_pi2": "8/1",
        "cs": "1/3",
    }
    assert "volume" in err


def test_volume_command_second_example(capsys):
    code, out, _ = run_cli(capsys, "volume", "--e", "-4", "--f", "2", "--k", "3")
    assert code == 0
    payload = parse_single_json(out)
    assert payload["volume_signed_pi2"] == "16/1"
    assert payload["cs"] == "-2/3"


def test_cs_command_worked_example(capsys):
    code, out, _ = run_cli(capsys, "cs", "--e", "-2", "--f", "0", "--k", "-2")
    assert code == 0
    assert parse_single_json(out)["cs"] == "1/3"


def test_volume_rejects_zero_degree(capsys):
    code, out, err = run_cli(capsys, "volume", "--e", "2", "--f", "0", "--k", "0")
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["volume", "--e", "2", "--f", "0", "--k", "1", "--bogus"])
    assert excinfo.value.code == 2


# ------------------------------------------------------------- rep / euler


def test_rep_then_euler_round_trip(tmp_path, capsys):
    rep_path = tmp_path / "genus2.json"
    code, out, err = run_cli(capsys, "rep", "--genus", "2", "--out", str(rep_path))
    assert code == 0
    payload = parse_single_json(out)
    assert payload["genus"] == 2
    assert payload["euler"] == -2
    assert payload["relator_residual"] < 1e-9
    assert rep_path.exists()
    assert "relator residual" in err

    code, out, err = run_cli(capsys, "euler", "--rep", str(rep_path))
    assert code == 0
    payload = parse_single_json(out)
    assert payload["euler"] == -2
    assert payload["residual"] < 1e-6
    assert "euler class" in err


def test_rep_relator_gate_refuses_genus_55(tmp_path, capsys):
    target = tmp_path / "rep55.json"
    code, out, err = run_cli(capsys, "rep", "--genus", "55", "--out", str(target))
    assert code == 1
    assert out == ""
    assert not target.exists()
    assert err.startswith("verification failure: genus 55 ")
    assert f"tolerance {reps.RELATOR_TOLERANCE}" in err


def test_rep_genus_past_float_range_exits_two(tmp_path, capsys):
    target = tmp_path / "huge.json"
    code, out, err = run_cli(capsys, "rep", "--genus", "1000000000", "--out", str(target))
    assert code == 2
    assert out == ""
    assert not target.exists()
    assert err.startswith("input error: genus 1000000000 is too large for floats")
    assert "Traceback" not in err


def test_rep_relator_gate_reads_tolerance_at_call_time(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(reps, "RELATOR_TOLERANCE", 0.0)
    target = tmp_path / "rep2.json"
    code, out, err = run_cli(capsys, "rep", "--genus", "2", "--out", str(target))
    assert code == 1
    assert out == ""
    assert not target.exists()
    assert "verification failure: genus 2 " in err


def test_euler_missing_file_exits_three(tmp_path, capsys):
    code, out, err = run_cli(capsys, "euler", "--rep", str(tmp_path / "nope.json"))
    assert code == 3
    assert out == ""
    assert "i/o error" in err


def test_rep_unwritable_path_exits_three(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "rep.json"
    code, out, err = run_cli(capsys, "rep", "--genus", "2", "--out", str(target))
    assert code == 3
    assert "i/o error" in err


def test_euler_bad_determinant_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"genus": 2, "generators": [[[2, 0], [0, 1]]] * 4}))
    code, out, err = run_cli(capsys, "euler", "--rep", str(bad))
    assert code == 2
    assert "determinant" in err


def _rep_bytes(bad_generator):
    """A genus-2 file whose generator 2 is replaced by `bad_generator`."""
    identity = [[1, 0], [0, 1]]
    generators = [identity, identity, bad_generator, identity]
    return json.dumps({"genus": 2, "generators": generators}).encode()


@pytest.mark.parametrize(
    "content, detail",
    [
        (_rep_bytes([[1, 0], [0]]), "generator 2"),
        (_rep_bytes([[1, {"a": 1}], [0, 1]]), "generator 2"),
        (_rep_bytes([["1", 0], [0, 1]]), "generator 2"),
        (_rep_bytes([[True, 0], [0, 1]]), "generator 2"),
        (_rep_bytes([[10**400, 0], [0, 1]]), "generator 2"),
        (b'{"genus": 2, "generators": "\xff\xfe"}', "UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
    ],
    ids=[
        "ragged",
        "object-entry",
        "string-entry",
        "bool-entry",
        "huge-int",
        "not-utf8",
        "deep-nesting",
    ],
)
def test_euler_malformed_file_exits_two(tmp_path, capsys, content, detail):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, "euler", "--rep", str(bad))
    assert code == 2
    assert out == ""
    assert "input error" in err
    assert detail in err


def test_euler_integrality_failure_exits_four(tmp_path, capsys):
    bad = tmp_path / "far.json"
    save_representation(make_noncommuting_bad_rep(), bad)
    code, out, err = run_cli(capsys, "euler", "--rep", str(bad))
    assert code == 4
    assert out == ""
    assert "integrality failure" in err


def test_euler_steep_conjugate_exits_zero(tmp_path, capsys):
    path = tmp_path / "steep.json"
    save_representation(make_steep_conjugate_rep(), path)
    code, out, err = run_cli(capsys, "euler", "--rep", str(path))
    assert code == 0
    payload = parse_single_json(out)
    assert payload["euler"] == -4
    assert payload["residual"] <= 1e-6


def test_euler_reads_a_steep_conjugate_whose_relator_closes(tmp_path, capsys):
    path = tmp_path / "steep6.json"
    save_representation(make_steep_g6_rep(), path)
    code, out, _ = run_cli(capsys, "euler", "--rep", str(path))
    assert code == 0
    payload = parse_single_json(out)
    assert payload["euler"] == -10
    assert payload["residual"] <= reps.RELATOR_TOLERANCE


def test_euler_overflowing_relator_exits_four(tmp_path, capsys):
    """Entries of 1e200 overflow the relator product to inf and nan; the
    gate refuses a distance that is not a number, and numpy's overflow
    warnings stay quiet, so the refusal is the only line on stderr."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"genus": 2, "generators": [
        [[1e200, 0.0], [0.0, 1e-200]], [[0.0, -1.0], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]],
    ]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "euler", "--rep", str(path))
    assert [str(w.message) for w in caught] == []
    assert code == 4
    assert out == ""
    assert err == (
        "integrality failure: relator residual nan exceeds tolerance "
        f"{reps.RELATOR_TOLERANCE}, so no Euler class can be read\n"
    )


# -------------------------------------------------------------- lipschitz


def test_lipschitz_identity_pair(tmp_path, capsys):
    rep_path = tmp_path / "rho.json"
    save_representation(reps.fuchsian_regular_polygon(2), rep_path)
    code, out, err = run_cli(
        capsys,
        "lipschitz",
        "--rho", str(rep_path),
        "--sigma", str(rep_path),
        "--max-word-len", "3",
    )
    assert code == 0
    payload = parse_single_json(out)
    assert abs(payload["lipschitz_lower_bound"] - 1.0) <= 1e-10
    assert payload["euler_rho"] == -2
    assert payload["euler_sigma"] == -2
    assert payload["verdict"] == "refuted"
    assert payload["witness"] == [1]
    assert "verdict" in err


def test_lipschitz_genus_mismatch_exits_two(tmp_path, capsys):
    rho_path = tmp_path / "rho.json"
    sigma_path = tmp_path / "sigma.json"
    save_representation(reps.fuchsian_regular_polygon(2), rho_path)
    save_representation(reps.fuchsian_regular_polygon(3), sigma_path)
    code, _, err = run_cli(
        capsys, "lipschitz", "--rho", str(rho_path), "--sigma", str(sigma_path)
    )
    assert code == 2
    assert "input error" in err


def test_lipschitz_depth_past_the_cap_exits_two_at_once(tmp_path, capsys):
    # 5089 is the first genus-2 depth whose word count has more than
    # 4300 digits, past what int to str conversion allows
    rep_path = tmp_path / "rho.json"
    save_representation(reps.fuchsian_regular_polygon(2), rep_path)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "lipschitz", "--rho", str(rep_path), "--sigma", str(rep_path),
        "--max-word-len", "5089",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("input error: scanning to depth 5089 goes over the cap")
    assert "Traceback" not in err


def _overflowing_sigma(tmp_path):
    """Four copies of diag(1e60, 1e-60): Euler class 0 and a relator that
    closes, but words of length 6 overflow their products to inf."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"genus": 2, "generators": [[[1e60, 0.0], [0.0, 1e-60]]] * 4}
    ))
    return path


def test_lipschitz_overflowing_products_exit_two(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    save_representation(reps.fuchsian_regular_polygon(2), rho)
    sigma = _overflowing_sigma(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "lipschitz", "--rho", str(rho), "--sigma", str(sigma),
            "--max-word-len", "6",
        )
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert out == ""
    assert err == (
        "input error: word products leave the float range by length 6; "
        "scan a shorter depth\n"
    )


def test_lipschitz_overflowing_sigma_reads_a_finite_bound_below_the_overflow(
    tmp_path, capsys
):
    rho = tmp_path / "rho.json"
    save_representation(reps.fuchsian_regular_polygon(2), rho)
    code, out, _ = run_cli(
        capsys, "lipschitz", "--rho", str(rho), "--sigma", str(_overflowing_sigma(tmp_path)),
        "--max-word-len", "5",
    )
    assert code == 0
    bound = parse_single_json(out)["lipschitz_lower_bound"]
    assert math.isfinite(bound) and bound > 1.0


def _unclosed_rep():
    """The g=2 polygon conjugated by diag(1e6, 1e-6) R(0.7): steep enough
    that its relator misses by about 1.8e-2, though its orientation
    signs still sum to the class -2; euler_class refuses it on the
    relator."""
    conj = reps.Moebius([[1e6, 0.0], [0.0, 1e-6]]) * reps.Moebius.rotation(0.7)
    return reps.conjugate(reps.fuchsian_regular_polygon(2), conj)


@pytest.mark.parametrize(
    "argv",
    [
        ["euler", "--rep", "{steep}"],
        ["lipschitz", "--rho", "{steep}", "--sigma", "{steep}", "--max-word-len", "3"],
        ["lipschitz", "--rho", "{clean}", "--sigma", "{steep}", "--max-word-len", "2"],
    ],
    ids=["euler", "lipschitz-rho", "lipschitz-sigma"],
)
def test_commands_reading_a_rep_gate_its_relator(tmp_path, capsys, argv):
    steep, clean = tmp_path / "steep.json", tmp_path / "clean.json"
    save_representation(_unclosed_rep(), steep)
    save_representation(reps.fuchsian_regular_polygon(2), clean)
    residual = reps.relator_residual(reps.load_representation(steep))
    assert residual > 100 * reps.RELATOR_TOLERANCE
    code, out, err = run_cli(
        capsys, *(arg.format(steep=steep, clean=clean) for arg in argv)
    )
    assert code == 4
    assert out == ""
    # the residual named is that of the relator product euler_class builds
    match = re.fullmatch(
        rf"integrality failure: relator residual (\S+) exceeds tolerance "
        rf"{re.escape(str(reps.RELATOR_TOLERANCE))}, so no Euler class can be read\n",
        err,
    )
    assert match
    assert residual / 2 <= float(match[1]) <= residual * 2


def test_lipschitz_refuses_an_unclosed_file_before_scanning(tmp_path, capsys, monkeypatch):
    def no_scan(*_args, **_kwargs):
        raise AssertionError("the scan ran on a representation that does not close")

    monkeypatch.setattr(admissibility, "lipschitz_lower_bound", no_scan)
    steep = tmp_path / "steep.json"
    save_representation(_unclosed_rep(), steep)
    code, out, _ = run_cli(
        capsys, "lipschitz", "--rho", str(steep), "--sigma", str(steep), "--max-word-len", "8"
    )
    assert code == 4
    assert out == ""


# ----------------------------------------------------------------- verify


def test_verify_passes_on_clean_build(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    payload = parse_single_json(out)
    assert payload["all_passed"] is True
    names = {check["name"] for check in payload["checks"]}
    assert {"jacobi", "curvature-path", "calibration", "milnor-wood"} <= names
    assert all(check["passed"] for check in payload["checks"])
    assert err.count("PASS") == len(payload["checks"])


@pytest.mark.parametrize(
    "normalization, failing",
    [
        # a rescaled metric keeps its signature: only calibration sees it
        pytest.param(1, {"calibration"}, id="rescaled"),
        # a negated one has signature (+, -, -): jacobi's Sylvester check too
        pytest.param(-2, {"jacobi", "calibration"}, id="negated"),
    ],
)
def test_verify_detects_metric_normalization_fault(
    capsys, monkeypatch, normalization, failing
):
    monkeypatch.setattr(liealg, "METRIC_NORMALIZATION", Fraction(normalization))
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    payload = parse_single_json(out)
    assert payload["all_passed"] is False
    assert {c["name"] for c in payload["checks"] if not c["passed"]} == failing
    for name in failing:
        assert f"FAIL {name}" in err


def test_verify_detects_curvature_sign_fault(capsys, monkeypatch):
    true_curvature = forms.curvature_at

    def flipped(path):
        return -1 * true_curvature(path)

    monkeypatch.setattr(forms, "curvature_at", flipped)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    payload = parse_single_json(out)
    failing = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert failing == {"curvature-path"}


@pytest.mark.parametrize(
    "name, fault, failing",
    [
        ("cs_rho_id", lambda true: lambda f, k: 2 * true(f, k),
         {"unit-tangent", "chasles"}),
        ("cs_pair", lambda true: lambda d: -true(d),
         {"vol-cs", "chasles", "calibration"}),
        ("volume", lambda true: lambda d: -true(d),
         {"vol-cs", "unit-tangent", "calibration"}),
        ("volume", lambda true: lambda d: 2 * true(d),
         {"vol-cs", "unit-tangent", "calibration"}),
    ],
    ids=["cs_rho_id-doubled", "cs_pair-negated", "volume-negated", "volume-doubled"],
)
def test_verify_detects_cs_formula_faults(capsys, monkeypatch, name, fault, failing):
    # cs_pair is a closed form of its own, so chasles compares two
    # formulas and catches a fault in either; the rows are those of the
    # README's mutant table
    monkeypatch.setattr(invariants, name, fault(getattr(invariants, name)))
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    payload = parse_single_json(out)
    assert {c["name"] for c in payload["checks"] if not c["passed"]} == failing


def _flip_h(true):
    """[E, F] = -H: one structure constant with its sign flipped."""
    def bracket(x, y):
        a, b, c = true(x, y).coords
        return liealg.LieElement.of(-a, b, c)
    return bracket


def _triple_e(true):
    """[H, E] = 3E: one structure constant rescaled."""
    def bracket(x, y):
        a, b, c = true(x, y).coords
        return liealg.LieElement.of(a, Fraction(3, 2) * b, c)
    return bracket


def _cubic(true):
    """A term a*b*c*H, cubic in x: zero whenever x is a basis element."""
    def bracket(x, y):
        a, b, c = x.coords
        return true(x, y) + (a * b * c) * liealg.H
    return bracket


def _jacobi(monkeypatch, fault=None, sample=None):
    """check_jacobi with `fault` applied to the bracket and, if given,
    `sample` random triples beside the basis triples."""
    with monkeypatch.context() as patch:
        if fault is not None:
            patch.setattr(liealg, "bracket", fault(liealg.bracket))
        if sample is not None:
            patch.setattr(verify, "JACOBI_SAMPLE", sample)
        return verify.check_jacobi(random.Random(verify.SEED))


def test_jacobi_basis_triples_pass_a_clean_build(monkeypatch):
    assert _jacobi(monkeypatch, sample=0)[0] is True


@pytest.mark.parametrize("fault", [_flip_h, _triple_e], ids=["flip-h", "triple-e"])
def test_jacobi_basis_triples_catch_a_bilinear_fault(monkeypatch, fault):
    # the identities are multilinear, so no random triple is needed
    assert _jacobi(monkeypatch, fault, sample=0)[0] is False


def test_jacobi_sample_catches_a_fault_that_vanishes_on_the_basis(monkeypatch):
    assert _jacobi(monkeypatch, _cubic, sample=0)[0] is True
    passed, detail = _jacobi(monkeypatch, _cubic)
    assert passed is False
    assert detail.startswith("Jacobi identity fails on")


# ------------------------------------------------------------- plumbing


VERIFY_SUMMARY = """\
PASS jacobi: bracket axioms, trace identities and signature (+,+,-)
PASS maurer-cartan: dA + (1/2)[A^A] = 0 exactly; rescaling detected
PASS curvature-path: R(t) = ((t^2-t)/2)[A^A] at 11 points, flat endpoints
PASS vol-cs: vol_from_cs(cs_pair(d)) = signed volume on 10^4 random d
PASS unit-tangent: unit tangent volume and cs identities for e in [-50, -2]
PASS chasles: cs_pair = chasles(cs_rho_id(e,k), -cs_rho_id(f,k)) on 200 random d
PASS degree: cs_scale multiplicative; degree-k pullback matches k = 1 values
PASS milnor-wood: Euler classes: trivial 0, polygon +-(2g-2), elliptic 0, bound holds
PASS calibration: metric calibration, omega ratio -2, kappa -4, calibration -1
"""


def test_every_summary_line_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = [
        (
            ("volume", "--e", "-2", "--f", "0", "--k", "-2"),
            "volume of (e=-2, f=0, k=-2): 8/1 * pi^2 (signed -8/1)\n",
        ),
        (
            ("cs", "--e", "-4", "--f", "2", "--k", "3"),
            "chern-simons of (e=-4, f=2, k=3): -2/3\n",
        ),
        (
            ("rep", "--genus", "2", "--out", "r.json"),
            "genus 2: wrote r.json; relator residual 1.186e-14, "
            "euler class -2 (residual 0.000e+00)\n",
        ),
        (
            ("euler", "--rep", "r.json"),
            "euler class -2, integrality residual 0.000e+00\n",
        ),
        (
            ("lipschitz", "--rho", "r.json", "--sigma", "r.json", "--max-word-len", "2"),
            "lower bound 1 over 64 words; verdict refuted\n",
        ),
        (("verify",), VERIFY_SUMMARY),
    ]
    for argv, summary in expected:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, argv
        assert err == summary, argv


def test_every_success_path_emits_single_json_line(tmp_path, capsys):
    rep_path = tmp_path / "r.json"
    commands = [
        ("rep", "--genus", "2", "--out", str(rep_path)),
        ("euler", "--rep", str(rep_path)),
        ("volume", "--e", "3", "--f", "1", "--k", "2"),
        ("cs", "--e", "3", "--f", "1", "--k", "2"),
        ("lipschitz", "--rho", str(rep_path), "--sigma", str(rep_path),
         "--max-word-len", "2"),
        ("verify",),
    ]
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(out.strip().splitlines()) == 1
        parse_single_json(out)


def test_module_entrypoint_matches_script():
    from adsvol import __main__  # noqa: F401  (import must not execute main)

    assert callable(cli.entrypoint)
