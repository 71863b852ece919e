"""Tests of the benchmark's own pieces.

    python3 -m pytest bench -q
"""

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
from run import tail  # noqa: E402

# a = diag(2, 1/2), b = the unipotent [[1, 1], [0, 1]]
A = [[2.0, 0.0], [0.0, 0.5]]
B = [[1.0, 1.0], [0.0, 1.0]]


# ------------------------------------------------------------ trace oracle


def test_exact_trace_by_hand():
    gens = [A, B]
    # a b = [[2, 2], [0, 1/2]]; a b^-1 = [[2, -2], [0, 1/2]]; a a b = [[4, 4], [0, 1/4]]
    assert oracles.exact_trace(gens, (1, 2)) == Fraction(5, 2)
    assert oracles.exact_trace(gens, (1, -2)) == Fraction(5, 2)
    assert oracles.exact_trace(gens, (1, 1, 2)) == Fraction(17, 4)
    # b a^-1 = [[1/2, 2], [0, 2]]: the inverse is the adjugate
    assert oracles.exact_trace(gens, (2, -1)) == Fraction(5, 2)


def test_exact_trace_keeps_binary_rationals():
    gens = [[[0.1, 0.0], [0.0, 10.0]], B]
    assert oracles.exact_trace(gens, (1,)) == Fraction(0.1) + 10


def test_length_and_ratio_from_exact_traces():
    # |tr| = 5/2 gives 2 arccosh(5/4) = 2 log 2
    assert math.isclose(oracles.length_from_trace(Fraction(5, 2)), 2 * math.log(2), rel_tol=1e-15)
    assert oracles.length_from_trace(Fraction(2)) == 0.0
    assert oracles.length_from_trace(Fraction(-1)) == 0.0
    rho = [A, B]
    sigma = [[[4.0, 0.0], [0.0, 0.25]], B]
    # sigma(a b) = [[4, 4], [0, 1/4]]: 2 arccosh(17/8) over 2 arccosh(5/4)
    expected = math.acosh(17 / 8) / math.acosh(5 / 4)
    assert math.isclose(oracles.exact_ratio(rho, sigma, (1, 2)), expected, rel_tol=1e-15)


def _payload(bound, witness, verdict="not_refuted", euler_sigma=0):
    return {
        "euler_rho": -2,
        "euler_sigma": euler_sigma,
        "lipschitz_lower_bound": bound,
        "witness": list(witness),
        "max_word_length": 3,
        "verdict": verdict,
    }


def test_admissibility_check_recomputes_the_witness_ratio():
    rho = [A, B, A, B]
    sigma = [[[4.0, 0.0], [0.0, 0.25]], B, A, B]
    ratio = oracles.exact_ratio(rho, sigma, (1, 2))
    ok = _payload(ratio, (1, 2), verdict="refuted")
    # expected_max is the witness ratio here: this test is about the witness
    assert oracles.check_admissibility(ok, rho, sigma, "pinched", 2, 3, ratio) == []
    off = _payload(ratio * (1 + 1e-6), (1, 2), verdict="refuted")
    assert any("exact witness ratio" in p for p in oracles.check_admissibility(off, rho, sigma, "pinched", 2, 3, ratio))
    wrong_verdict = _payload(ratio, (1, 2), verdict="not_refuted")
    assert any("verdict" in p for p in oracles.check_admissibility(wrong_verdict, rho, sigma, "pinched", 2, 3, ratio))
    unreduced = _payload(ratio, (1, -1, 2), verdict="refuted")
    assert any("reduced" in p for p in oracles.check_admissibility(unreduced, rho, sigma, "pinched", 2, 3, ratio))


def test_admissibility_check_verdict_from_maximal_euler_class():
    rho = [A, B, A, B]
    payload = _payload(1.0, (1,), verdict="refuted", euler_sigma=-2)
    # a conjugate of rho: euler -2 refutes although the bound alone is 1
    assert oracles.check_admissibility(payload, rho, rho, "conjugated", 2, 3, 1.0) == []
    tied = _payload(0.0, (3,), euler_sigma=0)
    trivial = [[[1.0, 0.0], [0.0, 1.0]]] * 4
    assert any("shortlex" in p for p in oracles.check_admissibility(tied, rho, trivial, "trivial", 2, 3, 0.0))


def _best_word(rho, sigma, genus, max_len):
    """(ratio, word) of the exact-trace brute force over reduced words."""
    letters = [x for i in range(1, 2 * genus + 1) for x in (i, -i)]
    best = (0.0, ())
    for length in range(1, max_len + 1):
        for word in itertools.product(letters, repeat=length):
            if oracles.is_reduced_word(word, genus, max_len):
                if oracles.length_from_trace(oracles.exact_trace(rho, word)) > oracles.DENOMINATOR_FLOOR:
                    best = max(best, (oracles.exact_ratio(rho, sigma, word), word))
    return best


def test_max_ratio_matches_the_exact_brute_force():
    rho = [A, B, A, B]
    sigma = [[[2.0, 1.0], [1.0, 1.0]], A, B, [[1.0, 0.0], [1.0, 1.0]]]
    for max_len in (1, 2, 3):
        exact, _ = _best_word(rho, sigma, 2, max_len)
        assert math.isclose(oracles.max_ratio(rho, sigma, 2, max_len), exact, rel_tol=1e-12)
    trivial = [[[1.0, 0.0], [0.0, 1.0]]] * 4
    assert oracles.max_ratio(rho, trivial, 2, 3) == 0.0


def test_truncated_scan_is_rejected():
    # sigma grows faster on longer words: the best word of length <= 2
    # has a witness ratio that checks out, but it is not the maximum
    rho = [A, B, A, B]
    sigma = [[[2.0, 1.0], [1.0, 1.0]], A, B, [[1.0, 0.0], [1.0, 1.0]]]
    expected = oracles.max_ratio(rho, sigma, 2, 3)
    full_ratio, full_word = _best_word(rho, sigma, 2, 3)
    short_ratio, short_word = _best_word(rho, sigma, 2, 2)
    assert short_ratio < expected - 0.5
    full = _payload(full_ratio, full_word, verdict="refuted")
    assert oracles.check_admissibility(full, rho, sigma, "unrelated_elliptic", 2, 3, expected) == []
    truncated = _payload(short_ratio, short_word, verdict="refuted")
    problems = oracles.check_admissibility(truncated, rho, sigma, "unrelated_elliptic", 2, 3, expected)
    assert problems and all("not the maximum" in p for p in problems)


# ------------------------------------------------------ expectation tables


def test_euler_expectations():
    assert oracles.euler_ok("conjugated", 2, (-2, 0.0))
    assert not oracles.euler_ok("conjugated", 2, (2, 0.0))
    assert oracles.euler_ok("flipped", 3, (4, 1e-12))
    assert not oracles.euler_ok("flipped", 3, (-4, 0.0))
    assert oracles.euler_ok("elliptic_powers", 2, (0, 0.0))
    assert not oracles.euler_ok("elliptic_powers", 2, (0, 1e-3))  # above the gate
    assert oracles.euler_ok("unrelated_elliptic", 2, (2, 0.0))
    assert not oracles.euler_ok("unrelated_elliptic", 2, (3, 0.0))  # Milnor-Wood
    assert oracles.euler_ok("unrelated_elliptic", 2, oracles.GATE)
    assert oracles.euler_ok("fault", 2, oracles.GATE)
    assert not oracles.euler_ok("fault", 2, (0, 0.0))
    assert not oracles.euler_ok("conjugated", 2, oracles.GATE)


def test_exit_code_table():
    assert oracles.EXIT_CODES == {
        "rep": 0, "euler": 0, "lipschitz": 0, "volume": 0, "cs": 0, "verify": 0,
        "volume_k0": 2, "euler_malformed": 2, "euler_fault": 4,
    }
    assert oracles.check_cli("volume_k0", 2, b"", None) == []
    assert oracles.check_cli("euler_fault", 4, b"", None) == []
    assert oracles.check_cli("euler_fault", 0, b"", None)
    assert oracles.check_cli("euler_malformed", 2, b"{}\n", None)


def test_descriptor_record_matches_the_readme_example():
    expected = (b'{"e": -2, "f": 0, "k": -2, "volume_signed_pi2": "-8/1", '
                b'"volume_pi2": "8/1", "cs": "1/3"}\n')
    stdout = oracles.dumps(oracles.descriptor_record(-2, 0, -2))
    assert stdout == expected
    assert oracles.check_cli("volume", 0, stdout, expected) == []
    assert oracles.check_cli("volume", 0, stdout.replace(b"1/3", b"2/6"), expected)
    record = oracles.descriptor_record(-4, 2, 3)
    assert (record["volume_signed_pi2"], record["cs"]) == ("16/1", "-2/3")


def test_relator_residual_of_a_commuting_pair():
    # diag matrices commute, so every commutator is exactly the identity
    diag = [[2.0, 0.0], [0.0, 0.5]]
    assert oracles.exact_relator_residual([diag, diag, diag, diag]) == 0.0
    assert oracles.exact_relator_residual([A, B, A, B]) > 0.1
    assert oracles.residual_consistent(1e-13, 0.0)
    assert oracles.residual_consistent(5e-12, 2e-12)
    assert oracles.residual_consistent(3e-7, 2e-7)
    assert not oracles.residual_consistent(1e-6, 2e-7)
    assert not oracles.residual_consistent(1e-9, 0.0)


# ------------------------------------------------------------------ tracer


def test_self_time_on_a_synthetic_span_tree():
    tr = tracer.Tracer()
    root = tr.record("reps.root", 0.0, 10.0)
    a = tr.record("reps.a", 1.0, 4.0, root)
    tr.record("liealg.leaf", 2.0, 3.0, a)
    tr.record("forms.b", 5.0, 7.0, root)
    assert tr.self_times() == [5.0, 2.0, 1.0, 2.0]
    summary = tr.summary()
    assert summary["reps.root"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert summary["liealg.leaf"]["self_s"] == 1.0


def test_self_time_counts_overlapping_children_once():
    tr = tracer.Tracer()
    root = tr.record("x.root", 0.0, 10.0)
    tr.record("x.c1", 1.0, 5.0, root)
    tr.record("x.c2", 3.0, 6.0, root)  # overlaps c1 on [3, 5]
    tr.record("x.c3", 9.0, 12.0, root)  # runs past the parent's end
    assert tr.self_times()[0] == 10.0 - 5.0 - 1.0


def test_recursive_spans_count_total_time_once():
    tr = tracer.Tracer()
    outer = tr.record("x.f", 0.0, 4.0)
    tr.record("x.f", 1.0, 3.0, outer)
    entry = tr.summary()["x.f"]
    assert entry == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_install_catches_names_rebound_by_from_import():
    import adsvol
    import adsvol.cli  # noqa: F401

    original = adsvol.admissibility.euler_class
    tr = tracer.Tracer()
    undo = tracer.install(tr, adsvol)
    try:
        assert adsvol.admissibility.euler_class is adsvol.reps.euler_class
        assert adsvol.forms.bracket is adsvol.liealg.bracket
        rho = adsvol.reps.fuchsian_regular_polygon(2)
        adsvol.admissibility.admissibility_report(rho, rho, max_len=1)
        adsvol.verify.CHECKS[1][1](None)  # maurer-cartan, through the table
    finally:
        tracer.uninstall(undo)
    assert adsvol.admissibility.euler_class is original
    names = [tr.names[i] for i in tr.name_id]
    parents = [tr.names[tr.name_id[p]] if p >= 0 else None for p in tr.parent]
    euler_parents = {p for n, p in zip(names, parents) if n == "reps.euler_class"}
    assert euler_parents == {"admissibility.admissibility_report"}
    assert "admissibility.lipschitz_lower_bound" in names
    assert "verify.check_maurer_cartan" in names
    assert "forms.maurer_cartan_residual" in names


def test_tail_is_median_of_pass_maxima():
    # one fast outlier among the slowest operation does not move it
    passes = [[1, 2, 9], [1, 3, 8], [2, 2, 1], [1, 1, 10]]
    assert tail(passes) == 8.5
    assert tail([[3, 1, 2]]) == 3
