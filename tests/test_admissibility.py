"""Reduced-word counts and the Lipschitz-ratio lower bound."""

import math
import tracemalloc

import pytest

from _oracles import naive_reduced_words, shortlex_key
from conftest import make_pinched_rep
from adsvol import admissibility, reps
from adsvol.admissibility import (
    VERDICT_NOT_REFUTED,
    VERDICT_REFUTED,
    admissibility_report,
    letter_order,
    lipschitz_lower_bound,
    reduced_word_count,
    report_json,
)
from adsvol.errors import InputError
from adsvol.reps import Moebius, Representation, SurfaceGroup, Word, translation_length


# ----------------------------------------------------------- word counts


def test_reduced_word_count_formula():
    # 4g first letters, 4g - 1 extensions afterwards
    assert reduced_word_count(2, 1) == 8
    assert reduced_word_count(2, 2) == 8 + 8 * 7
    assert reduced_word_count(2, 3) == 8 + 56 + 392
    assert reduced_word_count(3, 2) == 12 + 12 * 11
    # the scan's letter order, which its shortlex ties follow
    assert letter_order(2) == [1, -1, 2, -2, 3, -3, 4, -4]


# ----------------------------------------------------------- lower bound


def test_identity_pair_bound_is_one(fuchsian_g2):
    est = lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=3)
    assert abs(est.lower_bound - 1.0) <= 1e-10
    assert est.witness == Word((1,))
    assert est.words_scanned == reduced_word_count(2, 3)


def test_trivial_target_bound_is_zero(fuchsian_g2):
    est = lipschitz_lower_bound(fuchsian_g2, reps.trivial_representation(2), max_len=3)
    assert est.lower_bound == 0.0
    # every ratio ties at zero, so the witness is the shortlex-least word
    assert est.witness == Word((1,))


def test_conjugated_target_bound_stays_one(fuchsian_g2, rng):
    g = Moebius([[1.3, 0.4], [0.1, 1.0]])
    sigma = reps.conjugate(fuchsian_g2, g)
    est = lipschitz_lower_bound(fuchsian_g2, sigma, max_len=4)
    assert abs(est.lower_bound - 1.0) <= 1e-8


def test_bound_matches_naive_maximum(fuchsian_g2, rng):
    g = Moebius.rotation(0.3)
    sigma = reps.conjugate(fuchsian_g2, g)
    est = lipschitz_lower_bound(fuchsian_g2, sigma, max_len=3)
    best = 0.0
    for letters in naive_reduced_words(2, 3):
        word = Word(letters)
        denom = translation_length(reps.evaluate(fuchsian_g2, word))
        if denom <= admissibility.DENOMINATOR_FLOOR:
            continue
        numer = translation_length(reps.evaluate(sigma, word))
        best = max(best, numer / denom)
    assert math.isclose(est.lower_bound, best, rel_tol=0, abs_tol=1e-12)


def test_bound_monotone_in_depth(fuchsian_g2):
    sigma = reps.conjugate(fuchsian_g2, Moebius([[1.1, 0.2], [0.3, 1.0]]))
    bounds = [
        lipschitz_lower_bound(fuchsian_g2, sigma, max_len=n).lower_bound
        for n in range(1, 5)
    ]
    assert all(b >= a for a, b in zip(bounds, bounds[1:]))


# ------------------------------------------- batched scan vs plain Python


def _reference_lengths(rep, genus, max_len):
    """letters -> translation length of the image, in plain Python.

    Each word's product is its prefix's product times one generator,
    written out entry by entry (naive_reduced_words grows breadth-first,
    so every prefix comes first).  Moebius products would renormalise
    and reassociate; on words like (-6, 3, 6) at genus 3, a generator
    conjugated by a long letter, the ratio then moves by up to ~1e-11
    against the left-to-right float product, which is rounding, not a
    scan fault."""
    images = {(): (1.0, 0.0, 0.0, 1.0)}
    lengths = {}
    for letters in naive_reduced_words(genus, max_len):
        a, b, c, d = images[letters[:-1]]
        ga, gb, gc, gd = (float(x) for x in rep.generator(letters[-1]).mat.flat)
        product = (a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd)
        images[letters] = product
        half = abs(product[0] + product[3]) / 2.0
        lengths[letters] = 2.0 * math.acosh(half) if half > 1.0 else 0.0
    return lengths


def _check_against_reference(rho, sigma, rho_lengths, sigma_lengths, max_len):
    floor = admissibility.DENOMINATOR_FLOOR
    est = lipschitz_lower_bound(rho, sigma, max_len=max_len)
    words = [w for w in rho_lengths if len(w) <= max_len]
    ratios = [
        sigma_lengths[w] / rho_lengths[w] for w in words if rho_lengths[w] > floor
    ]
    assert est.words_scanned == len(words)
    assert math.isclose(est.lower_bound, max(ratios), rel_tol=0, abs_tol=1e-12)
    witness = Word(est.witness.letters)  # rejects an unreduced word
    assert 1 <= len(witness) <= max_len
    assert rho_lengths[witness.letters] > floor
    ratio = sigma_lengths[witness.letters] / rho_lengths[witness.letters]
    assert math.isclose(ratio, est.lower_bound, rel_tol=0, abs_tol=1e-12)
    return est


@pytest.mark.parametrize("genus, max_len", [(2, 5), (3, 4)])
def test_scan_matches_plain_python_reference(genus, max_len, monkeypatch):
    rho = reps.fuchsian_regular_polygon(genus)
    rho_lengths = _reference_lengths(rho, genus, max_len)
    conj = reps.conjugate(rho, Moebius([[1.3, 0.4], [0.1, 1.0]]))
    conj_lengths = _reference_lengths(conj, genus, max_len)
    for sigma in (conj, make_pinched_rep(genus), reps.trivial_representation(genus)):
        sigma_lengths = (
            conj_lengths
            if sigma is conj
            else _reference_lengths(sigma, genus, max_len)
        )
        for n in range(1, max_len + 1):
            _check_against_reference(rho, sigma, rho_lengths, sigma_lengths, n)
    # a floor above every generator's length leaves only longer words
    floor = 1.5 * max(rho_lengths[(letter,)] for letter in letter_order(genus))
    monkeypatch.setattr(admissibility, "DENOMINATOR_FLOOR", floor)
    est = _check_against_reference(rho, conj, rho_lengths, conj_lengths, max_len)
    assert len(est.witness) >= 2


def test_identity_and_trivial_ties_are_exact_at_depth_six(fuchsian_g2):
    # identical products give identical lengths, so every ratio is
    # exactly 1 (resp. 0) and the shortlex-least word wins the tie
    est = lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=6)
    assert (est.lower_bound, est.witness) == (1.0, Word((1,)))
    trivial = reps.trivial_representation(2)
    est = lipschitz_lower_bound(fuchsian_g2, trivial, max_len=6)
    assert (est.lower_bound, est.witness) == (0.0, Word((1,)))


@pytest.mark.parametrize("block_rows", [None, 7])
def test_exact_ties_go_to_the_shortlex_least_word(fuchsian_g2, monkeypatch, block_rows):
    # against rho itself every ratio is exactly 1, against the trivial
    # rep exactly 0, so the witness is the shortlex-least word whose
    # rho-length clears the floor; tiny blocks make a shorter word turn
    # up after longer ones
    if block_rows is not None:
        monkeypatch.setattr(admissibility, "_BLOCK_ROWS", block_rows)
    lengths = _reference_lengths(fuchsian_g2, 2, 4)
    floors = sorted({round(v, 9) for w, v in lengths.items() if len(w) <= 3})
    for floor in floors[:-1]:
        monkeypatch.setattr(admissibility, "DENOMINATOR_FLOOR", floor)
        want = min(
            (w for w, v in lengths.items() if v > floor),
            key=lambda w: shortlex_key(w, 2),
        )
        for sigma, ratio in (
            (fuchsian_g2, 1.0),
            (reps.trivial_representation(2), 0.0),
        ):
            est = lipschitz_lower_bound(fuchsian_g2, sigma, max_len=4)
            assert (est.lower_bound, est.witness) == (ratio, Word(want)), floor


def test_block_boundaries_do_not_change_the_result(
    fuchsian_g2, fuchsian_g3, monkeypatch
):
    shear = Moebius([[1.2, 0.1], [0.4, 1.0]])
    pairs = [
        (fuchsian_g2, reps.conjugate(fuchsian_g2, shear), 5),
        (fuchsian_g2, reps.trivial_representation(2), 5),
        (fuchsian_g3, reps.conjugate(fuchsian_g3, shear), 3),
    ]

    def run(rho, sigma, n):
        est = lipschitz_lower_bound(rho, sigma, max_len=n)
        return est.lower_bound, est.witness, est.words_scanned

    default = [run(*pair) for pair in pairs]
    # 7 rows is less than one parent's children at genus 3; 21 rows make
    # 3-row blocks at genus 2, which split the 8 generator rows of the
    # first frontier 3/3/2
    for block_rows in (7, 21):
        monkeypatch.setattr(admissibility, "_BLOCK_ROWS", block_rows)
        assert [run(*pair) for pair in pairs] == default, block_rows


def test_scan_memory_is_bounded_by_the_block(fuchsian_g2):
    # a g=2, L=7 scan covers 1.1 M words; blocked it peaks near 2.5 MB,
    # while the rho and sigma products of the whole last frontier
    # (941,192 rows) would take 60 MB
    sigma = reps.conjugate(fuchsian_g2, Moebius([[1.2, 0.1], [0.4, 1.0]]))
    tracemalloc.start()
    try:
        est = lipschitz_lower_bound(fuchsian_g2, sigma, max_len=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.words_scanned == reduced_word_count(2, 7)
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_genus_mismatch_rejected(fuchsian_g2, fuchsian_g3):
    with pytest.raises(InputError):
        lipschitz_lower_bound(fuchsian_g2, fuchsian_g3, max_len=2)


def test_invalid_parameters_rejected(fuchsian_g2):
    with pytest.raises(InputError):
        lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=0)


@pytest.mark.parametrize(
    "max_len, message",
    [
        (True, "max_len must be an integer, got True"),
        (1.0, "max_len must be an integer, got 1.0"),
        (0, "max_len must be an integer >= 1"),
    ],
)
def test_max_len_must_be_a_positive_int(fuchsian_g2, max_len, message):
    for entry in (lipschitz_lower_bound, admissibility_report):
        with pytest.raises(InputError) as info:
            entry(fuchsian_g2, fuchsian_g2, max_len=max_len)
        assert str(info.value) == message


def test_denominator_floor_is_read_at_call_time(fuchsian_g2, monkeypatch):
    est = lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=2)
    assert (est.lower_bound, est.witness) == (1.0, Word((1,)))
    # the g=2 polygon's generators share one length up to rounding, so
    # 1.5 times it leaves only words of length 2, such as a1^2
    floor = 1.5 * translation_length(fuchsian_g2.images[0])
    monkeypatch.setattr(admissibility, "DENOMINATOR_FLOOR", floor)
    est = lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=2)
    assert est.lower_bound == 1.0 and len(est.witness) == 2


def test_word_budget_cap(fuchsian_g2, monkeypatch):
    monkeypatch.setenv(admissibility.MAX_WORDS_ENV, "100")
    with pytest.raises(InputError):
        lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=3)
    monkeypatch.setenv(admissibility.MAX_WORDS_ENV, "not-a-number")
    with pytest.raises(InputError):
        lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=2)


# --------------------------------------------------------------- report


def test_report_identity_pair_is_refuted(fuchsian_g2):
    report = admissibility_report(fuchsian_g2, fuchsian_g2, max_len=2)
    assert report.verdict == VERDICT_REFUTED
    assert report.euler_rho == report.euler_sigma == -2
    assert abs(report.lipschitz.lower_bound - 1.0) <= 1e-10


def test_report_trivial_target_not_refuted(fuchsian_g2):
    report = admissibility_report(
        fuchsian_g2, reps.trivial_representation(2), max_len=2
    )
    assert report.verdict == VERDICT_NOT_REFUTED
    assert report.euler_sigma == 0
    assert report.lipschitz.lower_bound == 0.0


def test_report_extremal_sigma_refutes_even_with_zero_bound(fuchsian_g2, monkeypatch):
    # a huge denominator floor suppresses every ratio, so refutation
    # can only come from the extremal target Euler number
    monkeypatch.setattr(admissibility, "DENOMINATOR_FLOOR", 1e9)
    report = admissibility_report(fuchsian_g2, fuchsian_g2, max_len=1)
    assert report.lipschitz.lower_bound == 0.0
    assert report.lipschitz.witness is None
    assert abs(report.euler_sigma) == 2
    assert report.verdict == VERDICT_REFUTED


def test_report_requires_extremal_source():
    with pytest.raises(InputError):
        admissibility_report(
            reps.trivial_representation(2), reps.trivial_representation(2), max_len=2
        )


def test_report_json_schema(fuchsian_g2):
    payload = report_json(admissibility_report(fuchsian_g2, fuchsian_g2, max_len=2))
    assert set(payload) == {
        "euler_rho",
        "euler_sigma",
        "lipschitz_lower_bound",
        "witness",
        "max_word_length",
        "verdict",
    }
    assert payload["euler_rho"] == -2
    assert payload["witness"] == [1]
    assert payload["max_word_length"] == 2
    assert isinstance(payload["lipschitz_lower_bound"], float)
