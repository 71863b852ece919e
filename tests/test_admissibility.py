"""Reduced-word counts and the Lipschitz-ratio lower bound."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    evaluate,
    masked_reference_scan,
    naive_reduced_words,
    shortlex_key,
    translation_length,
)
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
from adsvol.reps import Moebius, Representation, SurfaceGroup, Word


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
        denom = translation_length(evaluate(fuchsian_g2, letters))
        if denom <= admissibility.DENOMINATOR_FLOOR:
            continue
        numer = translation_length(evaluate(sigma, letters))
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
        image = rep.images[abs(letters[-1]) - 1]
        ga, gb, gc, gd = (image if letters[-1] > 0 else image.inverse()).mat.ravel().tolist()
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
    assert 1 <= len(witness.letters) <= max_len
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
    assert len(est.witness.letters) >= 2


def test_identity_and_trivial_ties_are_exact_at_depth_six(fuchsian_g2):
    # identical products give identical lengths, so every ratio is
    # exactly 1 (resp. 0) and the shortlex-least word wins the tie
    est = lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=6)
    assert (est.lower_bound, est.witness) == (1.0, Word((1,)))
    trivial = reps.trivial_representation(2)
    est = lipschitz_lower_bound(fuchsian_g2, trivial, max_len=6)
    assert (est.lower_bound, est.witness) == (0.0, Word((1,)))


@pytest.mark.parametrize("block_words", [None, 7, 1])
def test_exact_ties_go_to_the_shortlex_least_word(fuchsian_g2, monkeypatch, block_words):
    # against rho itself every ratio is exactly 1, against the trivial
    # rep exactly 0, so the witness is the shortlex-least word whose
    # rho-length clears the floor; tiny blocks make a shorter word turn
    # up after longer ones: blocks of 7 words split the 8 generators 7/1,
    # and blocks of 1 word put a block edge after every word
    if block_words is not None:
        monkeypatch.setattr(admissibility, "_block_words", lambda letters: block_words)
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
    conj2 = reps.conjugate(fuchsian_g2, shear)
    conj3 = reps.conjugate(fuchsian_g3, shear)
    pairs = [
        (fuchsian_g2, conj2, 5),
        (fuchsian_g2, reps.trivial_representation(2), 5),
        (fuchsian_g3, conj3, 3),
        # one and two lengths: the root visit alone, and one level below it
        (fuchsian_g2, conj2, 1),
        (fuchsian_g2, conj2, 2),
        (fuchsian_g3, conj3, 1),
        (fuchsian_g3, conj3, 2),
    ]

    def run(rho, sigma, n):
        est = lipschitz_lower_bound(rho, sigma, max_len=n)
        return est.lower_bound, est.witness, est.words_scanned

    default = [run(*pair) for pair in pairs]
    # blocks of 1 and 3 words hold fewer than one parent's children (7
    # at genus 2, 11 at genus 3); 3-word blocks split the 8 generators of
    # genus 2 3/3/2
    for block_words in (1, 3):
        monkeypatch.setattr(admissibility, "_block_words", lambda letters: block_words)
        assert [run(*pair) for pair in pairs] == default, block_words


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_default_blocks_clear_numpys_buffered_broadcast_threshold(genus):
    # numpy runs _traces' broadcasts about 4x slower per cell while a
    # row, a block's words, holds np.getbufsize() / 3 elements or fewer
    assert admissibility._block_words(4 * genus) > np.getbufsize() // 3


def test_scan_memory_is_bounded_by_the_block(fuchsian_g2):
    # a g=2, L=7 scan covers 1.1 M words; blocked it peaks near 5 MiB,
    # while the rho and sigma products of all 941,192 words of length 7
    # would take 60 MB.  A g=50, L=3 scan peaks near 2.4 MiB in blocks
    # of 81 words; blocks of 2,731 words, above numpy's threshold, would
    # make grids of 200 x 2,731 cells and peak near 25 MiB
    shear = Moebius([[1.2, 0.1], [0.4, 1.0]])
    for rho, max_len, bound_mib in (
        (fuchsian_g2, 7, 8),
        (reps.fuchsian_regular_polygon(50), 3, 4),
    ):
        sigma = reps.conjugate(rho, shear)
        tracemalloc.start()
        try:
            est = lipschitz_lower_bound(rho, sigma, max_len=max_len)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.words_scanned == reduced_word_count(rho.genus, max_len)
        assert peak < bound_mib * 2**20, f"g={rho.genus}: peak {peak / 2**20:.1f} MiB"


# (genus, sigma, max_len, lower_bound.hex(), witness, words_scanned),
# captured from the scan that multiplied out every word's full product
GOLDEN = [
    (2, "conjugate", 6, "0x1.000000000033ap+0", (-4, 2, 3, -2, -2, 4), 156864),
    (2, "pinched", 6, "0x1.d6a7e25168080p-2", (-2, 3, 4, 3, -1, -1), 156864),
    (2, "trivial", 6, "0x0.0p+0", (1,), 156864),
    (2, "rho", 6, "0x1.0000000000000p+0", (1,), 156864),
    (3, "conjugate", 5, "0x1.00000000018a6p+0", (4, -5, 2, 5, -4), 193260),
    (3, "pinched", 5, "0x1.9e45cccf95ebep-2", (-1, -4, 1, 4, 1), 193260),
    (2, "conjugate", 1, "0x1.0000000000001p+0", (1,), 8),
    (2, "pinched", 1, "0x1.c5bf0aaa8536ap-2", (3,), 8),
    (2, "trivial", 1, "0x0.0p+0", (1,), 8),
    (2, "rho", 1, "0x1.0000000000000p+0", (1,), 8),
    (2, "conjugate", 2, "0x1.0000000000002p+0", (3, -4), 64),
    (2, "pinched", 2, "0x1.c5bf0aaa8536ap-2", (3,), 64),
    (2, "trivial", 2, "0x0.0p+0", (1,), 64),
    (2, "rho", 2, "0x1.0000000000000p+0", (1,), 64),
    (3, "conjugate", 1, "0x1.0000000000005p+0", (5,), 12),
    (3, "pinched", 1, "0x1.9e45cccf94c2fp-2", (5,), 12),
    (3, "trivial", 1, "0x0.0p+0", (1,), 12),
    (3, "rho", 1, "0x1.0000000000000p+0", (1,), 12),
    (3, "conjugate", 2, "0x1.0000000000005p+0", (5,), 144),
    (3, "pinched", 2, "0x1.9e45cccf94c2fp-2", (5,), 144),
    (3, "trivial", 2, "0x0.0p+0", (1,), 144),
    (3, "rho", 2, "0x1.0000000000000p+0", (1,), 144),
]

# The golden bounds hold for one rounding of np.arccosh: numpy's own
# AVX-512 code on x86-64, which rounds some arguments differently in the
# last bit from the C library's acosh.  This digest of its values on a
# fixed grid tells whether the numpy at hand rounds the same way.
GOLDEN_ARCCOSH_DIGEST = "32fa1c4ae1e6bb42"

# The same cases at numpy's baseline code, which rounds np.arccosh as
# the C library does (and np.angle, so the polygon moves from genus 3
# up): captured in a child process under
# NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4", which numpy
# reads at import.  (genus, sigma, max_len) -> (lower_bound.hex(),
# witness, words_scanned)
BASELINE_ARCCOSH_DIGEST = "acabca4494a1b532"
GOLDEN_BASELINE = {
    (2, "conjugate", 6): ("0x1.000000000033ap+0", (-4, 2, 3, -2, -2, 4), 156864),
    (2, "pinched", 6): ("0x1.d6a7e25168081p-2", (-2, 3, 4, 3, -1, -1), 156864),
    (2, "trivial", 6): ("0x0.0p+0", (1,), 156864),
    (2, "rho", 6): ("0x1.0000000000000p+0", (1,), 156864),
    (3, "conjugate", 5): ("0x1.0000000001cc3p+0", (-6, -4, 6, 4, 6), 193260),
    (3, "pinched", 5): ("0x1.9e45cccf96c04p-2", (-6, -4, -1, 4, 6), 193260),
    (2, "conjugate", 1): ("0x1.0000000000001p+0", (1,), 8),
    (2, "pinched", 1): ("0x1.c5bf0aaa8536ap-2", (3,), 8),
    (2, "trivial", 1): ("0x0.0p+0", (1,), 8),
    (2, "rho", 1): ("0x1.0000000000000p+0", (1,), 8),
    (2, "conjugate", 2): ("0x1.0000000000002p+0", (3, 3), 64),
    (2, "pinched", 2): ("0x1.c5bf0aaa8536ap-2", (3,), 64),
    (2, "trivial", 2): ("0x0.0p+0", (1,), 64),
    (2, "rho", 2): ("0x1.0000000000000p+0", (1,), 64),
    (3, "conjugate", 1): ("0x1.0000000000005p+0", (5,), 12),
    (3, "pinched", 1): ("0x1.9e45cccf94c31p-2", (5,), 12),
    (3, "trivial", 1): ("0x0.0p+0", (1,), 12),
    (3, "rho", 1): ("0x1.0000000000000p+0", (1,), 12),
    (3, "conjugate", 2): ("0x1.0000000000005p+0", (5,), 144),
    (3, "pinched", 2): ("0x1.9e45cccf94c31p-2", (5,), 144),
    (3, "trivial", 2): ("0x0.0p+0", (1,), 144),
    (3, "rho", 2): ("0x1.0000000000000p+0", (1,), 144),
}


def _arccosh_digest():
    half = np.linspace(1.0, 64.0, 4097)
    out = np.zeros_like(half)
    np.arccosh(half, out=out, where=half > 1.0)
    return hashlib.sha256(out.tobytes()).hexdigest()[:16]


def _golden_pair(genus, target):
    rho = reps.fuchsian_regular_polygon(genus)
    sigma = {
        "conjugate": lambda: reps.conjugate(rho, Moebius([[1.3, 0.4], [0.1, 1.0]])),
        "pinched": lambda: make_pinched_rep(genus),
        "trivial": lambda: reps.trivial_representation(genus),
        "rho": lambda: rho,
    }[target]()
    return rho, sigma


@pytest.mark.parametrize("genus, target, max_len, bound, witness, scanned", GOLDEN)
def test_scan_reproduces_the_golden_roundings(
    genus, target, max_len, bound, witness, scanned
):
    digest = _arccosh_digest()
    if digest == BASELINE_ARCCOSH_DIGEST:
        bound, witness, scanned = GOLDEN_BASELINE[genus, target, max_len]
    elif digest != GOLDEN_ARCCOSH_DIGEST:
        pytest.skip(f"np.arccosh rounds here as in neither golden capture ({digest})")
    rho, sigma = _golden_pair(genus, target)
    est = lipschitz_lower_bound(rho, sigma, max_len=max_len)
    assert (est.lower_bound.hex(), est.witness, est.words_scanned) == (
        bound,
        Word(witness),
        scanned,
    )
    assert type(est.words_scanned) is int


@pytest.mark.parametrize(
    "genus, target, max_len, block_rows",
    [(*case[:3], block_rows) for block_rows in (None, 8192, 64) for case in GOLDEN]
    # blocks of one word put a block edge after every word
    + [(*case[:3], 1) for case in GOLDEN if case[2] <= 2]
    + [(2, "conjugate", 4, 1)],
)
def test_grid_scan_matches_the_masked_reference(
    genus, target, max_len, block_rows, monkeypatch
):
    # both scans call the same np.arccosh, so unlike the golden hex this
    # holds on every CPU.  None keeps the library's blocks; otherwise a
    # block holds as many words as have block_rows reduced extensions,
    # block_rows // (4g - 1): 8192 rows make blocks of 1,170 words at
    # genus 2 and 744 at genus 3, below numpy's buffered-broadcast
    # threshold, and 64 rows blocks of 9 and 5
    if block_rows is None:
        block_words = admissibility._block_words(4 * genus)
    else:
        block_words = max(1, block_rows // (4 * genus - 1))
        monkeypatch.setattr(admissibility, "_block_words", lambda letters: block_words)
    rho, sigma = _golden_pair(genus, target)
    est = lipschitz_lower_bound(rho, sigma, max_len=max_len)
    ratio, witness, scanned = masked_reference_scan(
        rho.letter_table.reshape(-1, 4),
        sigma.letter_table.reshape(-1, 4),
        max_len,
        genus,
        block_words,
        admissibility.DENOMINATOR_FLOOR,
    )
    assert (est.lower_bound.hex(), est.witness, est.words_scanned) == (
        ratio.hex(),
        Word(witness),
        scanned,
    )
    assert type(est.words_scanned) is int


def test_grid_ratios_read_minus_one_outside_the_scored_cells():
    # traces of a 2 x 3 grid: cell (0, 1) would score highest but lies
    # outside the mask; cell (1, 0)'s rho-length 4e-7 misses the floor;
    # cells (0, 2) and (1, 1) tie at the largest scored ratio
    rho_tr = np.array([[3.0, 3.0, 3.0], [2.0 * math.cosh(2e-7), 3.0, 3.0]])
    sigma_tr = np.array([[2.5, 30.0, 5.0], [50.0, -5.0, 1.0]])
    mask = np.array([[True, False, True], [True, True, True]])
    ratio = admissibility._ratios(rho_tr, sigma_tr, mask)
    assert ratio.shape == (2, 3)
    assert ratio[0, 1] == -1.0
    assert ratio[1, 0] == -1.0
    assert ratio[1, 2] == 0.0  # an elliptic sigma-image has length 0
    rho_len = math.acosh(1.5)
    assert ratio[0, 0] == pytest.approx(math.acosh(1.25) / rho_len, rel=1e-14)
    assert ratio[0, 2] == pytest.approx(math.acosh(2.5) / rho_len, rel=1e-14)
    assert ratio[1, 1] == ratio[0, 2]
    # the row-major argmax is the first kept cell of the maximum
    assert divmod(int(np.argmax(ratio)), 3) == (0, 2)
    # unmasked, cell (0, 1) wins, so the mask is what kept it out
    everywhere = np.ones_like(mask)
    i = int(np.argmax(admissibility._ratios(rho_tr, sigma_tr, everywhere)))
    assert divmod(i, 3) == (0, 1)


def test_a_nan_sigma_trace_scores_length_zero_and_the_bound_stays_finite():
    """sigma(a1) = diag(1e200, 1e-200) overflows a1 a1 to [[inf, 0], [0, 0]],
    so sigma(a1 a1 b1) has trace 0 * inf = nan, while rho(a1 a1 b1) is
    hyperbolic and the word is scored.  np.fmax reads that nan as
    length 0; np.maximum would carry it into the ratio, and the scan
    would refuse the depth.  Every word whose sigma-trace overflows to
    inf has an elliptic rho-image (a power of rho(a1)), so it is not
    scored and the best ratio stays finite."""
    one = Moebius.identity()
    s = 1e200
    sigma = Representation(SurfaceGroup(2), (
        Moebius([[s, 0.0], [0.0, 1.0 / s]]), Moebius([[0.0, -1.0], [1.0, 0.0]]), one, one,
    ))
    rho = Representation(SurfaceGroup(2), (
        Moebius.rotation(0.3), Moebius([[2.0, 1.0], [1.0, 1.0]]), one, one,
    ))
    a1, b1 = sigma.images[0].mat, sigma.images[1].mat
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(np.trace(a1 @ a1 @ b1))
    assert translation_length(evaluate(rho, (1, 1, 2))) > 1.0
    est = lipschitz_lower_bound(rho, sigma, max_len=3)
    tables = (rep.letter_table.reshape(-1, 4) for rep in (rho, sigma))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = masked_reference_scan(*tables, 3, 2, 7, admissibility.DENOMINATOR_FLOOR)
    assert (est.lower_bound, est.witness.letters) == expected[:2]
    assert math.isfinite(est.lower_bound) and est.witness == Word((1, 2, 2))


def test_genus_mismatch_rejected(fuchsian_g2, fuchsian_g3):
    with pytest.raises(InputError):
        lipschitz_lower_bound(fuchsian_g2, fuchsian_g3, max_len=2)


def test_invalid_parameters_rejected(fuchsian_g2):
    with pytest.raises(InputError):
        lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=0)


def test_products_leaving_the_float_range_are_refused(fuchsian_g2):
    big = Representation(SurfaceGroup(2), [Moebius([[1e60, 0.0], [0.0, 1e-60]])] * 4)
    with pytest.raises(InputError, match="float range by length 6"):
        lipschitz_lower_bound(fuchsian_g2, big, max_len=6)


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
    assert est.lower_bound == 1.0 and len(est.witness.letters) == 2


def test_word_budget_cap(fuchsian_g2, monkeypatch):
    monkeypatch.setenv(admissibility.MAX_WORDS_ENV, "100")
    with pytest.raises(InputError):
        lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=3)
    # a scan of exactly the cap runs
    monkeypatch.setenv(admissibility.MAX_WORDS_ENV, "64")
    est = lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=2)
    assert est.words_scanned == 64
    monkeypatch.setenv(admissibility.MAX_WORDS_ENV, "not-a-number")
    with pytest.raises(InputError):
        lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=2)


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_word_budget_cap_must_be_positive(raw, fuchsian_g2, monkeypatch):
    monkeypatch.setenv(admissibility.MAX_WORDS_ENV, raw)
    with pytest.raises(InputError, match=f"^ADSVOL_MAX_WORDS must be positive, got {raw}$"):
        lipschitz_lower_bound(fuchsian_g2, fuchsian_g2, max_len=1)


@pytest.mark.parametrize("genus, max_len", [(2, 5089), (3, 4130), (10, 2703), (2, 10**9)])
def test_word_budget_refuses_a_deep_scan_before_counting_it(
    genus, max_len, monkeypatch
):
    # these depths have word counts of over 4300 digits, past what int
    # to str conversion allows, and 10^9 lengths would take long to sum
    monkeypatch.delenv(admissibility.MAX_WORDS_ENV, raising=False)
    with pytest.raises(InputError) as info:
        admissibility.check_word_budget(genus, max_len)
    assert str(info.value) == (
        f"scanning to depth {max_len} goes over the cap of 10000000 words; "
        "raise ADSVOL_MAX_WORDS to allow it"
    )


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


@pytest.mark.parametrize("genus, max_len", [(2, 1), (3, 1), (2, 2)])
def test_report_refutes_at_a_bound_of_exactly_one(genus, max_len):
    """sigma = (rho(a1), I, ..., I) shares rho's own a1, so the word a1
    scores exactly 1 and no word scores more; sigma's Euler class is 0
    and cannot refute, so the verdict rests on `lower_bound >= 1` alone."""
    rho = reps.fuchsian_regular_polygon(genus)
    sigma = Representation(
        rho.group, (rho.images[0],) + tuple(Moebius.identity() for _ in range(2 * genus - 1))
    )
    report = admissibility_report(rho, sigma, max_len=max_len)
    assert report.lipschitz.lower_bound.hex() == "0x1.0000000000000p+0"
    assert report.lipschitz.witness == Word((1,))
    assert report.euler_sigma == 0
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
