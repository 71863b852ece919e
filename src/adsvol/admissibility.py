"""Word-by-word lower bound for the best Lipschitz constant between
two representations, and the admissibility verdict built on it.

For a dominated pair (rho Fuchsian-like, sigma strictly shorter) the
ratio of translation lengths

    ell(sigma(w)) / ell(rho(w)),    ell = 2 arccosh(|tr| / 2),

stays below 1 on every group element; the supremum of the ratio over
reduced words up to a length cutoff is therefore a one-sided refutation
tool: a value >= 1 certifies the pair is *not* admissible, while a value
below 1 proves nothing (the bound only grows with the cutoff).  A
maximal |Euler class| for sigma refutes independently: sigma would sit
in a Fuchsian component rather than being strictly dominated.

A word is scored by its trace alone, so the scan is one step, taken
from the empty word over bounded blocks walked depth-first: it scores a
block's extensions by every letter from their traces alone, as one
letter-major (4g x words) grid with the inverse-letter cells masked
out, and multiplies out only the reduced extensions it goes on to
extend, once per level.  Memory stays O(words per block x 4g x cutoff),
so the word cap bounds time only, and ties go to the shortlex-least
word.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_MAX_WORD_LENGTH
from .errors import InputError, _require_int
from .reps import Representation, Word, euler_class, letter_order

MAX_WORDS_ENV = "ADSVOL_MAX_WORDS"
DEFAULT_MAX_WORDS = 10**7

#: Words whose rho-length does not exceed this are left out of the
#: ratio; read at call time.
DENOMINATOR_FLOOR = 1e-6

VERDICT_REFUTED = "refuted"
VERDICT_NOT_REFUTED = "not_refuted"

# Most cells (4g letters x words) of a block's grid in the batched scan:
# of a block whose words clear numpy's buffered-broadcast threshold, and
# of any other (see _block_words).
_FAST_BLOCK_CELLS = 1 << 17
_BLOCK_CELLS = 1 << 14


def _words_per_length(genus: int, max_len: int):
    """The number 4g (4g - 1)^(L-1) of reduced words of length L, for
    L = 1..max_len, one length at a time."""
    n = 4 * genus
    return (n * (n - 1) ** (length - 1) for length in range(1, max_len + 1))


def reduced_word_count(genus: int, max_len: int) -> int:
    """Number of reduced words of length 1..max_len."""
    return sum(_words_per_length(genus, max_len))


def check_word_budget(genus: int, max_len: int) -> None:
    """InputError if the reduced words of length 1..max_len outnumber the
    cap, the ADSVOL_MAX_WORDS environment variable or DEFAULT_MAX_WORDS;
    the count stops at the first length that goes over it."""
    raw = os.environ.get(MAX_WORDS_ENV, str(DEFAULT_MAX_WORDS))
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"{MAX_WORDS_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise InputError(f"{MAX_WORDS_ENV} must be positive, got {cap}")
    if any(total > cap for total in itertools.accumulate(_words_per_length(genus, max_len))):
        raise InputError(
            f"scanning to depth {max_len} goes over the cap of {cap} words; "
            f"raise {MAX_WORDS_ENV} to allow it"
        )


@dataclass(frozen=True)
class LipschitzEstimate:
    lower_bound: float
    witness: Word | None
    words_scanned: int
    max_word_length: int


def _ratios(rho_tr, sigma_tr, mask) -> np.ndarray:
    """Per cell of two grids of traces, ell(sigma) / ell(rho) with
    ell = 2 arccosh(|tr| / 2), or 0 if not hyperbolic; -1 outside `mask`
    and where the rho-length does not clear DENOMINATOR_FLOOR.

    Both lengths are scored in place in one (2, ...) buffer, halved:
    (2a) / (2b) is a / b and 2a > floor is a > floor / 2, exactly.  The
    result has the grids' shape but is the transpose of a C-ordered
    array, so for letter-major (4g, m) grids its .T is the row-major
    (m, 4g) table of (word, letter) cells."""
    lengths = np.empty((2, *mask.shape))
    np.abs(rho_tr, out=lengths[0])
    np.abs(sigma_tr, out=lengths[1])
    lengths *= 0.5
    np.fmax(lengths, 1.0, out=lengths)
    np.arccosh(lengths, out=lengths)
    rho_len, sigma_len = lengths
    scored = mask & (rho_len > DENOMINATOR_FLOOR / 2)
    np.divide(sigma_len, rho_len, out=sigma_len)
    np.putmask(sigma_len, ~scored, -1.0)
    ratio = np.empty(mask.shape[::-1]).T
    np.copyto(ratio, sigma_len)
    return ratio


def _traces(prods, cols) -> np.ndarray:
    """(4g, m) grid of the traces of the m products `prods` times each of
    the 4g generators `cols`: entries 0 and 3 as `_products` rounds them."""
    tr = cols[0, :, None] * prods[0]
    tr += cols[2, :, None] * prods[1]
    tail = cols[1, :, None] * prods[2]
    tail += cols[3, :, None] * prods[3]
    tr += tail
    return tr


def _products(prods, cols) -> np.ndarray:
    """Entry k = 2i + j, row-major, of each of n products times its next
    letter, written out by hand as in a 2x2 product; all three entry-major
    (4, n) arrays."""
    out = np.empty_like(prods)
    for k, e in enumerate(out):
        i, j = divmod(k, 2)
        np.multiply(cols[j], prods[2 * i], out=e)
        e += cols[2 + j] * prods[2 * i + 1]
    return out


def _block_words(letters: int) -> int:
    """Words per block of the scan over `letters` = 4g letters (see _scan).

    numpy forms _traces' 2-D broadcasts `cols[k, :, None] * prods[k]`
    about 4x faster per cell once their rows, which hold the block's
    words, exceed np.getbufsize() / 3 elements: below that it copies
    them through its buffer.  So while such a block's grid stays within
    _FAST_BLOCK_CELLS (through genus 11 at numpy's default buffer of
    8,192), a block holds the fewest words above the threshold, 2,731 at
    that buffer.  Past it the grid outgrows the gain, the cost per cell
    no longer falls with the block, and a block holds _BLOCK_CELLS
    cells, which measured fastest from genus 8 to 50."""
    fast = np.getbufsize() // 3 + 1
    if letters * fast <= _FAST_BLOCK_CELLS:
        return fast
    return max(1, _BLOCK_CELLS // letters)


def _scan(rho_cols, sigma_cols, max_len, genus):
    """Best (ratio, witness) over all reduced words of length 1..max_len.

    One step does the work, on entry-major (4, 4g) copies of the
    generators.  Visiting a block of m words, with their rho and sigma
    products stored entry-major as (4, m) arrays, it forms the traces of
    their extensions by every letter as letter-major (4g, m) grids, so
    each numpy call runs over the block's words in one contiguous inner
    loop, and scores them; a cell outside `mask` (the inverse of a
    word's last letter) reads -1.  The scores are written out as the
    row-major (m, 4g) table, so its argmax is the first best reduced
    word, and cell i is (row, letter) = divmod(i, 4g).  Above the last
    level the step gathers the reduced cells' words and letters in that
    order and multiplies out those products alone.  The root block is
    the empty word: the identity, with every letter allowed.  The
    extensions are cut into blocks of _block_words(4g) words, each
    visited to full depth before the next, so live memory is O(words per
    block x 4g x max_len).  Words of equal length are met in shortlex
    order, so a later maximum replaces the best only when it is larger,
    or equal and shorter.  Products accumulate left to right in plain
    float arithmetic, so neither the blocking nor the layout changes a
    single rounding.  A product that leaves the float range is scored 0
    or not at all, which still bounds from below, unless it makes a
    block's best ratio inf or nan (inf / inf): no bound can be read
    then, so the scan raises InputError, and numpy's float warnings stay
    quiet."""
    order = letter_order(genus)
    n = len(order)
    alphabet = np.arange(n, dtype=np.min_scalar_type(n))
    step = _block_words(n)
    best_ratio, best_witness = 0.0, None

    def visit(rho_m, sigma_m, letters, mask):
        nonlocal best_ratio, best_witness
        length = letters.shape[1] + 1
        rho_tr, sigma_tr = _traces(rho_m, rho_cols), _traces(sigma_m, sigma_cols)
        ratio = _ratios(rho_tr, sigma_tr, mask).T
        i = int(np.argmax(ratio))
        r = float(ratio.flat[i])
        if not math.isfinite(r):
            raise InputError(
                f"word products leave the float range by length {length}; "
                "scan a shorter depth"
            )
        if r >= 0.0 and (
            best_witness is None
            or r > best_ratio
            or (r == best_ratio and length < len(best_witness))
        ):
            best_ratio = r
            row, last = divmod(i, n)
            best_witness = tuple(order[j] for j in (*letters[row], last))
        if length == max_len:
            return
        del rho_tr, sigma_tr, ratio
        row, last = divmod(np.flatnonzero(mask.T), n)
        rho_m = _products(np.take(rho_m, row, axis=1), np.take(rho_cols, last, axis=1))
        sigma_m = _products(np.take(sigma_m, row, axis=1), np.take(sigma_cols, last, axis=1))
        letters = np.column_stack((letters[row], last.astype(alphabet.dtype)))
        for lo in range(0, len(letters), step):
            part = slice(lo, lo + step)
            # letter j is followed by anything but its inverse j ^ 1
            allowed = alphabet[:, None] != (letters[part, -1] ^ 1)
            visit(rho_m[:, part], sigma_m[:, part], letters[part], allowed)

    root = np.array([[1.0], [0.0], [0.0], [1.0]])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        visit(root, root, np.empty((1, 0), alphabet.dtype), np.ones((n, 1), bool))
    witness = Word(best_witness) if best_witness is not None else None
    return best_ratio, witness


def lipschitz_lower_bound(
    rho: Representation,
    sigma: Representation,
    max_len: int = DEFAULT_MAX_WORD_LENGTH,
) -> LipschitzEstimate:
    """sup over reduced words of length <= max_len of the ratio of
    translation lengths ell(sigma(w)) / ell(rho(w)), restricted to words
    whose rho-length exceeds DENOMINATOR_FLOOR.

    Returns 0 with no witness when nothing clears the floor.  Ties go
    to the shortlex-least word, and the result is bitwise independent of
    the scan's block size.  Raises InputError when the word products
    leave the float range before max_len."""
    if rho.genus != sigma.genus:
        raise InputError("rho and sigma must have the same genus")
    _require_int("max_len", max_len)
    if max_len < 1:
        raise InputError("max_len must be an integer >= 1")
    check_word_budget(rho.genus, max_len)
    cols = (rep.letter_table.reshape(-1, 4).T.copy() for rep in (rho, sigma))
    ratio, witness = _scan(*cols, max_len, rho.genus)
    return LipschitzEstimate(
        lower_bound=ratio,
        witness=witness,
        words_scanned=reduced_word_count(rho.genus, max_len),
        max_word_length=max_len,
    )


@dataclass(frozen=True)
class AdmissibilityReport:
    euler_rho: int
    euler_sigma: int
    lipschitz: LipschitzEstimate
    verdict: str


def admissibility_report(
    rho: Representation,
    sigma: Representation,
    max_len: int = DEFAULT_MAX_WORD_LENGTH,
) -> AdmissibilityReport:
    """Euler classes, Lipschitz lower bound and the refutation verdict.

    rho must look Fuchsian (|Euler class| = 2g - 2); otherwise the
    length spectrum comparison is meaningless and an InputError is
    raised.  The pair is refuted when the lower bound reaches 1 or when
    sigma itself has maximal |Euler class| (Fuchsian-like second
    factor).  Anything else is reported as not refuted: the estimator
    is one-sided evidence, never a proof of admissibility."""
    euler_rho, _ = euler_class(rho)
    euler_sigma, _ = euler_class(sigma)
    bound = 2 * rho.genus - 2
    if abs(euler_rho) != bound:
        raise InputError(
            f"rho is not Fuchsian-like: |Euler class| is {abs(euler_rho)}, "
            f"needs {bound}"
        )
    estimate = lipschitz_lower_bound(rho, sigma, max_len=max_len)
    refuted = estimate.lower_bound >= 1.0 or abs(euler_sigma) == bound
    return AdmissibilityReport(
        euler_rho=euler_rho,
        euler_sigma=euler_sigma,
        lipschitz=estimate,
        verdict=VERDICT_REFUTED if refuted else VERDICT_NOT_REFUTED,
    )


def report_json(report: AdmissibilityReport) -> dict:
    witness = report.lipschitz.witness
    return {
        "euler_rho": report.euler_rho,
        "euler_sigma": report.euler_sigma,
        "lipschitz_lower_bound": report.lipschitz.lower_bound,
        "witness": list(witness.letters) if witness is not None else [],
        "max_word_length": report.lipschitz.max_word_length,
        "verdict": report.verdict,
    }
