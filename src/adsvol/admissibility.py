"""Word-by-word lower bound for the best Lipschitz constant between
two representations, and the admissibility verdict built on it.

For a dominated pair (rho Fuchsian-like, sigma strictly shorter) the
ratio of translation lengths

    ell(sigma(w)) / ell(rho(w))

stays below 1 on every group element; the supremum of the ratio over
reduced words up to a length cutoff is therefore a one-sided refutation
tool: a value >= 1 certifies the pair is *not* admissible, while a value
below 1 proves nothing (the bound only grows with the cutoff).  A
maximal |Euler class| for sigma refutes independently: sigma would sit
in a Fuchsian component rather than being strictly dominated.

The scan runs one word length at a time on numpy arrays of 2x2
products, built in blocks of bounded size that are walked depth-first,
so memory stays O(block size x cutoff) and the word cap bounds time only.
Within a length the rows are in shortlex order over the letter order
1, -1, 2, -2, ..., and the blocks keep that order across the whole
scan, so the result is the shortlex-least word of maximal ratio however
the blocks fall.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_MAX_WORD_LENGTH
from .errors import InputError, _require_int
from .reps import Representation, Word, _adjugate, euler_class

MAX_WORDS_ENV = "ADSVOL_MAX_WORDS"
DEFAULT_MAX_WORDS = 10**7

#: Words whose rho-length does not exceed this are left out of the
#: ratio; read at call time.
DENOMINATOR_FLOOR = 1e-6

VERDICT_REFUTED = "refuted"
VERDICT_NOT_REFUTED = "not_refuted"

# Most rows of one block of the batched scan (see _scan).
_BLOCK_ROWS = 1 << 13


def max_words_cap() -> int:
    """Safety valve on the enumeration size; override with the
    ADSVOL_MAX_WORDS environment variable."""
    raw = os.environ.get(MAX_WORDS_ENV)
    if raw is None:
        return DEFAULT_MAX_WORDS
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"{MAX_WORDS_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise InputError(f"{MAX_WORDS_ENV} must be positive, got {cap}")
    return cap


def letter_order(genus: int) -> list:
    """Fixed enumeration order 1, -1, 2, -2, ..., 2g, -2g."""
    order = []
    for i in range(1, 2 * genus + 1):
        order += [i, -i]
    return order


def reduced_word_count(genus: int, max_len: int) -> int:
    """Number of reduced words of length 1..max_len: per length L the
    count is 4g (4g - 1)^(L-1)."""
    n = 4 * genus
    return sum(n * (n - 1) ** (length - 1) for length in range(1, max_len + 1))


@dataclass(frozen=True)
class LipschitzEstimate:
    lower_bound: float
    witness: Word | None
    words_scanned: int
    max_word_length: int


def _flat_generators(rep: Representation) -> np.ndarray:
    """(4g, 4) float array: row j holds the row-major entries (a, b, c, d)
    of letter_order(g)[j], inverses included."""
    rows = []
    for image in rep.images:
        rows += [image.mat.ravel(), _adjugate(image.mat).ravel()]
    return np.array(rows, dtype=float)


def _lengths(prods: np.ndarray) -> np.ndarray:
    """Translation lengths 2 arccosh(|tr| / 2) of the (m, 4) products,
    0 where the product is not hyperbolic."""
    half = np.abs(prods[:, 0] + prods[:, 3]) / 2.0
    out = np.zeros_like(half)
    np.arccosh(half, out=out, where=half > 1.0)
    return 2.0 * out


def _extend(prods: np.ndarray, table: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Right-multiply every product by every generator, as the same
    separate multiplies and adds as a 2x2 product written out by hand,
    and keep the (row, letter) pairs flagged in `keep`, row-major."""
    a, b, c, d = (prods[:, k, None] for k in range(4))
    ga, gb, gc, gd = table.T
    out = np.empty((np.count_nonzero(keep), 4))
    out[:, 0] = (a * ga + b * gc)[keep]
    out[:, 1] = (a * gb + b * gd)[keep]
    out[:, 2] = (c * ga + d * gc)[keep]
    out[:, 3] = (c * gb + d * gd)[keep]
    return out


def _scan(rho_table, sigma_table, max_len, genus):
    """Best (ratio, witness) over all reduced words of length 1..max_len,
    plus the number of words scanned.

    Words are scanned one length at a time.  A frontier holds the rho
    and sigma products of its words as (m, 4) arrays plus their letters;
    the first frontier is the 4g generators, and the next length
    multiplies every row by every letter but the inverse of its last
    one.  Rows stay in shortlex order, so the first maximum of a
    frontier is its shortlex-least witness.  The next frontier is built
    from consecutive rows in blocks of at most about _BLOCK_ROWS rows,
    and each block is walked to full depth before the next, so live
    memory is O(_BLOCK_ROWS * max_len) whatever max_len is.  Words of
    equal length are still met in shortlex order, so a later maximum
    replaces the best only when it is larger, or equal and shorter: the
    result is the shortlex-least word of maximal ratio.  Products are
    accumulated left to right in plain float arithmetic, so the blocking
    does not change a single rounding."""
    order = letter_order(genus)
    n = len(order)
    # letter j is followed by anything but its inverse j ^ 1
    keep = np.arange(n)[None, :] != (np.arange(n) ^ 1)[:, None]
    follow = np.nonzero(keep)[1].reshape(n, n - 1).astype(np.min_scalar_type(n))
    step = max(1, _BLOCK_ROWS // (n - 1))
    best_ratio = 0.0
    best_witness = None
    scanned = 0

    def visit(rho_m, sigma_m, letters):
        nonlocal best_ratio, best_witness, scanned
        scanned += len(letters)
        rho_len = _lengths(rho_m)
        # -1 marks the words whose rho-length does not clear the floor
        ratio = np.divide(
            _lengths(sigma_m),
            rho_len,
            out=np.full_like(rho_len, -1.0),
            where=rho_len > DENOMINATOR_FLOOR,
        )
        i = int(np.argmax(ratio))
        r = float(ratio[i])
        length = letters.shape[1]
        if r >= 0.0 and (
            best_witness is None
            or r > best_ratio
            or (r == best_ratio and length < len(best_witness))
        ):
            best_ratio = r
            best_witness = tuple(order[j] for j in letters[i])
        if length == max_len:
            return
        for lo in range(0, len(letters), step):
            block = letters[lo : lo + step]
            mask = keep[block[:, -1]]
            visit(
                _extend(rho_m[lo : lo + step], rho_table, mask),
                _extend(sigma_m[lo : lo + step], sigma_table, mask),
                np.column_stack(
                    (np.repeat(block, n - 1, axis=0), follow[block[:, -1]].ravel())
                ),
            )

    visit(rho_table, sigma_table, np.arange(n, dtype=follow.dtype)[:, None])
    witness = Word(best_witness) if best_witness is not None else None
    return best_ratio, witness, scanned


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
    the scan's block size."""
    if rho.genus != sigma.genus:
        raise InputError("rho and sigma must have the same genus")
    _require_int("max_len", max_len)
    if max_len < 1:
        raise InputError("max_len must be an integer >= 1")
    total = reduced_word_count(rho.genus, max_len)
    cap = max_words_cap()
    if total > cap:
        raise InputError(
            f"enumeration of {total} words exceeds the cap of {cap}; "
            f"raise {MAX_WORDS_ENV} to allow it"
        )
    ratio, witness, scanned = _scan(
        _flat_generators(rho), _flat_generators(sigma), max_len, rho.genus
    )
    return LipschitzEstimate(
        lower_bound=ratio,
        witness=witness,
        words_scanned=scanned,
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
