"""Expected outputs computed without the code paths being timed.

Nothing here imports adsvol.  Representations are handled as plain
lists of 2x2 float matrices, whose entries are exact binary rationals,
so `Fraction` arithmetic gives exact traces and exact relator products
of the very matrices the program sees.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

#: |program bound - exact witness ratio| allowed for the Lipschitz scan.
RATIO_TOLERANCE = 1e-9
#: A Fuchsian representation whose exact relator residual exceeds this
#: does not close up and is reported as a failure.
RELATOR_GATE = 1e-4
#: The program evaluates the relator in floating point; its residual
#: must lie within this factor of the exact residual, or within
#: RESIDUAL_FLOOR of it where both are at rounding level.
RESIDUAL_FACTOR = 2.0
RESIDUAL_FLOOR = 1e-10
#: Integrality residual allowed on an Euler class that is returned.
EULER_RESIDUAL_GATE = 1e-6

DENOMINATOR_FLOOR = 1e-6


# ------------------------------------------------------------ exact traces


def _fraction_matrix(m) -> tuple:
    (a, b), (c, d) = m
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def _mul(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def letter_matrix(generators, letter: int) -> tuple:
    """Exact image of one letter; an inverse is the adjugate, which is
    what a det-1 matrix inverts to."""
    a, b, c, d = _fraction_matrix(generators[abs(letter) - 1])
    return (a, b, c, d) if letter > 0 else (d, -b, -c, a)


def exact_trace(generators, word) -> Fraction:
    acc = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    for letter in word:
        acc = _mul(acc, letter_matrix(generators, letter))
    return acc[0] + acc[3]


def length_from_trace(trace: Fraction) -> float:
    """Translation length 2 arccosh(|tr|/2), 0 when |tr| <= 2."""
    half = abs(trace) / 2
    if half <= 1:
        return 0.0
    return 2.0 * math.acosh(float(half))


def exact_ratio(rho, sigma, word) -> float:
    """ell(sigma(w)) / ell(rho(w)) from exact traces."""
    return length_from_trace(exact_trace(sigma, word)) / length_from_trace(
        exact_trace(rho, word)
    )


def reduced_word_count(genus: int, max_len: int) -> int:
    """4g (4g - 1)^(L - 1) reduced words of each length L."""
    n = 4 * genus
    return sum(n * (n - 1) ** (length - 1) for length in range(1, max_len + 1))


def max_ratio(rho, sigma, genus: int, max_len: int, floor: float = DENOMINATOR_FLOOR) -> float:
    """Largest ell(sigma(w)) / ell(rho(w)) over all reduced words of
    length <= max_len whose rho-length exceeds `floor`, 0 if none does.

    A plain recursive float scan, written apart from the program's: it
    is what a scan that skips words or classes gets compared with."""
    letters = []
    for i in range(1, 2 * genus + 1):
        for letter in (i, -i):
            r = tuple(float(x) for x in letter_matrix(rho, letter))
            s = tuple(float(x) for x in letter_matrix(sigma, letter))
            letters.append((letter, r, s))
    best = 0.0

    def length(m) -> float:
        half = abs(m[0] + m[3]) / 2.0
        return 2.0 * math.acosh(half) if half > 1.0 else 0.0

    def visit(last: int, r: tuple, s: tuple, depth: int) -> None:
        nonlocal best
        for letter, g, h in letters:
            if letter == -last:
                continue
            rg, sh = _mul(r, g), _mul(s, h)
            denominator = length(rg)
            if denominator > floor:
                best = max(best, length(sh) / denominator)
            if depth < max_len:
                visit(letter, rg, sh, depth + 1)

    one = (1.0, 0.0, 0.0, 1.0)
    visit(0, one, one, 1)
    return best


def is_reduced_word(word, genus: int, max_len: int) -> bool:
    return (
        1 <= len(word) <= max_len
        and all(isinstance(x, int) and 0 < abs(x) <= 2 * genus for x in word)
        and all(x != -y for x, y in zip(word, word[1:]))
    )


# ---------------------------------------------------------- relator check


def exact_relator_residual(generators) -> float:
    """Frobenius distance, mod sign and after scaling to unit norm, of
    the exact product prod_i [a_i, b_i] from the identity."""
    acc = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    for i in range(len(generators) // 2):
        for letter in (2 * i + 1, 2 * i + 2, -(2 * i + 1), -(2 * i + 2)):
            acc = _mul(acc, letter_matrix(generators, letter))
    entries = [float(x) for x in acc]
    norm = math.sqrt(sum(x * x for x in entries))
    unit = [x / norm for x in entries]
    ident = [1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)]
    plus = math.sqrt(sum((x - y) ** 2 for x, y in zip(unit, ident)))
    minus = math.sqrt(sum((x + y) ** 2 for x, y in zip(unit, ident)))
    return min(plus, minus)


def residual_consistent(reported: float, exact: float) -> bool:
    """The program's float residual agrees with the exact one."""
    if not math.isfinite(reported) or reported < 0:
        return False
    if abs(reported - exact) <= RESIDUAL_FLOOR:
        return True
    return exact / RESIDUAL_FACTOR <= reported <= exact * RESIDUAL_FACTOR


def exact_det(m) -> Fraction:
    a, b, c, d = _fraction_matrix(m)
    return a * d - b * c


# ------------------------------------------------------ euler expectations

#: Euler class expected of each kind of representation in the rep sweep:
#: a set of allowed integers (as a function of the genus) and whether
#: the integrality gate (IntegralityError) is an allowed outcome.
EULER_EXPECTATIONS = {
    "polygon": (lambda g: {-(2 * g - 2)}, False),
    "conjugated": (lambda g: {-(2 * g - 2)}, False),
    "flipped": (lambda g: {2 * g - 2}, False),
    "elliptic_powers": (lambda g: {0}, False),
    "trivial": (lambda g: {0}, False),
    "pinched": (lambda g: {0}, False),
    "unrelated_elliptic": (lambda g: set(range(-(2 * g - 2), 2 * g - 1)), True),
    "fault": (lambda g: set(), True),
}

GATE = "IntegralityError"


def euler_ok(kind: str, genus: int, outcome) -> bool:
    """outcome is (euler, residual) or the string GATE."""
    allowed, gate_allowed = EULER_EXPECTATIONS[kind]
    if outcome == GATE:
        return gate_allowed
    euler, residual = outcome
    return (
        isinstance(euler, int)
        and euler in allowed(genus)
        and 0.0 <= residual <= EULER_RESIDUAL_GATE
    )


# ------------------------------------------------------- admissibility


def check_admissibility(
    payload: dict, rho, sigma, sigma_kind: str, genus: int, max_len: int, expected_max: float
):
    """List of problems with one admissibility report (empty when it is
    right).  payload uses the CLI's report_json keys; expected_max is
    `max_ratio` of the pair, which the bound must reach."""
    problems = []
    expected_rho = -(2 * genus - 2)
    allowed_sigma, _ = EULER_EXPECTATIONS[sigma_kind]
    if payload["euler_rho"] != expected_rho:
        problems.append(f"euler_rho {payload['euler_rho']} != {expected_rho}")
    if payload["euler_sigma"] not in allowed_sigma(genus):
        problems.append(f"euler_sigma {payload['euler_sigma']} unexpected for {sigma_kind}")
    if payload["max_word_length"] != max_len:
        problems.append("max_word_length not echoed")
    bound = payload["lipschitz_lower_bound"]
    witness = tuple(payload["witness"])
    if not witness:
        if bound != 0.0:
            problems.append("bound without a witness")
    elif not is_reduced_word(witness, genus, max_len):
        problems.append(f"witness {witness} is not a reduced word of length <= {max_len}")
    elif length_from_trace(exact_trace(rho, witness)) <= DENOMINATOR_FLOOR:
        problems.append("witness does not clear the denominator floor")
    else:
        oracle = exact_ratio(rho, sigma, witness)
        if not abs(bound - oracle) <= RATIO_TOLERANCE:
            problems.append(f"bound {bound!r} != exact witness ratio {oracle!r}")
        if bound == 0.0 and witness != (1,):
            # every word ties at 0, so the shortlex tie-break picks (1,)
            problems.append(f"tied scan picked {witness}, not the shortlex-least (1,)")
    if not abs(bound - expected_max) <= RATIO_TOLERANCE:
        problems.append(f"bound {bound!r} is not the maximum {expected_max!r} over all words")
    refuted = bound >= 1.0 or abs(payload["euler_sigma"]) == 2 * genus - 2
    expected = "refuted" if refuted else "not_refuted"
    if payload["verdict"] != expected:
        problems.append(f"verdict {payload['verdict']} != {expected}")
    return problems


# ------------------------------------------------------------------- CLI

EXIT_CODES = {
    "rep": 0,
    "euler": 0,
    "lipschitz": 0,
    "volume": 0,
    "cs": 0,
    "verify": 0,
    "volume_k0": 2,
    "euler_malformed": 2,
    "euler_fault": 4,
}

VERIFY_CHECKS = (
    ("jacobi", "bracket axioms, trace identities and signature (+,+,-)"),
    ("maurer-cartan", "dA + (1/2)[A^A] = 0 exactly; rescaling detected"),
    ("curvature-path", "R(t) = ((t^2-t)/2)[A^A] at 11 points, flat endpoints"),
    ("vol-cs", "vol_from_cs(cs_pair(d)) = signed volume on 10^4 random d"),
    ("unit-tangent", "unit tangent volume and cs identities for e in [-50, -2]"),
    ("chasles", "cs_pair = chasles(cs_rho_id(e,k), -cs_rho_id(f,k)) on 200 random d"),
    ("degree", "cs_scale multiplicative; degree-k pullback matches k = 1 values"),
    ("milnor-wood", "Euler classes: trivial 0, polygon +-(2g-2), elliptic 0, bound holds"),
    ("calibration", "metric calibration, omega ratio -2, kappa -4, calibration -1"),
)


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def descriptor_record(e: int, f: int, k: int) -> dict:
    """volume = 4 (e^2 - f^2)/k pi^2 and cs = (f^2 - e^2)/(6k)."""
    signed = Fraction(4 * (e * e - f * f), k)
    return {
        "e": e,
        "f": f,
        "k": k,
        "volume_signed_pi2": _rational(signed),
        "volume_pi2": _rational(abs(signed)),
        "cs": _rational(Fraction(f * f - e * e, 6 * k)),
    }


def dumps(payload: dict) -> bytes:
    """The CLI's stdout rendering: json.dump defaults plus a newline."""
    return (json.dumps(payload) + "\n").encode()


def verify_stdout() -> bytes:
    return dumps(
        {
            "checks": [
                {"name": name, "passed": True, "detail": detail}
                for name, detail in VERIFY_CHECKS
            ],
            "all_passed": True,
        }
    )


def lipschitz_self_stdout(genus: int, max_len: int) -> bytes:
    """rho against itself: every ratio is exactly 1, so the shortlex
    least word (1,) wins the tie and the pair is refuted."""
    e = -(2 * genus - 2)
    return dumps(
        {
            "euler_rho": e,
            "euler_sigma": e,
            "lipschitz_lower_bound": 1.0,
            "witness": [1],
            "max_word_length": max_len,
            "verdict": "refuted",
        }
    )


def check_cli(kind: str, code: int, stdout: bytes, expected) -> list:
    """Problems with one CLI invocation.  `expected` is the exact stdout
    bytes, or a callable that checks a payload carrying floats and
    returns its problems."""
    problems = []
    if code != EXIT_CODES[kind]:
        problems.append(f"{kind}: exit {code}, contract says {EXIT_CODES[kind]}")
    if EXIT_CODES[kind] != 0:
        if stdout:
            problems.append(f"{kind}: error exit wrote to stdout")
        return problems
    if isinstance(expected, bytes):
        if stdout != expected:
            problems.append(f"{kind}: stdout {stdout[:200]!r} != {expected[:200]!r}")
        return problems
    try:
        payload = json.loads(stdout)
    except ValueError:
        return problems + [f"{kind}: stdout is not JSON: {stdout[:200]!r}"]
    return problems + expected(payload, stdout)


def check_rep_stdout(out_path: str, genus: int, generators):
    """Checker for `rep --genus g --out path`: exact layout, exact genus,
    path and Euler class, residual consistent with the written file."""

    def check(payload, stdout):
        problems = []
        residual = payload.get("relator_residual")
        if not isinstance(residual, float):
            return ["rep: relator_residual is not a float"]
        layout = dumps(
            {"genus": genus, "out": out_path, "relator_residual": residual, "euler": -(2 * genus - 2)}
        )
        if stdout != layout:
            problems.append(f"rep: stdout {stdout!r} != {layout!r}")
        gens = generators()
        exact = exact_relator_residual(gens)
        if exact > RELATOR_GATE or not residual_consistent(residual, exact):
            problems.append(f"rep: residual {residual} vs exact {exact}")
        return problems

    return check


def check_euler_stdout(genus: int):
    def check(payload, stdout):
        residual = payload.get("residual")
        if not isinstance(residual, float):
            return ["euler: residual is not a float"]
        layout = dumps({"euler": -(2 * genus - 2), "residual": residual})
        if stdout != layout or not 0.0 <= residual <= EULER_RESIDUAL_GATE:
            return [f"euler: stdout {stdout!r} != {layout!r} or residual above gate"]
        return []

    return check
