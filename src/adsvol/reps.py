"""Surface-group representations into PSL(2, R) and their Euler classes.

This module is deliberately floating-point: representations live in
double precision, and the Euler class is read as an integer from the
relator lifted to the universal cover, behind one gate on how closely
the relator closes.
Exact arithmetic stays in `liealg` / `forms` / `invariants`.

Conventions
-----------
* A Moebius element is a 2x2 real matrix normalised to determinant 1,
  with the sign representative chosen so the trace is nonnegative (first
  nonzero entry positive when the trace vanishes).
* The fundamental group of the closed genus-g surface is generated by
  a1, b1, ..., ag, bg subject to prod_i [a_i, b_i] = 1.  Word letters
  are nonzero integers: letter 2i-1 is a_i, letter 2i is b_i, negatives
  are inverses.
* P^1(R) is parametrised by the angle x in R/(pi Z) of the line through
  direction (cos x, sin x).  A matrix m = [[a, b], [c, d]] factors as
  m = R P with R the rotation by its polar angle
  theta(m) = atan2(c - b, a + d) and P symmetric positive definite; R
  adds theta(m) to line angles and P moves every line by less than pi/2.
  A lift of m to the universal cover is m with a real value of theta(m).
* Lifts multiply through the Guichardet-Wigner (Milnor) rotation cocycle
  theta(gh) - theta(g) - theta(h), which lies strictly within pi/2 of 0
  mod pi (Wood 1971; Ghys, "Groups acting on the circle", 2001, sec. 6),
  so reducing it into [-pi/2, pi/2) fixes the branch with no guard.
* euler_class lifts every letter through its polar angle, reads the
  lifted relator at the line of angle 0 and divides by pi.  With these
  conventions the regular-polygon Fuchsian representation of genus g has
  Euler class -(2g - 2); e.g. fuchsian_regular_polygon(2) -> -2.
* euler_class has one gate, on the relator: it refuses a representation
  whose relator product lies farther than RELATOR_TOLERANCE from the
  identity, and the integrality residual it returns only reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, IntegralityError

DET_TOLERANCE = 1e-6
#: Largest distance of the relator from the identity at which euler_class
#: reads a class and `adsvol rep` writes its generators; the library's
#: relator_residual only reports.
RELATOR_TOLERANCE = 1e-4
_NORMALISED_OVERFLOW = "Moebius entries overflow once normalised to determinant 1"
_IDENTITY = np.eye(2)
_IDENTITY.flags.writeable = False


def _unit_distance(x, y) -> float:
    """Frobenius distance, up to sign, of two row-major 2x2 matrices
    given as 4-sequences, each first scaled to unit Frobenius norm."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    nx = math.hypot(x0, x1, x2, x3)
    ny = math.hypot(y0, y1, y2, y3)
    x0, x1, x2, x3 = x0 / nx, x1 / nx, x2 / nx, x3 / nx
    y0, y1, y2, y3 = y0 / ny, y1 / ny, y2 / ny, y3 / ny
    return min(
        math.hypot(x0 - y0, x1 - y1, x2 - y2, x3 - y3),
        math.hypot(x0 + y0, x1 + y1, x2 + y2, x3 + y3),
    )


def _adjugate(m: np.ndarray) -> np.ndarray:
    """[[d, -b], [-c, a]] for m = [[a, b], [c, d]]: the inverse of a
    determinant-1 matrix, real or complex, with no rescaling."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


class Moebius:
    """Element of PSL(2, R), stored as a normalised 2x2 float matrix."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.array(mat, dtype=float)
        entries = m.ravel().tolist()
        if m.shape != (2, 2) or not all(map(math.isfinite, entries)):
            raise InputError("Moebius needs a finite 2x2 real matrix")
        a, b, c, d = entries
        det = a * d - b * c
        if not 2.0**-1022 <= abs(det) < math.inf:
            # ad or bc left the normal float range (or ad - bc cancelled
            # out of it): form them again from the entries scaled by 2^-k,
            # k half the binary exponent of the larger product; a power of
            # two changes no rounding and cancels in the division by sqrt(det)
            k = max(
                (math.frexp(x)[1] + math.frexp(y)[1] for x, y in ((a, d), (b, c)) if x and y),
                default=0,
            ) // 2
            try:
                a, b, c, d = (math.ldexp(x, -k) for x in entries)
            except OverflowError:
                raise InputError(_NORMALISED_OVERFLOW) from None
            det = a * d - b * c
        if not det > 0:
            raise InputError("PSL(2, R) requires positive determinant")
        scale = math.sqrt(det)
        a, b, c, d = a / scale, b / scale, c / scale, d / scale
        if not all(map(math.isfinite, (a, b, c, d))):
            raise InputError(_NORMALISED_OVERFLOW)
        tr = a + d
        if tr < 0 or (tr == 0 and next(x for x in (a, b, c, d) if x != 0) < 0):
            a, b, c, d = -a, -b, -c, -d
        self.mat = np.array([[a, b], [c, d]])

    @classmethod
    def identity(cls) -> "Moebius":
        return cls(_IDENTITY)

    @classmethod
    def rotation(cls, alpha: float) -> "Moebius":
        """Rotation of the plane by alpha; acts on line angles by + alpha."""
        return cls([[math.cos(alpha), -math.sin(alpha)],
                    [math.sin(alpha), math.cos(alpha)]])

    @property
    def trace(self) -> float:
        return float(self.mat[0, 0] + self.mat[1, 1])

    def __mul__(self, other: "Moebius") -> "Moebius":
        return Moebius(self.mat.dot(other.mat))

    def inverse(self) -> "Moebius":
        (a, b), (c, d) = self.mat.tolist()
        return Moebius([[d, -b], [-c, a]])

    def dist_mod_sign(self, other: "Moebius") -> float:
        """Frobenius distance in PSL(2, R), i.e. up to scale and sign.

        Each matrix is rescaled to unit Frobenius norm before comparing;
        det-based normalisation is too noisy here because det = ad - bc
        cancels catastrophically for large-entry products."""
        return _unit_distance(self.mat.ravel().tolist(), other.mat.ravel().tolist())

    def __repr__(self) -> str:
        return f"Moebius({self.mat.tolist()!r})"


def translation_length(m: Moebius) -> float:
    """2 arccosh(|tr|/2) for hyperbolic elements, 0 otherwise.

    This is a class function: it only reads the trace, which is
    conjugation invariant."""
    half = abs(m.trace) / 2.0
    if half <= 1.0:
        return 0.0
    return 2.0 * math.acosh(half)


def _check_letter(x) -> None:
    """A word letter is a nonzero int; bool is refused."""
    if not isinstance(x, int) or isinstance(x, bool) or x == 0:
        raise InputError(f"letters must be nonzero integers, got {x!r}")


@dataclass(frozen=True)
class Word:
    """Reduced word in the free group on 2g letters.

    Letters are nonzero integers; a letter may not be followed by its
    negative.  Use Word.reduced to build from an unreduced sequence."""

    letters: tuple = ()

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for x in letters:
            _check_letter(x)
        for x, y in zip(letters, letters[1:]):
            if x == -y:
                raise InputError(f"word {letters} is not reduced")

    @classmethod
    def reduced(cls, seq) -> "Word":
        stack = []
        for x in seq:
            _check_letter(x)
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        return cls(tuple(stack))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


def _relator_letters(genus: int) -> list:
    """The letters of prod_i a_i b_i a_i^-1 b_i^-1, unchecked."""
    letters = []
    for i in range(1, genus + 1):
        a, b = 2 * i - 1, 2 * i
        letters += [a, b, -a, -b]
    return letters


def relator_word(genus: int) -> Word:
    """prod_i a_i b_i a_i^-1 b_i^-1 as a reduced word."""
    return Word(tuple(_relator_letters(genus)))


@dataclass(frozen=True)
class SurfaceGroup:
    """Fundamental group of the closed orientable surface of genus >= 2."""

    genus: int

    def __post_init__(self):
        if not isinstance(self.genus, int) or self.genus < 2:
            raise InputError("genus must be an integer >= 2")

    @property
    def rank(self) -> int:
        return 2 * self.genus


@dataclass(frozen=True)
class Representation:
    """Images (a1, b1, ..., ag, bg) of the standard generators."""

    group: SurfaceGroup
    images: tuple

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.group.rank:
            raise InputError(
                f"genus {self.group.genus} needs {self.group.rank} generator images"
            )
        if not all(isinstance(m, Moebius) for m in images):
            raise InputError("generator images must be Moebius elements")

    @property
    def genus(self) -> int:
        return self.group.genus

    def generator(self, letter: int) -> Moebius:
        _check_letter(letter)
        index = abs(letter) - 1
        if index >= len(self.images):
            raise InputError(f"letter {letter} out of range for genus {self.genus}")
        image = self.images[index]
        return image if letter > 0 else image.inverse()


def trivial_representation(genus: int) -> Representation:
    group = SurfaceGroup(genus)
    return Representation(group, tuple(Moebius.identity() for _ in range(group.rank)))


def evaluate(rep: Representation, word: Word) -> Moebius:
    """Image of a word, multiplying images left to right."""
    result = Moebius.identity()
    for letter in word:
        result = result * rep.generator(letter)
    return result


def relator_residual(rep: Representation) -> float:
    """Distance (mod sign) of the evaluated surface relator from the
    identity; reported, never rejected (`adsvol rep` gates it against
    RELATOR_TOLERANCE, as euler_class gates its own relator product)."""
    return evaluate(rep, relator_word(rep.genus)).dist_mod_sign(Moebius.identity())


def conjugate(rep: Representation, m: Moebius) -> Representation:
    inv = m.inverse()
    return Representation(rep.group, tuple(m * g * inv for g in rep.images))


# ---------------------------------------------------------------------------
# Fuchsian holonomy from the regular 4g-gon
# ---------------------------------------------------------------------------

def _su_translate(p: complex) -> np.ndarray:
    """Disc isometry sending p to 0, as an SU(1, 1) matrix."""
    s = 1.0 / math.sqrt(1.0 - abs(p) ** 2)
    return np.array([[s, -s * p], [-s * p.conjugate(), s]], dtype=complex)


def _su_rotation(t: float) -> np.ndarray:
    """Disc rotation z -> e^{it} z about 0."""
    return np.array(
        [[np.exp(1j * t / 2), 0.0], [0.0, np.exp(-1j * t / 2)]], dtype=complex
    )


def _su_apply(m: np.ndarray, z: complex) -> complex:
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def _su_align(p: complex, q: complex) -> np.ndarray:
    """Disc isometry with p -> 0 and q on the positive real axis."""
    t = _su_translate(p)
    angle = np.angle(_su_apply(t, q))
    return _su_rotation(-angle).dot(t)


def _su_to_moebius(m: np.ndarray) -> Moebius:
    """Conjugate an SU(1, 1) matrix back to SL(2, R) through the Cayley
    map z -> (z - i)/(z + i); the result is real up to rounding noise."""
    left = np.array([[1j, 1j], [-1.0, 1.0]], dtype=complex)
    right = np.array([[1.0, -1j], [1.0, 1j]], dtype=complex)
    out = left.dot(m).dot(right) / 2j
    if np.abs(out.imag).max() > 1e-9:
        raise InputError("matrix is not conjugate to a real one")
    return Moebius(out.real)


def fuchsian_regular_polygon(genus: int) -> Representation:
    """Holonomy of the hyperbolic structure glued from the regular
    4g-gon with vertex angle 2 pi / (4g).

    Vertices sit at disc angles 2 pi j / n (n = 4g), at the hyperbolic
    circumradius arccosh(cot^2(pi/n)).  The boundary word
    a1 b1 a1^-1 b1^-1 ... pairs side j with side j+2 inside each block
    of four; the pairing isometry for pair {j, j+2} carries the oriented
    edge (v_{j+3}, v_{j+2}) to (v_j, v_{j+1}).  Each a_i is the pairing
    of pair {4i, 4i+2}, each b_i the inverse of the pairing of pair
    {4i+1, 4i+3}; all of them are rotated copies (conjugates by the
    polygon's central rotation) of a single hyperbolic translation.  The
    relator then closes up to rounding error and the Euler class is
    -(2g - 2)."""
    group = SurfaceGroup(genus)
    n = 4 * genus
    circumradius = math.acosh(1.0 / math.tan(math.pi / n) ** 2)
    r = math.tanh(circumradius / 2.0)
    vertices = [r * np.exp(2j * math.pi * j / n) for j in range(n)]

    def pairing(j: int) -> np.ndarray:
        g_target = _su_align(vertices[j % n], vertices[(j + 1) % n])
        g_source = _su_align(vertices[(j + 3) % n], vertices[(j + 2) % n])
        return _adjugate(g_target).dot(g_source)

    images = []
    for i in range(genus):
        images.append(_su_to_moebius(pairing(4 * i)))
        images.append(_su_to_moebius(_adjugate(pairing(4 * i + 1))))
    return Representation(group, tuple(images))


# ---------------------------------------------------------------------------
# The Euler class from the rotation cocycle
# ---------------------------------------------------------------------------

def _wrap(x: float) -> float:
    """x reduced mod pi into [-pi/2, pi/2)."""
    return (x + math.pi / 2) % math.pi - math.pi / 2


def euler_class(rep: Representation) -> tuple:
    """(euler, residual): the lifted relator read at the line of angle 0,
    divided by pi and rounded to the nearest integer.

    The relator's lift accumulates each letter's polar angle and the
    rotation cocycle.  Its image of the line at angle 0 is that total
    plus the wrapped angle from theta(relator) to the image line; reading
    there rather than at theta(relator) keeps drift in the relator's
    upper-right entry, which fixes that line, out of the gate.

    The one gate is on the relator: when the product R of the relator's
    letters lies farther than RELATOR_TOLERANCE (read at call time) from
    the identity in unit-norm distance mod sign, or that distance is not
    a number, the representation has no readable Euler class and an
    IntegralityError is raised.  Within distance 1/sqrt(2), u^T R u > 0
    for every unit vector u (for the sign of R nearer the identity), so
    R moves every line by less than pi/2 and the rounding is exact;
    residual, the distance of the ratio from the integer, only reports.
    The relator is a product of commutators,
    so the integer does not depend on the lift chosen for each letter; it
    is conjugation invariant, changes sign under orientation reversal,
    and is bounded by 2g - 2 in magnitude (Milnor-Wood)."""
    acc = _IDENTITY
    angle = turn = 0.0  # angle is the polar angle of acc
    # a product that overflows to inf or nan fails the gate below, so
    # numpy's warnings about it would only repeat the refusal
    with np.errstate(over="ignore", invalid="ignore"):
        for letter in _relator_letters(rep.genus):
            g = rep.images[abs(letter) - 1].mat
            (a, b), (c, d) = g.tolist()
            if letter < 0:
                # an inverse letter is the adjugate of the stored matrix, not
                # a renormalised Moebius: sign normalisation maps a trace-zero
                # inverse back to the letter itself, whose polar angle is
                # +pi/2 where its inverse's must be -pi/2
                a, b, c, d = d, -b, -c, a
                g = np.array([[a, b], [c, d]])
            step = math.atan2(c - b, a + d)
            acc = acc.dot(g)
            (a, b), (c, d) = acc.tolist()
            previous, angle = angle, math.atan2(c - b, a + d)
            turn += step + _wrap(angle - previous - step)
    # (a, b), (c, d) are now the rows of the relator product
    closure = _unit_distance((a, b, c, d), (1.0, 0.0, 0.0, 1.0))
    if not closure <= RELATOR_TOLERANCE:
        raise IntegralityError(
            f"relator residual {closure:.3e} exceeds tolerance {RELATOR_TOLERANCE}, "
            "so no Euler class can be read"
        )
    turn += _wrap(math.atan2(c, a) - angle)
    ratio = turn / math.pi
    nearest = round(ratio)
    residual = abs(ratio - nearest)
    return nearest, residual


# ---------------------------------------------------------------------------
# JSON representation files
# ---------------------------------------------------------------------------

def representation_to_json(rep: Representation) -> dict:
    """{"genus": g, "generators": [row-major 2x2 floats, det 1]}."""
    return {
        "genus": rep.genus,
        "generators": [m.mat.tolist() for m in rep.images],
    }


def _is_number_pair(row) -> bool:
    """A list of two real JSON numbers: int or float, never bool or str."""
    return (
        isinstance(row, list)
        and len(row) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)
    )


def representation_from_json(data: dict) -> Representation:
    if not isinstance(data, dict):
        raise InputError("representation file must contain a JSON object")
    genus = data.get("genus")
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 2:
        raise InputError("'genus' must be an integer >= 2")
    generators = data.get("generators")
    if not isinstance(generators, list) or len(generators) != 2 * genus:
        raise InputError(f"'generators' must list {2 * genus} matrices")
    images = []
    for index, entry in enumerate(generators):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(_is_number_pair(row) for row in entry)
        ):
            raise InputError(f"generator {index} must be two lists of two numbers")
        try:
            mat = np.array(entry, dtype=float)
        except OverflowError as exc:
            raise InputError(
                f"generator {index} has an entry out of float range"
            ) from exc
        if not np.isfinite(mat).all():
            raise InputError(f"generator {index} is not a finite 2x2 matrix")
        (a, b), (c, d) = mat.tolist()
        det = a * d - b * c
        if abs(det - 1.0) > DET_TOLERANCE:
            raise InputError(
                f"generator {index} has determinant {det}, not 1 "
                f"(tolerance {DET_TOLERANCE})"
            )
        images.append(Moebius(mat))
    return Representation(SurfaceGroup(genus), tuple(images))


def save_representation(rep: Representation, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(representation_to_json(rep), handle, indent=2)
        handle.write("\n")


def load_representation(path) -> Representation:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    return representation_from_json(data)
