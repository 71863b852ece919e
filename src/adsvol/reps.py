"""Surface-group representations into PSL(2, R) and their Euler classes.

This module is deliberately floating-point: representations live in
double precision, and the Euler class is read as an integer from the
signs of the relator's prefix products, behind one gate on how closely
the relator closes.
Exact arithmetic stays in `liealg` / `forms` / `invariants`.

Conventions
-----------
* A Moebius element is a 2x2 real matrix normalised to determinant 1,
  with the sign representative chosen so the trace is nonnegative (first
  nonzero entry positive when the trace vanishes).
* The fundamental group of the closed genus-g surface is generated by
  a1, b1, ..., ag, bg subject to prod_i [a_i, b_i] = 1.  A letter is a
  nonzero integer: letter 2i-1 is a_i, letter 2i is b_i, negatives are
  inverses.  The relator is the one word evaluated here; a Word is only
  the reduced witness a Lipschitz scan reports.
* P^1(R) is the set of lines through 0 in R^2, and x is the line at
  angle 0, spanned by (1, 0).  Three lines spanned by u, v, w are
  positively oriented when their angles increase counterclockwise mod
  pi; their orientation is sign(det(u, v) det(v, w) det(u, w)), which no
  change of sign of a spanning vector alters.  A matrix [[a, b], [c, d]]
  sends x to the line through (a, c), and det((1, 0), (a, c)) = c.
* euler_class sums the orientations of the ideal triangles that fan out
  from x over the images of x under the relator's prefix products.
  That fan evaluates the orientation cocycle, twice the bounded Euler
  class, on the fundamental class (Ghys, "Groups acting on the circle",
  2001, sec. 6; Burger-Iozzi-Wienhard, Ann. of Math. 2010), and the
  Euler class is minus half the sum.  With these conventions the
  regular-polygon Fuchsian representation of genus g has Euler class
  -(2g - 2); e.g. fuchsian_regular_polygon(2) -> -2.
* euler_class has one gate, on the relator: it refuses a representation
  whose relator product lies farther than RELATOR_TOLERANCE from the
  identity, and the integrality residual it returns only reports.
"""

from __future__ import annotations

import cmath
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
    """[[d, -b], [-c, a]] for m = [[a, b], [c, d]], or for each matrix of
    a stack of them: the inverse of a determinant-1 matrix, real or
    complex, with no rescaling."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def _normalised(entries) -> np.ndarray:
    """The normalised representative (see Conventions) of the row-major
    entries [a, b, c, d] of a 2x2 matrix, as a 2x2 array."""
    if not all(map(math.isfinite, entries)):
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
    return np.array((a, b, c, d)).reshape(2, 2)


class Moebius:
    """Element of PSL(2, R), stored as a normalised 2x2 float matrix."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.array(mat, dtype=float)
        if m.shape != (2, 2):
            raise InputError("Moebius needs a finite 2x2 real matrix")
        self.mat = _normalised(m.ravel().tolist())

    @classmethod
    def identity(cls) -> "Moebius":
        return cls(_IDENTITY)

    @classmethod
    def rotation(cls, alpha: float) -> "Moebius":
        """Rotation of the plane by alpha; acts on line angles by + alpha."""
        return cls([[math.cos(alpha), -math.sin(alpha)],
                    [math.sin(alpha), math.cos(alpha)]])

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


@dataclass(frozen=True)
class Word:
    """Reduced word in the free group on 2g letters: the witness of a
    Lipschitz scan.

    Letters are nonzero integers (bool is refused); a letter may not be
    followed by its negative."""

    letters: tuple = ()

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for x in letters:
            if not isinstance(x, int) or isinstance(x, bool) or x == 0:
                raise InputError(f"letters must be nonzero integers, got {x!r}")
        for x, y in zip(letters, letters[1:]):
            if x == -y:
                raise InputError(f"word {letters} is not reduced")


def _relator_letters(genus: int) -> list:
    """The letters of prod_i a_i b_i a_i^-1 b_i^-1, unchecked."""
    letters = []
    for i in range(1, genus + 1):
        a, b = 2 * i - 1, 2 * i
        letters += [a, b, -a, -b]
    return letters


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
                f"genus {_genus_text(self.group.genus)} has rank "
                f"{_genus_text(self.group.rank)}: it needs one image per "
                f"generator, got {len(images)}"
            )
        if not all(isinstance(m, Moebius) for m in images):
            raise InputError("generator images must be Moebius elements")

    @property
    def genus(self) -> int:
        return self.group.genus


def trivial_representation(genus: int) -> Representation:
    group = SurfaceGroup(genus)
    return Representation(group, tuple(Moebius.identity() for _ in range(group.rank)))


def relator_residual(rep: Representation) -> float:
    """Distance (mod sign) of the surface relator from the identity, its
    images multiplied left to right through Moebius's normaliser, so every
    inverse and every product is normalised.  A large distance is reported,
    not rejected (`adsvol rep` gates it against RELATOR_TOLERANCE, as
    euler_class gates its own relator product).  A product that cannot be
    normalised raises Moebius's InputError: one that is not finite, or
    whose ad - bc cancels to zero or below."""
    acc = _IDENTITY
    # a product that overflows to inf or nan is refused by the normaliser,
    # so numpy's warnings about it would only repeat the refusal
    with np.errstate(over="ignore", invalid="ignore"):
        for letter in _relator_letters(rep.genus):
            m = rep.images[abs(letter) - 1].mat
            if letter < 0:
                (a, b), (c, d) = m.tolist()
                m = _normalised([d, -b, -c, a])
            acc = _normalised(acc.dot(m).ravel().tolist())
    return _unit_distance(acc.ravel().tolist(), (1.0, 0.0, 0.0, 1.0))


def conjugate(rep: Representation, m: Moebius) -> Representation:
    inv = m.inverse()
    return Representation(rep.group, tuple(m * g * inv for g in rep.images))


# ---------------------------------------------------------------------------
# Fuchsian holonomy from the regular 4g-gon
# ---------------------------------------------------------------------------

_CAYLEY_LEFT = np.array([[1j, 1j], [-1.0, 1.0]], dtype=complex)
_CAYLEY_RIGHT = np.array([[1.0, -1j], [1.0, 1j]], dtype=complex)
_CAYLEY_LEFT.flags.writeable = _CAYLEY_RIGHT.flags.writeable = False
#: Generator pairs whose SU(1, 1) products are stacked at once: the build
#: holds one block, so a genus refused at its first block is refused at once.
_BLOCK_PAIRS = 64


def _su_align(p, q) -> tuple:
    """(rotation, translation), as nested tuples: the SU(1, 1) factors of
    the disc isometry rotation * translation, which sends p to 0 and q
    onto the positive real axis.  p and q are numpy complex scalars, so
    the image of q is formed in numpy's scalar complex arithmetic."""
    s = 1.0 / math.sqrt(1.0 - abs(p) ** 2)
    top, bottom = -s * p, -s * p.conjugate()
    t = -np.angle((s * q + top) / (bottom * q + s))
    rotation = ((cmath.exp(1j * t / 2), 0.0), (0.0, cmath.exp(-1j * t / 2)))
    return rotation, ((s, top), (bottom, s))


def _genus_text(genus: int) -> str:
    """The genus in decimal or, past the length str() converts (see
    sys.get_int_max_str_digits), its count of decimal digits."""
    try:
        return str(genus)
    except ValueError:
        # (bits - 1) log10(2) <= log10(genus): start below the count, count up
        digits = int((genus.bit_length() - 1) * math.log10(2)) - 1
        while genus >= 10**digits:
            digits += 1
        return f"of {digits} decimal digits"


def fuchsian_regular_polygon(genus: int) -> Representation:
    """Holonomy of the hyperbolic structure glued from the regular
    4g-gon with vertex angle 2 pi / (4g).

    Vertices sit at disc angles 2 pi j / n (n = 4g), at the hyperbolic
    circumradius arccosh(cot^2(pi/n)).  The boundary word
    a1 b1 a1^-1 b1^-1 ... pairs side j with side j+2 inside each block
    of four; the pairing isometry for pair {j, j+2} carries the oriented
    edge (v_{j+3}, v_{j+2}) to (v_j, v_{j+1}), as the product of the
    adjugate of the disc isometry aligning (v_j, v_{j+1}) with the one
    aligning (v_{j+3}, v_{j+2}).  Each a_i is the pairing of pair
    {4i, 4i+2}, each b_i the inverse of the pairing of pair
    {4i+1, 4i+3}; all of them are rotated copies (conjugates by the
    polygon's central rotation) of a single hyperbolic translation.  The
    relator then closes up to rounding error and the Euler class is
    -(2g - 2).

    The SU(1, 1) matrices are multiplied as stacks of at most
    _BLOCK_PAIRS generator pairs and conjugated to SL(2, R) through the
    Cayley map z -> (z - i)/(z + i), whose result must be real up to
    rounding noise."""
    group = SurfaceGroup(genus)
    n = 4 * genus
    try:  # a huge n leaves the float range, or tan^2 underflows to 0
        r = math.tanh(math.acosh(1.0 / math.tan(math.pi / n) ** 2) / 2.0)
    except (OverflowError, ZeroDivisionError):
        r = 1.0
    if r >= 1.0:
        raise InputError(
            f"genus {_genus_text(genus)} is too large for floats: the polygon's "
            "vertices round onto the boundary of the disc"
        )
    images = []
    for start in range(0, genus, _BLOCK_PAIRS):
        # only this block's vertices: no list of all 4g is held
        stop = min(start + _BLOCK_PAIRS, genus)
        v = [r * np.exp(2j * math.pi * (j % n) / n) for j in range(4 * start, 4 * stop + 1)]
        factors = []
        for j in range(0, len(v) - 1, 4):
            factors += (
                _su_align(v[j], v[j + 1]), _su_align(v[j + 3], v[j + 2]),
                _su_align(v[j + 1], v[j + 2]), _su_align(v[j + 4], v[j + 3]),
            )
        rotations, translations = np.array(list(zip(*factors)), dtype=complex)
        aligned = rotations @ translations
        pairings = _adjugate(aligned[0::2]) @ aligned[1::2]
        pairings[1::2] = _adjugate(pairings[1::2])
        out = _CAYLEY_LEFT @ pairings @ _CAYLEY_RIGHT / 2j
        if np.abs(out.imag).max() > 1e-9:
            raise InputError("matrix is not conjugate to a real one")
        images += map(Moebius, out.real)
    return Representation(group, tuple(images))


# ---------------------------------------------------------------------------
# The Euler class as a sum of orientation signs
# ---------------------------------------------------------------------------

def euler_class(rep: Representation) -> tuple:
    """(euler, residual): minus half the orientation sum of the ideal
    triangles (x, M_k x, M_{k+1} x), with x the line at angle 0.

    M_k is the product of the relator's first k letters, C_k its
    lower-left entry and c_k that of letter k; an inverse letter is the
    adjugate of the stored matrix.  The triangle's orientation is
    sign(C_k c_{k+1} C_{k+1}), so with R = M_{4g} the relator product

        euler = -(1/2) sum_{k=1}^{4g-2} sign(C_k c_{k+1} C_{k+1}),

    where C_{4g-1}, the lower-left entry of M_{4g-1} = R b_g, is read as
    sign(R_11) c(b_g).  Rounding can only flip signs near 0, and those
    flips cancel:
    * when C_k crosses 0, M_k x passes through x, and the two terms that
      hold C_k flip together;
    * a_i and a_i^-1 carry the same c up to sign, as do b_i and b_i^-1,
      so when one crosses 0 the two terms that hold them flip together;
    * only C_{4g-1} depends on how closely the relator closes, and it
      sits in a single term; the substitution reads it from b_g alone.
    There are 4g - 2 terms and zeros come in pairs, so the sum is even.

    The one gate is on the relator: when R lies farther than
    RELATOR_TOLERANCE (read at call time) from the identity in unit-norm
    distance mod sign, or that distance is not a number, the
    representation has no readable Euler class and an IntegralityError
    is raised.  residual is the angle by which R moves x, over pi (the
    gate keeps |R_11| near 1), added to the integer and taken off it
    again, so it only reports and noise below half an ulp of |euler|
    reads 0.0.  The integer is conjugation invariant, changes sign under
    orientation reversal, and is bounded by 2g - 2 in magnitude
    (Milnor-Wood)."""
    acc = _IDENTITY
    signs = []  # (sign of C_k, sign of c_k)
    # a product that overflows to inf or nan fails the gate below, so
    # numpy's warnings about it would only repeat the refusal
    with np.errstate(over="ignore", invalid="ignore"):
        for letter in _relator_letters(rep.genus):
            g = rep.images[abs(letter) - 1].mat
            if letter < 0:
                (a, b), (c, d) = g.tolist()
                g = np.array([[d, -b], [-c, a]])
            acc = acc.dot(g)
            lower, c = acc.item(2), g.item(2)
            signs.append(((lower > 0) - (lower < 0), (c > 0) - (c < 0)))
    (a, b), (c, d) = acc.tolist()
    closure = _unit_distance((a, b, c, d), (1.0, 0.0, 0.0, 1.0))
    if not closure <= RELATOR_TOLERANCE:
        raise IntegralityError(
            f"relator residual {closure:.3e} exceeds tolerance {RELATOR_TOLERANCE}, "
            "so no Euler class can be read"
        )
    prefix, letters = zip(*signs)
    # C_{4g-1} is the lower-left entry of R b_g, read with R = sign(R_11) I
    prefix = prefix[:-2] + (((a > 0) - (a < 0)) * letters[-3],)
    euler = -sum(p * m * q for p, m, q in zip(prefix, letters[1:-1], prefix[1:])) // 2
    ratio = euler + math.atan(c / a) / math.pi
    return euler, abs(ratio - euler)


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
            (a, b), (c, d) = ([float(x) for x in row] for row in entry)
        except OverflowError as exc:
            raise InputError(
                f"generator {index} has an entry out of float range"
            ) from exc
        if not all(map(math.isfinite, (a, b, c, d))):
            raise InputError(f"generator {index} is not a finite 2x2 matrix")
        det = a * d - b * c
        if abs(det - 1.0) > DET_TOLERANCE:
            raise InputError(
                f"generator {index} has determinant {det}, not 1 "
                f"(tolerance {DET_TOLERANCE})"
            )
        images.append(Moebius([[a, b], [c, d]]))
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
