"""Exact model of the Lie algebra sl(2, R) in the ordered basis (H, E, F).

Every coefficient in this module is a `fractions.Fraction`; no floating
point enters any computation.  Matrices (the 3x3 adjoint) are nested
tuples of rows.  The basis matrices are

    H = [[1, 0], [0, -1]],   E = [[0, 1], [0, 0]],   F = [[0, 0], [1, 0]],

with brackets [H, E] = 2E, [H, F] = -2F, [E, F] = H.

Metric normalisation.  The bi-invariant metric is the rescaled trace form
<X, Y> = METRIC_NORMALIZATION * tr(XY) on 2x2 matrices.  The value 2 is
not a free choice: the quotient of PSL(2, R) by the stabiliser of a point
is the hyperbolic plane of curvature -1, and the quotient map must be a
metric submersion.  The flow t -> exp(tH) = diag(e^t, e^-t) moves the
base point i of the upper half-plane along the geodesic t -> e^{2t} i,
at unit-speed-parameter distance 2t, i.e. at speed 2.  H is horizontal
(it is trace-orthogonal to the stabiliser direction E - F), so |H| = 2,
forcing METRIC_NORMALIZATION * tr(H^2) = 4, i.e. METRIC_NORMALIZATION = 2.
The test-suite re-derives the speed from hyperbolic distances.

Reference frame.  u1 = H/2, u2 = (E+F)/2, u3 = (E-F)/2 is orthonormal
with signs (+1, +1, -1) (spacelike, spacelike, timelike) and is declared
positively oriented; volume_form is the determinant of metric coordinates
in this frame.  It is the one frame of the exact layer: an alternating
3-form on a 3-dimensional space is fixed by its value on it.

The trilinear form omega(X, Y, Z) = tr(ad_X ad_[Y,Z]) is alternating,
hence a constant multiple of volume_form.  Under the conventions above
the constant is exactly -2 (see OMEGA_VOLUME_RATIO); other trace or
metric normalisations rescale it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import InputError

#: Scale factor between the 2x2 trace form and the metric; see module
#: docstring for the derivation.  Read at call time so a miscalibrated
#: build is observable by the verification suite.
METRIC_NORMALIZATION = Fraction(2)

#: Signs of the reference frame vectors u1, u2, u3 under the metric.
FRAME_SIGNS = (Fraction(1), Fraction(1), Fraction(-1))

#: omega = OMEGA_VOLUME_RATIO * volume_form, frozen after being computed
#: by the brute-force oracle in the tests: omega(u1, u2, u3) = -2 while
#: volume_form(u1, u2, u3) = 1.
OMEGA_VOLUME_RATIO = Fraction(-2)


def as_fraction(value) -> Fraction:
    """Coerce ints and Fractions; refuse anything else, bools included."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise InputError(
        f"expected an exact rational, got {type(value).__name__}: {value!r}"
    )


@dataclass(frozen=True)
class LieElement:
    """Element a*H + b*E + c*F with exact rational coordinates (a, b, c)."""

    coords: tuple

    def __post_init__(self):
        if not isinstance(self.coords, (tuple, list)) or len(self.coords) != 3:
            raise InputError("LieElement needs a tuple or list of 3 coordinates")
        object.__setattr__(
            self, "coords", tuple(as_fraction(c) for c in self.coords)
        )

    @classmethod
    def of(cls, a, b, c) -> "LieElement":
        return cls((a, b, c))

    def __add__(self, other: "LieElement") -> "LieElement":
        return LieElement(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "LieElement") -> "LieElement":
        return LieElement(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "LieElement":
        return LieElement(tuple(-x for x in self.coords))

    def __rmul__(self, scalar) -> "LieElement":
        s = as_fraction(scalar)
        return LieElement(tuple(s * x for x in self.coords))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)


H = LieElement.of(1, 0, 0)
E = LieElement.of(0, 1, 0)
F = LieElement.of(0, 0, 1)
BASIS = (H, E, F)

U1 = LieElement.of(Fraction(1, 2), 0, 0)
U2 = LieElement.of(0, Fraction(1, 2), Fraction(1, 2))
U3 = LieElement.of(0, Fraction(1, 2), Fraction(-1, 2))
REFERENCE_FRAME = (U1, U2, U3)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket [x, y] in (H, E, F) coordinates.

    Expanding [aH + bE + cF, a'H + b'E + c'F] with the structure
    constants gives (bc' - cb') H + 2(ab' - ba') E + 2(ca' - ac') F.
    """
    [[a, b, c], [d, e, f]], den = _numerators([x.coords, y.coords])
    den *= den
    return LieElement((
        Fraction(b * f - c * e, den),
        Fraction(2 * (a * e - b * d), den),
        Fraction(2 * (c * d - a * f), den),
    ))


def adjoint(x: LieElement) -> tuple:
    """Matrix of ad_x = [x, .] in the basis (H, E, F), entries Fraction."""
    a, b, c = x.coords
    a2, b2, c2 = [Fraction(2 * v.numerator, v.denominator) for v in x.coords]
    zero = Fraction(0)
    return (
        (zero, -c, b),
        (-b2, a2, zero),
        (c2, zero, -a2),
    )


def _numerators(rows) -> tuple:
    """Rows of rationals as rows of integer numerators over their least
    common denominator: (integer rows, denominator).  Products and sums
    then run on ints, and each result Fraction is built once."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _mat_mul(x, y) -> tuple:
    """Product of two square matrices given as tuples of rows."""
    (rows, p), (other, q) = _numerators(x), _numerators(y)
    den, cols = p * q, tuple(zip(*other))
    return tuple(
        tuple(Fraction(sum(map(mul, row, col)), den) for col in cols) for row in rows
    )


def _trace_product(x, y) -> Fraction:
    """tr(xy) of two square matrices: the diagonal of the product, summed."""
    (rows, p), (other, q) = _numerators(x), _numerators(y)
    diagonal = (sum(map(mul, row, col)) for row, col in zip(rows, zip(*other)))
    return Fraction(sum(diagonal), p * q)


def trace2(x: LieElement, y: LieElement) -> Fraction:
    """tr(XY) of the 2x2 matrix product, in coordinates: 2aa' + bc' + cb'."""
    [[a, b, c], [d, e, f]], den = _numerators([x.coords, y.coords])
    return Fraction(2 * a * d + b * f + c * e, den * den)


def killing(x: LieElement, y: LieElement) -> Fraction:
    """Killing form tr(ad_x ad_y); equals 4 * trace2 on sl(2, R)."""
    return _trace_product(adjoint(x), adjoint(y))


def metric(x: LieElement, y: LieElement) -> Fraction:
    """Calibrated bi-invariant metric <x, y> = METRIC_NORMALIZATION * tr(XY)."""
    return METRIC_NORMALIZATION * trace2(x, y)


def omega(x: LieElement, y: LieElement, z: LieElement) -> Fraction:
    """Alternating 3-form tr(ad_x ad_[y,z]) = killing(x, [y, z])."""
    return killing(x, bracket(y, z))


def metric_coords(x: LieElement) -> tuple:
    """Coordinates of x in the reference orthonormal frame, computed
    through the metric with the declared signs (+1, +1, -1).

    With a correctly calibrated metric these agree with frame_coords;
    a miscalibrated normalisation shows up here (and hence in
    volume_form) rather than being silently absorbed.
    """
    return tuple(
        FRAME_SIGNS[i] * metric(x, REFERENCE_FRAME[i]) for i in range(3)
    )


def frame_coords(x: LieElement) -> tuple:
    """Coordinates of x in (u1, u2, u3) by exact change of basis:
    aH + bE + cF = (2a) u1 + (b+c) u2 + (b-c) u3."""
    a, b, c = x.coords
    return (2 * a, b + c, b - c)


def det3(rows) -> Fraction:
    """Determinant of a 3x3 array of Fractions given as rows."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def volume_form(x: LieElement, y: LieElement, z: LieElement) -> Fraction:
    """Volume of the parallelepiped (x, y, z): determinant of metric
    coordinates in the reference frame, which is positively oriented."""
    return det3([metric_coords(v) for v in (x, y, z)])

