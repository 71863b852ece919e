"""Exact volume and Chern-Simons invariants of the closed quotients.

A closed anti-de-Sitter manifold in the family considered here is
described by three integers: the Euler number e of the Fuchsian factor,
the Euler number f of the other factor, and the covering degree k != 0
of the circle bundle.  Every invariant is a plain `Fraction`: a volume
is its coefficient of pi^2, a Chern-Simons value is the rational
itself.

The identities wired through this module:

    volume(e, f, k)      = 4 (e^2 - f^2) / k   (times pi^2, signed)
    cs_rho_id(f, k)      = -f^2 / (6k)
    cs_pair(e, f, k)     = (f^2 - e^2) / (6k)
    vol_from_cs(v)       = -24 v                (times pi^2)
    unit_tangent_volume  = volume(e, 0, e) = 4e (times pi^2)

together with additivity of Chern-Simons differences along
concatenated paths (chasles) and multiplicativity under degree-d
pullback (cs_scale: pulling back along a degree-d fibrewise covering
multiplies the invariant by d, so the value on the degree-k quotient
is the k = 1 value divided by k).

geometry_calibration closes the loop with the differential-geometric
pipeline of `forms`: the predicted Chern-Simons value of a descriptor
is (1/(8 pi^2)) * (path coefficient -1/12) * kappa * volume, where
kappa = cs_density(canonical form).  The ratio of that prediction to
cs_pair is the frozen rational CALIBRATION_RATIO = -1.  Its magnitude 1
means the normalisations (metric calibration, 1/6 antisymmetrisation,
1/(8 pi^2) front factor, -1/12 path integral) are mutually consistent;
the sign records that the positive orientation of the reference frame
(u1, u2, u3) of `liealg` is opposite to the one implicit in the
combinatorial formulas.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import forms
from .errors import ConventionWarning, InputError, _require_genus, _require_int
from .liealg import as_fraction

#: cs_density of the canonical form on the reference frame, frozen after
#: computation by the permutation-sum oracle in the tests.
CS_DENSITY_REFERENCE = Fraction(-4)

#: Ratio of the geometric Chern-Simons prediction to the combinatorial
#: value, frozen golden constant (see module docstring).
CALIBRATION_RATIO = Fraction(-1)


def rational_str(value: Fraction) -> str:
    """Canonical 'p/q' rendering, q > 0, gcd(p, q) = 1."""
    f = as_fraction(value)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class AdSDescriptor:
    """Integer descriptor (e, f, k) of a closed quotient, genus optional.

    k must be nonzero.  When the genus g of the underlying surface is
    given, both Euler numbers are checked against the Milnor-Wood bound
    |e|, |f| <= 2g - 2.  Descriptors with f = +-e are arithmetically
    fine (the volume degenerates to 0 when f = +-e with the same k) but
    sit outside the geometrically admissible regime, which needs a
    non-Fuchsian second factor; constructing one emits a
    ConventionWarning rather than an error.
    """

    e: int
    f: int
    k: int
    genus: int | None = None

    def __post_init__(self):
        for name in ("e", "f", "k"):
            _require_int(name, getattr(self, name))
        if self.k == 0:
            raise InputError("covering degree k must be nonzero")
        if self.genus is not None:
            _require_genus("genus", self.genus)
            bound = 2 * self.genus - 2
            if abs(self.e) > bound or abs(self.f) > bound:
                raise InputError(
                    f"Euler numbers violate the Milnor-Wood bound |.| <= {bound}"
                )
        if self.f == self.e or self.f == -self.e:
            warnings.warn(
                "descriptor has f = +-e; the admissible regime needs a "
                "non-Fuchsian second factor (|f| < |e|)",
                ConventionWarning,
                stacklevel=3,  # past the dataclass __init__ to the caller
            )


def volume(d: AdSDescriptor) -> Fraction:
    """Signed volume 4 (e^2 - f^2)/k, as a coefficient of pi^2."""
    return Fraction(4 * (d.e * d.e - d.f * d.f), d.k)


def unit_tangent_volume(e: int) -> Fraction:
    """Volume 4e of the unit tangent bundle descriptor (e, 0, e), as a
    coefficient of pi^2."""
    _require_int("e", e)
    if e == 0:
        raise InputError("unit tangent bundle needs e != 0")
    return Fraction(4 * e)


def cs_rho_id(f: int, k: int) -> Fraction:
    """Chern-Simons difference -f^2/(6k) between the flat connection of
    the second factor and the trivial one, on the degree-k quotient."""
    _require_int("f", f)
    _require_int("k", k)
    if k == 0:
        raise InputError("covering degree k must be nonzero")
    return Fraction(-f * f, 6 * k)


def cs_pair(d: AdSDescriptor) -> Fraction:
    """Relative Chern-Simons invariant (f^2 - e^2)/(6k) of the two factors."""
    return Fraction(d.f * d.f - d.e * d.e, 6 * d.k)


def cs_scale(degree: int, v: Fraction) -> Fraction:
    """Pullback along a degree-d fibrewise covering multiplies the
    invariant by d."""
    _require_int("degree", degree)
    return degree * as_fraction(v)


def chasles(ab: Fraction, bc: Fraction) -> Fraction:
    """Additivity along concatenated connection paths."""
    return as_fraction(ab) + as_fraction(bc)


def vol_from_cs(v: Fraction) -> Fraction:
    """Signed volume -24 * cs, as a coefficient of pi^2, recovered from
    the relative Chern-Simons invariant of the two factors."""
    v = as_fraction(v)
    return Fraction(-24 * v.numerator, v.denominator)


def geometry_calibration(e: int = -2) -> Fraction:
    """Exact ratio between the differential-geometric Chern-Simons
    prediction and the combinatorial value, on a unit-tangent-bundle
    descriptor (e, 0, e).

    prediction = (1/(8 pi^2)) * (-1/12) * kappa * volume(e, 0, e), with
    kappa = cs_density(canonical form); the pi^2 cancels against the
    volume, so the ratio is an exact rational.  It does not depend on e
    and equals the frozen CALIBRATION_RATIO = -1 on a clean build.
    """
    d = AdSDescriptor(e, 0, e)
    kappa = forms.cs_density(forms.canonical_maurer_cartan())
    predicted = forms.path_integral_coefficient() * kappa * volume(d) / 8
    return predicted / cs_pair(d)


def json_record(d: AdSDescriptor) -> dict:
    """The canonical JSON payload for a descriptor: all rationals are
    rendered as 'p/q' strings with positive denominator in lowest terms."""
    vol = volume(d)
    return {
        "e": d.e,
        "f": d.f,
        "k": d.k,
        "volume_signed_pi2": rational_str(vol),
        "volume_pi2": rational_str(abs(vol)),
        "cs": rational_str(cs_pair(d)),
    }
