"""Constant-coefficient invariant forms on the 3-dimensional model space.

A k-form stores one value per increasing index tuple over {1, 2, 3},
the indices referring to the reference orthonormal frame (u1, u2, u3)
of `liealg`.  Values are either endomorphisms (3x3 matrices over
Fraction, acting on the Lie algebra in the basis (H, E, F), stored as
nested tuples of rows) or scalars.
Evaluation at arbitrary Lie-algebra vectors extends multilinearly and
antisymmetrically, so everything stays exact.

The canonical connection-difference form is A(x) = ad_x.  Its exterior
derivative on invariant forms is dA(x, y) = -A([x, y]), and the
Maurer-Cartan identity dA + (1/2)[A ^ A] = 0 holds exactly.  Along the
affine path of connections with difference t*A the curvature is

    R(t) = t dA + (t^2/2) [A ^ A] = ((t^2 - t)/2) [A ^ A],

flat at both endpoints.  Contracting with A and integrating t over
[0, 1] produces the closed-form coefficient -1/12, which is what links
this module to the rational volume bookkeeping in `invariants`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .liealg import (
    LieElement,
    REFERENCE_FRAME,
    _mat_mul,
    _trace_product,
    adjoint,
    as_fraction,
    bracket,
    frame_coords,
    volume_form,
)

_INDICES = (1, 2, 3)


def _increasing_tuples(degree: int) -> tuple:
    return tuple(itertools.combinations(_INDICES, degree))


def _sort_sign(indices) -> tuple:
    """(sign, sorted tuple) of an index tuple; sign 0 on repeats."""
    idx = tuple(indices)
    if len(set(idx)) != len(idx):
        return 0, idx
    perm = sorted(range(len(idx)), key=lambda i: idx[i])
    sign = 1
    seen = [False] * len(idx)
    for start in range(len(idx)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign, tuple(sorted(idx))


def _zero_matrix() -> tuple:
    return ((Fraction(0),) * 3,) * 3


def _as_matrix(m) -> tuple:
    """A 3x3 matrix of exact rationals as a tuple of row tuples."""
    rows = tuple(tuple(as_fraction(v) for v in row) for row in m)
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise InputError("form values must be 3x3 matrices")
    return rows


def _add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(p, q)) for p, q in zip(a, b))


def _sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(p, q)) for p, q in zip(a, b))


def _scale(s, m) -> tuple:
    return tuple(tuple(s * x for x in row) for row in m)


def commutator(a, b) -> tuple:
    return _sub(_mat_mul(a, b), _mat_mul(b, a))


@dataclass(frozen=True)
class EndValuedForm:
    """Alternating form with endomorphism (3x3 Fraction matrix) values."""

    degree: int
    values: dict

    def __post_init__(self):
        if self.degree not in (0, 1, 2, 3):
            raise InputError("degree must be 0..3")
        expected = _increasing_tuples(self.degree)
        if set(self.values) != set(expected):
            raise InputError(
                f"degree-{self.degree} form must store exactly the index "
                f"tuples {expected}"
            )
        object.__setattr__(
            self, "values", {k: _as_matrix(v) for k, v in self.values.items()}
        )

    def value_at(self, indices) -> tuple:
        """Value on an arbitrary frame-index tuple, by antisymmetry."""
        sign, key = _sort_sign(indices)
        if sign == 0:
            return _zero_matrix()
        value = self.values[key]
        return value if sign == 1 else _scale(sign, value)

    def evaluate(self, *vectors: LieElement) -> tuple:
        """Multilinear evaluation at Lie-algebra vectors."""
        if len(vectors) != self.degree:
            raise InputError(f"need {self.degree} vectors, got {len(vectors)}")
        coords = [frame_coords(v) for v in vectors]
        total = _zero_matrix()
        for idx in itertools.product(_INDICES, repeat=self.degree):
            coeff = Fraction(1)
            for slot, i in enumerate(idx):
                coeff *= coords[slot][i - 1]
            if coeff != 0:
                total = _add(total, _scale(coeff, self.value_at(idx)))
        return total

    def __add__(self, other: "EndValuedForm") -> "EndValuedForm":
        if self.degree != other.degree:
            raise InputError("cannot add forms of different degree")
        return EndValuedForm(
            self.degree,
            {k: _add(self.values[k], other.values[k]) for k in self.values},
        )

    def __sub__(self, other: "EndValuedForm") -> "EndValuedForm":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "EndValuedForm":
        s = as_fraction(scalar)
        return EndValuedForm(self.degree, {k: _scale(s, v) for k, v in self.values.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndValuedForm) or self.degree != other.degree:
            return NotImplemented
        return self.values == other.values

    def is_zero(self) -> bool:
        return all(v == _zero_matrix() for v in self.values.values())


@dataclass(frozen=True)
class ScalarForm:
    """Alternating form with exact rational values."""

    degree: int
    values: dict

    def __post_init__(self):
        if self.degree not in (0, 1, 2, 3):
            raise InputError("degree must be 0..3")
        expected = _increasing_tuples(self.degree)
        if set(self.values) != set(expected):
            raise InputError(
                f"degree-{self.degree} form must store exactly the index "
                f"tuples {expected}"
            )
        object.__setattr__(
            self,
            "values",
            {k: as_fraction(v) for k, v in self.values.items()},
        )

    def value_at(self, indices) -> Fraction:
        sign, key = _sort_sign(indices)
        if sign == 0:
            return Fraction(0)
        return sign * self.values[key]

    def evaluate(self, *vectors: LieElement) -> Fraction:
        if len(vectors) != self.degree:
            raise InputError(f"need {self.degree} vectors, got {len(vectors)}")
        coords = [frame_coords(v) for v in vectors]
        total = Fraction(0)
        for idx in itertools.product(_INDICES, repeat=self.degree):
            coeff = Fraction(1)
            for slot, i in enumerate(idx):
                coeff *= coords[slot][i - 1]
            if coeff != 0:
                total += coeff * self.value_at(idx)
        return total


def canonical_maurer_cartan() -> EndValuedForm:
    """The adjoint-valued 1-form A(x) = ad_x on the reference frame."""
    return EndValuedForm(
        1, {(i,): adjoint(REFERENCE_FRAME[i - 1]) for i in _INDICES}
    )


def bracket_wedge(a: EndValuedForm, b: EndValuedForm) -> EndValuedForm:
    """[a ^ b](x, y) = [a(x), b(y)] - [a(y), b(x)] for 1-forms."""
    if a.degree != 1 or b.degree != 1:
        raise InputError("bracket_wedge is defined for 1-forms only")
    values = {}
    for i, j in _increasing_tuples(2):
        values[(i, j)] = _sub(
            commutator(a.values[(i,)], b.values[(j,)]),
            commutator(a.values[(j,)], b.values[(i,)]),
        )
    return EndValuedForm(2, values)


def invariant_d(a: EndValuedForm) -> EndValuedForm:
    """Exterior derivative on invariant 1-forms: (da)(x, y) = -a([x, y])."""
    if a.degree != 1:
        raise InputError("invariant_d is defined for 1-forms only")
    values = {}
    for i, j in _increasing_tuples(2):
        br = bracket(REFERENCE_FRAME[i - 1], REFERENCE_FRAME[j - 1])
        values[(i, j)] = _scale(-1, a.evaluate(br))
    return EndValuedForm(2, values)


def maurer_cartan_residual(a: EndValuedForm) -> EndValuedForm:
    """da + (1/2)[a ^ a]; identically zero exactly when a satisfies the
    structural (Maurer-Cartan) equation, as the canonical form does."""
    return invariant_d(a) + Fraction(1, 2) * bracket_wedge(a, a)


@dataclass(frozen=True)
class ConnectionPath:
    """Point t on the affine path of connections with difference t * base."""

    t: Fraction
    base: EndValuedForm = field(default_factory=canonical_maurer_cartan)

    def __post_init__(self):
        object.__setattr__(self, "t", as_fraction(self.t))
        if not 0 <= self.t <= 1:
            raise InputError("path parameter t must lie in [0, 1]")


def curvature_at(path: ConnectionPath) -> EndValuedForm:
    """Curvature t * da + (t^2/2) [a ^ a] at a point of the affine path."""
    a = path.base
    t = path.t
    return t * invariant_d(a) + (t * t / 2) * bracket_wedge(a, a)


def wedge_trace(a: EndValuedForm, r: EndValuedForm) -> ScalarForm:
    """Scalar 3-form tr(a ^ r) with the full antisymmetrisation

        (1/6) sum over permutations s of (1,2,3) of
              sign(s) * tr( a(x_{s1}) r(x_{s2}, x_{s3}) ).
    """
    if a.degree != 1 or r.degree != 2:
        raise InputError("wedge_trace expects a 1-form and a 2-form")
    total = Fraction(0)
    for perm in itertools.permutations(_INDICES):
        sign, _ = _sort_sign(perm)
        total += sign * _trace_product(
            a.value_at((perm[0],)), r.value_at((perm[1], perm[2]))
        )
    return ScalarForm(3, {(1, 2, 3): Fraction(1, 6) * total})


def cs_density(
    a: EndValuedForm,
    frame=None,
    orientation: int = 1,
) -> Fraction:
    """Ratio of tr(a ^ [a ^ a]) to the volume form on a frame.

    For the canonical form this is the frozen constant -4: each of the
    six permutation terms contributes 2 * omega(u1, u2, u3) = -4, so the
    (1/6)-weighted sum is -4 while the volume form is 1.  The ratio of
    two nonzero alternating 3-forms does not depend on the frame; it
    flips sign with the global orientation.
    """
    vectors = REFERENCE_FRAME if frame is None else tuple(frame)
    if len(vectors) != 3:
        raise InputError("cs_density needs a frame of three vectors")
    numerator = wedge_trace(a, bracket_wedge(a, a)).evaluate(*vectors)
    denominator = volume_form(*vectors, orientation=orientation)
    if denominator == 0:
        raise InputError("frame is degenerate (zero volume)")
    return numerator / denominator


def path_integral_coefficient() -> Fraction:
    """Exact integral over [0, 1] of the curvature coefficient
    (t^2 - t)/2, by the power rule: 1/6 - 1/4 = -1/12."""
    return Fraction(1, 6) - Fraction(1, 4)
