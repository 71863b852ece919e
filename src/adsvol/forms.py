"""Constant-coefficient invariant forms on the 3-dimensional model space.

A form stores one value per increasing index tuple over {1, 2, 3}, the
indices referring to the reference orthonormal frame (u1, u2, u3) of
`liealg`.  Values are endomorphisms (3x3 matrices over Fraction, acting
on the Lie algebra in the basis (H, E, F), stored as nested tuples of
rows).  1-forms and 2-forms are read on the frame, at their stored
increasing index tuples; a 1-form also evaluates at a vector, linearly
in its frame coordinates, so everything stays exact.
The one scalar form needed, the top-degree tr(A ^ [A ^ A]), is a single
rational: `wedge_trace` returns its value on (u1, u2, u3), which fixes
it, as it fixes every alternating 3-form.

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
from dataclasses import dataclass
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


def _zero_matrix() -> tuple:
    return ((Fraction(0),) * 3,) * 3


def _as_matrix(m) -> tuple:
    """A 3x3 matrix of exact rationals as a tuple of row tuples."""
    try:
        rows = tuple(tuple(as_fraction(v) for v in row) for row in m)
    except TypeError:  # the value or one of its rows is not iterable
        rows = ()
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
    """Alternating 1-form or 2-form with endomorphism (3x3 Fraction
    matrix) values, one value per increasing index tuple."""

    degree: int
    values: dict

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise InputError("degree must be 1 or 2")
        expected = _increasing_tuples(self.degree)
        if set(self.values) != set(expected):
            raise InputError(
                f"degree-{self.degree} form must store exactly the index "
                f"tuples {expected}"
            )
        object.__setattr__(
            self, "values", {k: _as_matrix(v) for k, v in self.values.items()}
        )

    def evaluate(self, x: LieElement) -> tuple:
        """A 1-form at the vector x: the sum over the frame indices i of
        the i-th frame coordinate of x times the value on (i,)."""
        if self.degree != 1:
            raise InputError("evaluate is defined for 1-forms only")
        total = _zero_matrix()
        for i, c in zip(_INDICES, frame_coords(x)):
            if c != 0:
                total = _add(total, _scale(c, self.values[(i,)]))
        return total

    def __add__(self, other):
        if not isinstance(other, EndValuedForm) or self.degree != other.degree:
            raise InputError("can only add forms of the same degree")
        return EndValuedForm(
            self.degree,
            {k: _add(self.values[k], other.values[k]) for k in self.values},
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        s = as_fraction(scalar)
        return EndValuedForm(
            self.degree, {k: _scale(s, v) for k, v in self.values.items()}
        )

    def is_zero(self) -> bool:
        zero = _zero_matrix()
        return all(v == zero for v in self.values.values())


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
    """Point t on the affine path of connections with difference t * A."""

    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", as_fraction(self.t))
        if not 0 <= self.t <= 1:
            raise InputError("path parameter t must lie in [0, 1]")


def curvature_at(path: ConnectionPath) -> EndValuedForm:
    """Curvature t * dA + (t^2/2) [A ^ A] at a point of the affine path."""
    a = canonical_maurer_cartan()
    t = path.t
    return t * invariant_d(a) + (t * t / 2) * bracket_wedge(a, a)


def wedge_trace(a: EndValuedForm, r: EndValuedForm) -> Fraction:
    """Value on the reference frame (u1, u2, u3) of the scalar 3-form
    tr(a ^ r), the (1/6)-weighted sum of sign(s) tr(a(u_s1) r(u_s2, u_s3))
    over the permutations s of (1, 2, 3).  r alternates, so the six terms
    fold into three:

        (tr(a_1 r_23) - tr(a_2 r_13) + tr(a_3 r_12)) / 3.

    A 3-form is this one number times the determinant of the frame
    coordinates of its arguments.
    """
    if a.degree != 1 or r.degree != 2:
        raise InputError("wedge_trace expects a 1-form and a 2-form")
    return (
        _trace_product(a.values[(1,)], r.values[(2, 3)])
        - _trace_product(a.values[(2,)], r.values[(1, 3)])
        + _trace_product(a.values[(3,)], r.values[(1, 2)])
    ) / 3


def cs_density(a: EndValuedForm) -> Fraction:
    """Ratio of tr(a ^ [a ^ a]) to the volume form, read on the
    reference frame.

    For the canonical form this is the frozen constant -4, as each of the
    three terms of `wedge_trace` is 2 * omega(u1, u2, u3) = -4, while the
    volume form is 1.  Both are alternating 3-forms on a 3-dimensional
    space, so their ratio is the same on every frame.  The volume form is
    read through the metric, so a miscalibrated metric shows up here.
    """
    return wedge_trace(a, bracket_wedge(a, a)) / volume_form(*REFERENCE_FRAME)


def path_integral_coefficient() -> Fraction:
    """Exact integral over [0, 1] of the curvature coefficient
    (t^2 - t)/2, by the power rule: 1/6 - 1/4 = -1/12."""
    return Fraction(1, 6) - Fraction(1, 4)
