"""Lie-algebra layer: brackets, Killing form, metric, volume form.

Oracles live in _oracles.py and recompute everything from literal 2x2
matrices, so these tests do not trust the module's own adjoint tables.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import (
    adjoint_action,
    as_array,
    as_rows,
    hyperbolic_distance,
    mat2,
    moebius_apply,
    oracle_ad,
    oracle_bracket,
    oracle_killing,
    oracle_omega,
    random_ad_frame,
    random_rational_sl2,
    reference_bracket,
    reference_mat_mul,
    reference_trace_product,
)
from adsvol.errors import InputError
from adsvol.liealg import (
    BASIS,
    E,
    F,
    FRAME_SIGNS,
    H,
    METRIC_NORMALIZATION,
    OMEGA_VOLUME_RATIO,
    REFERENCE_FRAME,
    U1,
    U2,
    U3,
    LieElement,
    _mat_mul,
    _trace_product,
    adjoint,
    as_fraction,
    bracket,
    det3,
    frame_coords,
    killing,
    metric,
    metric_coords,
    omega,
    trace2,
    volume_form,
)

# The rationals in [-8, 8] with denominator at most 12, drawn as p/q:
# the support of st.fractions(-8, 8, max_denominator=12) at a fraction
# of its drawing cost.
rationals = st.integers(1, 12).flatmap(
    lambda q: st.integers(-8 * q, 8 * q).map(lambda p: Fraction(p, q))
)
elements = st.builds(LieElement.of, rationals, rationals, rationals)
# Zero, both endpoints and the largest denominator, which st.fractions
# drew early and the p/q draw may not.
EDGE_ELEMENTS = (
    LieElement.of(0, 0, 0),
    LieElement.of(-8, 8, Fraction(-95, 12)),
    LieElement.of(Fraction(1, 12), 8, -8),
)


def pin_edges(*extra):
    """Run a test of element arguments (then `extra`) on EDGE_ELEMENTS as
    explicit examples, argument j of example i being edge i + j."""

    def pin(test):
        arity = test.__code__.co_argcount - len(extra)
        n = len(EDGE_ELEMENTS)
        for i in range(n):
            args = [EDGE_ELEMENTS[(i + j) % n] for j in range(arity)]
            test = example(*args, *extra)(test)
        return test

    return pin


# The rationals in [-5, 5] with denominator at most 6, drawn as p/q.
scalars = st.integers(1, 6).flatmap(
    lambda q: st.integers(-5 * q, 5 * q).map(lambda p: Fraction(p, q))
)


# ---------------------------------------------------------------- basics


def test_basis_matrices():
    assert H.to_matrix() == as_rows(mat2((1, 0, 0)))
    assert E.to_matrix() == as_rows(mat2((0, 1, 0)))
    assert F.to_matrix() == as_rows(mat2((0, 0, 1)))


def test_as_fraction_accepts_exact_types_only():
    assert as_fraction(3) == 3
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(Fraction(-1, 2)) == Fraction(-1, 2)
    with pytest.raises(InputError):
        as_fraction(0.5)


@pytest.mark.parametrize("flag", [True, False])
def test_as_fraction_refuses_bool(flag):
    with pytest.raises(InputError):
        as_fraction(flag)
    with pytest.raises(InputError):
        LieElement.of(flag, 0, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LieElement.of("abc", 0, 0),
        lambda: LieElement.of("1/0", 0, 0),
        lambda: LieElement.of(" ", 0, 0),
        lambda: as_fraction("1/0"),
    ],
    ids=["not-a-number", "zero-denominator", "blank", "as-fraction"],
)
def test_malformed_rational_string_is_input_error(build):
    with pytest.raises(InputError) as excinfo:
        build()
    assert isinstance(excinfo.value.__cause__, (ValueError, ZeroDivisionError))


def test_element_arithmetic():
    x = LieElement.of(1, "1/2", -3)
    y = LieElement.of(0, 2, 1)
    assert (x + y).coords == (Fraction(1), Fraction(5, 2), Fraction(-2))
    assert (x - x).is_zero()
    assert (-x).coords == (Fraction(-1), Fraction(-1, 2), Fraction(3))
    assert (2 * x).coords == (Fraction(2), Fraction(1), Fraction(-6))
    assert LieElement.zero().is_zero()


def test_elements_reject_floats():
    with pytest.raises(InputError):
        LieElement.of(0.5, 0, 0)


@pytest.mark.parametrize(
    "coords", [5, None, Fraction(1), "abc", (1, 2), [1, 2, 3, 4], {1: 0, 2: 0, 3: 0}]
)
def test_elements_need_three_coordinates(coords):
    with pytest.raises(InputError):
        LieElement(coords)


# --------------------------------------------------------------- bracket


def test_bracket_structure_constants():
    assert bracket(H, E) == 2 * E
    assert bracket(H, F) == -2 * F
    assert bracket(E, F) == H


@given(elements, elements)
@pin_edges()
def test_bracket_matches_matrix_commutator(x, y):
    assert bracket(x, y).coords == oracle_bracket(x.coords, y.coords)


@given(elements, elements)
@pin_edges()
def test_bracket_antisymmetry(x, y):
    assert bracket(x, y) == -bracket(y, x)


@given(elements, elements, elements, scalars)
@pin_edges(Fraction(-5))
@example(*EDGE_ELEMENTS, Fraction(0))
@example(*EDGE_ELEMENTS, Fraction(5))
@example(*EDGE_ELEMENTS, Fraction(-29, 6))
def test_bracket_bilinearity(x, y, z, t):
    assert bracket(x + t * y, z) == bracket(x, z) + t * bracket(y, z)


@given(elements, elements, elements)
@pin_edges()
def test_jacobi_identity(x, y, z):
    total = (
        bracket(x, bracket(y, z))
        + bracket(y, bracket(z, x))
        + bracket(z, bracket(x, y))
    )
    assert total.is_zero()


# --------------------------------------------------------- exact kernels

# Zero is drawn often: the reference kernels skip zero factors, and the
# integer kernels must agree with them there too.
entries = st.one_of(st.just(Fraction(0)), rationals)
square_pairs = st.integers(2, 3).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.tuples(*[entries] * n)] * n)] * 2)
)
ZERO2 = ((Fraction(0),) * 2,) * 2


@given(square_pairs)
@example((ZERO2, ZERO2))
@example((((Fraction(-1, 2), Fraction(0)), (Fraction(3), Fraction(-5, 6))),
          ((Fraction(0), Fraction(7, 4)), (Fraction(-2, 3), Fraction(0)))))
def test_matrix_kernels_match_fraction_references(pair):
    x, y = pair
    product = _mat_mul(x, y)
    assert product == reference_mat_mul(x, y)
    assert all(type(v) is Fraction for row in product for v in row)
    trace = _trace_product(x, y)
    assert trace == reference_trace_product(x, y)
    assert type(trace) is Fraction


@given(elements, elements)
@pin_edges()
def test_bracket_and_trace_form_match_fraction_references(x, y):
    result = bracket(x, y)
    assert result == reference_bracket(x, y)
    assert all(type(v) is Fraction for v in result.coords)
    a, b, c = x.coords
    d, e, f = y.coords
    assert trace2(x, y) == 2 * a * d + b * f + c * e
    assert type(trace2(x, y)) is Fraction


# --------------------------------------------------------------- adjoint


def test_adjoint_worked_matrices():
    assert adjoint(H) == ((0, 0, 0), (0, 2, 0), (0, 0, -2))
    assert adjoint(E) == ((0, 0, 1), (-2, 0, 0), (0, 0, 0))
    assert adjoint(F) == ((0, -1, 0), (0, 0, 0), (2, 0, 0))


@given(elements)
@pin_edges()
def test_adjoint_matches_oracle(x):
    assert adjoint(x) == as_rows(oracle_ad(x.coords))


@given(elements)
@pin_edges()
def test_exact_values_are_nested_fraction_tuples(x):
    # the exact layers hold no floats and no arrays: every matrix is a
    # tuple of row tuples of Fractions
    for m in (adjoint(x), x.to_matrix()):
        assert type(m) is tuple
        assert all(type(row) is tuple for row in m)
        assert all(type(v) is Fraction for row in m for v in row)


@given(elements, elements)
@pin_edges()
def test_adjoint_applies_bracket(x, y):
    image = as_array(adjoint(x)) @ np.array(y.coords, dtype=object)
    assert tuple(image) == bracket(x, y).coords


@given(elements, elements)
@pin_edges()
def test_adjoint_is_homomorphism(x, y):
    lhs = adjoint(bracket(x, y))
    ad_x, ad_y = as_array(adjoint(x)), as_array(adjoint(y))
    rhs = ad_x @ ad_y - ad_y @ ad_x
    assert lhs == as_rows(rhs)


# ---------------------------------------------------------- killing form


def test_killing_worked_values():
    assert killing(H, H) == 8
    assert killing(E, F) == 4
    assert killing(E - F, E - F) == -8
    assert killing(H, E) == 0
    assert killing(H, F) == 0
    assert killing(E, E) == 0


@given(elements, elements)
@pin_edges()
def test_killing_matches_trace_oracle(x, y):
    assert killing(x, y) == oracle_killing(x.coords, y.coords)


@given(elements, elements)
@pin_edges()
def test_killing_is_four_times_trace_form(x, y):
    assert killing(x, y) == 4 * trace2(x, y)


@given(elements, elements, elements)
@pin_edges()
def test_killing_invariance(x, y, z):
    assert killing(bracket(x, y), z) == killing(x, bracket(y, z))


# ----------------------------------------------------------------- metric


def test_metric_normalization_frozen():
    assert METRIC_NORMALIZATION == Fraction(2)


def test_metric_worked_values():
    assert metric(H, H) == 4
    assert metric(E, E) == 0
    assert metric(E, F) == 2
    assert metric(U1, U1) == 1
    assert metric(U2, U2) == 1
    assert metric(U3, U3) == -1


def test_metric_gram_matrices():
    # in the H, E, F basis the metric is 2 * trace form
    expected = (
        (Fraction(4), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(2)),
        (Fraction(0), Fraction(2), Fraction(0)),
    )
    assert tuple(tuple(metric(a, b) for b in BASIS) for a in BASIS) == expected
    # on the reference frame it is diag(+1, +1, -1)
    frame_gram = [[metric(u, v) for v in REFERENCE_FRAME] for u in REFERENCE_FRAME]
    assert frame_gram == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(-1)],
    ]


def test_metric_normalization_matches_geodesic_speed():
    """The scale is pinned by the unit-tangent submersion convention:
    exp(t H) must move the base point i at unit-time hyperbolic speed
    whose square equals metric(H, H).  The curve t -> exp(tH) . i is
    e^{2t} i, so speed is 2 and metric(H, H) must be 4; the trace form
    alone gives trace2(H, H) = 2, fixing the normalization factor 2.
    """
    base = 1j
    for t in (0.5, 0.1, 0.01):
        mat = ((math.exp(t), 0.0), (0.0, math.exp(-t)))
        moved = moebius_apply(mat, base)
        assert abs(moved - math.exp(2 * t) * 1j) < 1e-12
        speed = hyperbolic_distance(base, moved) / t
        assert abs(speed - 2.0) < 1e-9
    assert metric(H, H) == Fraction(2) ** 2
    assert METRIC_NORMALIZATION * trace2(H, H) == metric(H, H)


def test_signature_is_two_one():
    # Sylvester's law of inertia on the reference frame: it is a basis
    # and diagonalises the metric, so its signs are the signature
    assert det3([u.coords for u in REFERENCE_FRAME]) != 0
    gram = [[metric(u, v) for v in REFERENCE_FRAME] for u in REFERENCE_FRAME]
    assert all(gram[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    assert [(d > 0) - (d < 0) for d in (gram[i][i] for i in range(3))] == [1, 1, -1]


@given(elements)
@pin_edges()
def test_frame_and_metric_coords_agree(x):
    # Both coordinate maps must match; this is exactly the statement
    # that the normalization factor calibrates the trace form to the
    # orthonormal reference frame.
    assert frame_coords(x) == metric_coords(x)


def test_frame_coords_worked():
    assert frame_coords(H) == (2, 0, 0)
    assert frame_coords(E) == (0, 1, 1)
    assert frame_coords(F) == (0, 1, -1)


# ------------------------------------------------------- omega and volume


def test_omega_worked_values():
    assert omega(H, E, F) == oracle_omega((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert omega(H, E, F) == 8
    assert omega(U1, U2, U3) == -2


@given(elements, elements, elements)
@pin_edges()
def test_omega_matches_oracle(x, y, z):
    assert omega(x, y, z) == oracle_omega(x.coords, y.coords, z.coords)


@given(elements, elements, elements)
@pin_edges()
def test_omega_is_alternating(x, y, z):
    assert omega(x, y, z) == -omega(y, x, z)
    assert omega(x, y, z) == -omega(x, z, y)
    assert omega(x, x, z) == 0


def test_volume_form_worked_values():
    assert volume_form(*REFERENCE_FRAME) == 1
    assert volume_form(U2, U1, U3) == -1
    assert volume_form(U1, U1, U3) == 0


@given(elements, elements, elements)
@pin_edges()
def test_omega_volume_ratio_frozen(x, y, z):
    # omega and the metric volume form are both alternating 3-forms on
    # a 3-dimensional space, hence proportional; the constant is -2.
    assert OMEGA_VOLUME_RATIO == Fraction(-2)
    assert omega(x, y, z) == OMEGA_VOLUME_RATIO * volume_form(x, y, z)


# ------------------------------------------------------------- frames


def test_random_frames_are_orthonormal_and_positive(rng):
    for _ in range(10):
        frame = random_ad_frame(rng)
        assert volume_form(*frame) == 1
        for i, v in enumerate(frame):
            assert metric(v, v) == FRAME_SIGNS[i]
            for w in frame[i + 1:]:
                assert metric(v, w) == 0


# ------------------------------------------------- adjoint group action


def test_random_rational_sl2_has_unit_det(rng):
    for _ in range(50):
        g = random_rational_sl2(rng)
        assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1


def test_adjoint_action_worked():
    shear = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    assert adjoint_action(shear, E) == E
    assert adjoint_action(shear, H) == H - 2 * E
    assert adjoint_action(shear, F) == F + H - E


def test_adjoint_action_requires_unit_det():
    g = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
    with pytest.raises(InputError):
        adjoint_action(g, H)


def test_adjoint_action_preserves_killing_and_bracket(rng):
    for _ in range(25):
        g = random_rational_sl2(rng)
        x = LieElement.of(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        y = LieElement.of(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        gx, gy = adjoint_action(g, x), adjoint_action(g, y)
        assert killing(gx, gy) == killing(x, y)
        assert adjoint_action(g, bracket(x, y)) == bracket(gx, gy)
        assert omega(gx, gy, adjoint_action(g, bracket(x, y))) == omega(
            x, y, bracket(x, y)
        )
