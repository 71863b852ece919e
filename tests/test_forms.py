"""Invariant-forms engine: flatness, curvature path, density constants."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import (
    as_array,
    as_rows,
    oracle_ad,
    oracle_bracket,
    oracle_form_evaluate,
    oracle_wedge_trace,
    random_ad_frame,
    simpson_unit,
)
from adsvol import forms
from adsvol.errors import InputError
from adsvol.forms import (
    ConnectionPath,
    EndValuedForm,
    bracket_wedge,
    canonical_maurer_cartan,
    commutator,
    cs_density,
    curvature_at,
    invariant_d,
    maurer_cartan_residual,
    path_integral_coefficient,
    wedge_trace,
)
from adsvol.liealg import (
    REFERENCE_FRAME,
    U1,
    U2,
    U3,
    LieElement,
    adjoint,
    bracket,
    det3,
    frame_coords,
    volume_form,
)

# The rationals in [-6, 6] with denominator at most 8, drawn as p/q:
# the support of st.fractions(-6, 6, max_denominator=8) at a fraction of
# its drawing cost.
rationals = st.integers(1, 8).flatmap(
    lambda q: st.integers(-6 * q, 6 * q).map(lambda p: Fraction(p, q))
)
elements = st.builds(LieElement.of, rationals, rationals, rationals)
# Zero, both endpoints and the largest denominator, pinned by @example.
ZERO = LieElement.of(0, 0, 0)
LOW = LieElement.of(-6, 6, Fraction(-47, 8))
HIGH = LieElement.of(Fraction(1, 8), 6, -6)
# Path parameters drawn the same way: [0, 1] with denominator at most 40.
unit_interval = st.integers(1, 40).flatmap(
    lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))
)


def rand_matrix(rng):
    return tuple(
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        for _ in range(3)
    )


def rand_one_form(rng):
    return EndValuedForm(1, {(i,): rand_matrix(rng) for i in (1, 2, 3)})


def rand_two_form(rng):
    return EndValuedForm(2, {idx: rand_matrix(rng) for idx in ((1, 2), (1, 3), (2, 3))})


# ------------------------------------------------------- canonical form


def test_canonical_form_values_are_adjoints():
    a = canonical_maurer_cartan()
    for i, u in enumerate(REFERENCE_FRAME, start=1):
        assert a.values[(i,)] == adjoint(u)


@given(elements)
@example(ZERO)
@example(LOW)
@example(HIGH)
def test_canonical_form_reproduces_adjoint(x):
    a = canonical_maurer_cartan()
    assert a.evaluate(x) == adjoint(x)


def from_frame_coords(c):
    return c[0] * U1 + c[1] * U2 + c[2] * U3


@pytest.mark.parametrize("degree", [1])
def test_evaluate_matches_multilinear_expansion(rng, degree):
    keys = list(combinations((1, 2, 3), degree))

    def rand_fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    for _ in range(5):
        matrices = {k: rand_matrix(rng) for k in keys}
        form = EndValuedForm(degree, matrices)
        coords = tuple(rand_fraction() for _ in range(3))
        assert form.evaluate(from_frame_coords(coords)) == tuple(
            tuple(
                oracle_form_evaluate({k: m[r][c] for k, m in matrices.items()}, [coords])
                for c in range(3)
            )
            for r in range(3)
        )
        assert form.evaluate(ZERO) == forms._zero_matrix()


@pytest.mark.parametrize(
    "cls, good, bad_values",
    [
        (
            EndValuedForm,
            adjoint(U1),
            [
                ((0.5, 0, 0), (0, 0, 0), (0, 0, 0)),
                ((1, 0), (0, 1)),
                ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),
                ((1, 0, 0), (0, 1), (0, 0, 1)),
            ],
        ),
    ],
)
def test_form_constructors_reject_malformed_input(cls, good, bad_values):
    # each of these stores exactly its increasing tuples, so only the
    # degree check refuses it
    for degree, values in ((0, {(): good}), (3, {(1, 2, 3): good}), (4, {})):
        with pytest.raises(InputError):
            cls(degree, values)
    with pytest.raises(InputError):
        cls(2, {(1, 2): good, (1, 3): good})
    with pytest.raises(InputError):
        cls(1, {(1,): good, (2,): good, (3,): good, (1, 2): good})
    for bad in bad_values:
        with pytest.raises(InputError):
            cls(1, {(1,): bad, (2,): good, (3,): good})
    form = cls(2, {(1, 2): good, (1, 3): good, (2, 3): good})
    with pytest.raises(InputError):
        form.evaluate(U1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: EndValuedForm(1, {(1,): 5, (2,): 5, (3,): 5}),
    ],
    ids=["scalar-as-matrix"],
)
def test_malformed_form_input_raises_input_error(call):
    with pytest.raises(InputError):
        call()


# -------------------------------------------------- wedge and derivative


def test_bracket_wedge_worked_value():
    a = canonical_maurer_cartan()
    two = bracket_wedge(a, a)
    expected = 2 * as_array(commutator(adjoint(U1), adjoint(U2)))
    assert two.values[(1, 2)] == as_rows(expected)


def test_bracket_wedge_is_symmetric(rng):
    a, b = rand_one_form(rng), rand_one_form(rng)
    assert bracket_wedge(a, b) == bracket_wedge(b, a)


def test_bracket_wedge_rejects_higher_degree():
    a = canonical_maurer_cartan()
    with pytest.raises(InputError):
        bracket_wedge(a, bracket_wedge(a, a))


def test_invariant_d_worked_value():
    a = canonical_maurer_cartan()
    da = invariant_d(a)
    assert bracket(U1, U2) == U3
    assert da.values[(1, 2)] == as_rows(-as_array(adjoint(U3)))
    assert da.values[(1, 3)] == as_rows(-as_array(adjoint(bracket(U1, U3))))
    assert da.values[(2, 3)] == as_rows(-as_array(adjoint(bracket(U2, U3))))


def test_invariant_d_needs_one_form():
    a = canonical_maurer_cartan()
    with pytest.raises(InputError):
        invariant_d(bracket_wedge(a, a))


# ----------------------------------------------------------- flatness


def test_maurer_cartan_residual_vanishes_exactly():
    res = maurer_cartan_residual(canonical_maurer_cartan())
    assert res.is_zero()
    for idx in ((1, 2), (1, 3), (2, 3)):
        assert res.values[idx] == forms._zero_matrix()


def test_scaled_form_is_not_flat():
    doubled = 2 * canonical_maurer_cartan()
    assert not maurer_cartan_residual(doubled).is_zero()


# ------------------------------------------------------ curvature path


def test_connection_path_domain():
    ConnectionPath(Fraction(0))
    ConnectionPath(Fraction(1))
    with pytest.raises(InputError):
        ConnectionPath(Fraction(-1, 10))
    with pytest.raises(InputError):
        ConnectionPath(Fraction(11, 10))
    with pytest.raises(InputError):
        ConnectionPath(True)


def curvature_oracle(t, x, y):
    """Independent curvature value t*dA(x,y) + (t^2/2)[A^A](x,y) built
    from literal matrix commutators, bypassing the form classes."""
    ad_x = oracle_ad(x.coords)
    ad_y = oracle_ad(y.coords)
    d_term = -oracle_ad(oracle_bracket(x.coords, y.coords))
    wedge_term = 2 * (ad_x @ ad_y - ad_y @ ad_x)
    return t * d_term + t * t / 2 * wedge_term


def test_curvature_along_path_matches_oracle():
    for k in range(11):
        t = Fraction(k, 10)
        curv = curvature_at(ConnectionPath(t))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            x, y = REFERENCE_FRAME[i - 1], REFERENCE_FRAME[j - 1]
            assert curv.values[(i, j)] == as_rows(curvature_oracle(t, x, y))


def test_curvature_flat_at_endpoints():
    assert curvature_at(ConnectionPath(Fraction(0))).is_zero()
    assert curvature_at(ConnectionPath(Fraction(1))).is_zero()


def test_curvature_midpoint_value():
    a = canonical_maurer_cartan()
    mid = curvature_at(ConnectionPath(Fraction(1, 2)))
    expected = Fraction(-1, 8) * bracket_wedge(a, a)
    assert mid == expected


@given(unit_interval)
@example(Fraction(0))
@example(Fraction(1))
@example(Fraction(39, 40))
def test_curvature_closed_form_coefficient(t):
    a = canonical_maurer_cartan()
    curv = curvature_at(ConnectionPath(t))
    assert curv == ((t * t - t) / 2) * bracket_wedge(a, a)


# -------------------------------------------------------- wedge trace


def test_wedge_trace_matches_permutation_oracle(rng):
    a = canonical_maurer_cartan()
    pairs = [(a, bracket_wedge(a, a))]
    for _ in range(5):
        pairs.append((rand_one_form(rng), rand_two_form(rng)))
    for one, two in pairs:
        got = wedge_trace(one, two)
        # the oracle reads r on every ordered pair: the stored value,
        # negated on a decreasing pair
        want = oracle_wedge_trace(
            lambda i: as_array(one.values[(i,)]),
            lambda i, j: as_array(two.values[(i, j)])
            if i < j
            else -as_array(two.values[(j, i)]),
            (1, 2, 3),
        )
        assert got == want


def test_wedge_trace_degree_check():
    a = canonical_maurer_cartan()
    with pytest.raises(InputError):
        wedge_trace(bracket_wedge(a, a), a)


# ---------------------------------------------------------- cs density


def test_cs_density_reference_value():
    assert cs_density(canonical_maurer_cartan()) == -4


def test_cs_density_recomputes_identically():
    runs = {cs_density(canonical_maurer_cartan()) for _ in range(5)}
    assert runs == {Fraction(-4)}


def test_cs_density_frame_independent(rng):
    # tr(A ^ [A ^ A]) and kappa times the volume form are the same 3-form:
    # equal on positive frames, and both negate on a negative one.
    a = canonical_maurer_cartan()
    kappa = cs_density(a)
    top = wedge_trace(a, bracket_wedge(a, a))

    def both_sides(frame):
        return (
            top * det3([frame_coords(v) for v in frame]),
            kappa * volume_form(*frame),
        )

    frames = [REFERENCE_FRAME, (U2, -U1, U3)]
    frames += [random_ad_frame(rng) for _ in range(5)]
    for frame in frames:
        assert both_sides(frame) == (-4, -4)
    assert both_sides((U2, U1, U3)) == (4, 4)


def test_cs_density_cubic_scaling():
    assert cs_density(2 * canonical_maurer_cartan()) == 8 * -4


# -------------------------------------------------- path coefficient


def test_path_integral_coefficient_vs_quadrature():
    coeff = path_integral_coefficient()
    assert coeff == Fraction(-1, 12)
    # Simpson is exact for cubics, so it integrates (t^2 - t)/2 exactly.
    assert coeff == simpson_unit(lambda t: (t * t - t) / 2)
