"""Surface-group representations and Euler classes read by the lifted
rotation walk."""

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adsvol import reps
from adsvol.errors import InputError, IntegralityError
from adsvol.invariants import AdSDescriptor
from adsvol.reps import (
    Moebius,
    Representation,
    SurfaceGroup,
    Word,
    conjugate,
    euler_class,
    fuchsian_regular_polygon,
    relator_residual,
    representation_from_json,
    representation_to_json,
    save_representation,
    load_representation,
    trivial_representation,
)
from _oracles import (
    angle_walk_euler_class,
    evaluate,
    exact_orientation_sign_sum,
    numpy_scalar_moebius,
    numpy_scalar_relator_residual,
    orientation_sign_sum,
    psl_distance,
    python_float_prefix_products,
    reduce_word,
    su11_polygon_reference,
    translation_length,
)
from conftest import (
    make_mild_g50_rep,
    make_noncommuting_bad_rep,
    make_odd_class_rep,
    make_steep_conjugate_rep,
    make_steep_g6_rep,
)


# --------------------------------------------------------------- moebius


def test_moebius_normalizes_determinant():
    m = Moebius([[2.0, 0.0], [0.0, 2.0]])
    det = m.mat[0, 0] * m.mat[1, 1] - m.mat[0, 1] * m.mat[1, 0]
    assert abs(det - 1.0) <= 1e-12
    assert psl_distance(m, Moebius.identity()) <= 1e-9


def test_moebius_sign_convention():
    m = Moebius([[-3.0, 0.0], [0.0, -1.0 / 3.0]])
    assert m.mat.tolist() == [[3.0, 0.0], [0.0, 1.0 / 3.0]]
    # trace zero: the first nonzero entry is made positive
    half_turn = Moebius([[0.0, -1.0], [1.0, 0.0]])
    assert half_turn.mat.tolist() == [[0.0, 1.0], [-1.0, 0.0]]


def test_moebius_rescales_entries_whose_products_leave_float_range():
    """ad and bc overflow at 1e200 and underflow to 0 at 1e-200; both
    scalar matrices are the identity, with no float warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e200, 1e-200):
            assert Moebius([[s, 0.0], [0.0, s]]).mat.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        big = Moebius([[1e200, 0.0], [0.0, 1e200]])
        assert euler_class(Representation(SurfaceGroup(2), (big,) * 4)) == (0, 0.0)


def test_moebius_rejects_bad_matrices():
    with pytest.raises(InputError):
        Moebius([[1.0, 0.0], [0.0, -1.0]])  # det < 0
    with pytest.raises(InputError):
        Moebius([[1.0, 2.0], [2.0, 4.0]])  # det = 0
    with pytest.raises(InputError):
        Moebius([[float("nan"), 0.0], [0.0, 1.0]])
    # det > 0, but the normalised entries are past the float range: the
    # first overflows in the rescaling, the second in the division
    for mat in (
        [[1e300, 1e-300], [-1e-300, 0.0]],
        [[2.0**1000, 2.0**1000], [2.0**-1000 - 2.0**-1050, 2.0**-1000]],
    ):
        with pytest.raises(InputError, match="overflow"):
            Moebius(mat)


def test_moebius_group_operations(rng):
    for _ in range(20):
        a = Moebius([[1.0 + rng.random(), rng.random()], [rng.random(), 1.0 + rng.random()]])
        b = Moebius.rotation(rng.random())
        assert psl_distance(a * a.inverse(), Moebius.identity()) <= 1e-9
        assert psl_distance((a * b) * b.inverse(), a) <= 1e-9
        assert psl_distance(a, a) == 0.0


def test_unit_distance_ignores_scale_and_sign():
    # rotation by pi is -identity, so these differ exactly by a sign
    a = Moebius.rotation(0.4)
    b = Moebius.rotation(0.4 + math.pi)
    assert psl_distance(a, b) <= 1e-12
    entries = a.mat.ravel().tolist()
    assert reps._unit_distance(entries, [-3.0 * x for x in entries]) <= 1e-15


# ---------------------------------------------------- translation length


def test_translation_length_worked_examples():
    m = Moebius([[math.e, 0.0], [0.0, 1.0 / math.e]])
    assert abs(translation_length(m) - 2.0) < 1e-12
    assert translation_length(Moebius.rotation(0.9)) == 0.0
    assert translation_length(Moebius.identity()) == 0.0


def test_translation_length_is_class_function(rng):
    m = Moebius([[2.0, 1.0], [1.0, 1.0]])
    base = translation_length(m)
    for _ in range(10):
        g = Moebius([[1.0 + rng.random(), rng.random()], [rng.random(), 1.0 + rng.random()]])
        assert abs(translation_length(g * m * g.inverse()) - base) < 1e-9


# ----------------------------------------------------------------- words


def test_word_requires_reduced_letters():
    Word((1, 2, -1))
    with pytest.raises(InputError):
        Word((1, -1))
    with pytest.raises(InputError):
        Word((1, 0))
    with pytest.raises(InputError):
        Word((1, 1.5))


def test_surface_group_validation():
    """One rule, genus an int >= 2, at all three entry points, each with
    the message it has always given."""
    for genus in (1, 0, -3, True, 2.0, "2", None):
        with pytest.raises(InputError, match=r"^genus must be an integer >= 2$"):
            SurfaceGroup(genus)
        if genus is not None:  # a descriptor's genus is optional
            with pytest.raises(InputError, match=r"^genus must be an integer >= 2$"):
                AdSDescriptor(2, 0, 1, genus=genus)
        with pytest.raises(InputError, match=r"^'genus' must be an integer >= 2$"):
            representation_from_json({"genus": genus, "generators": []})
    assert SurfaceGroup(2).genus == AdSDescriptor(2, 0, 1, genus=2).genus == 2


# -------------------------------------------------------- representations


def test_representation_validates_image_count():
    with pytest.raises(InputError):
        Representation(SurfaceGroup(2), (Moebius.identity(),))


@pytest.mark.parametrize("genus", [2, 3, 7])
def test_letter_table_rows_follow_letter_order(genus):
    rep = fuchsian_regular_polygon(genus)
    order = reps.letter_order(genus)
    assert rep.letter_table.shape == (4 * genus, 2, 2)
    assert not rep.letter_table.flags.writeable
    for row, letter in zip(rep.letter_table, order):
        mat = rep.images[abs(letter) - 1].mat
        expected = mat if letter > 0 else np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]])
        assert row.tobytes() == expected.tobytes()
    relator = [x for i in range(1, 2 * genus, 2) for x in (i, i + 1, -i, -i - 1)]
    assert [order[row] for row in reps._relator_rows(genus)] == relator


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="str() converts ints of any length"
)
def test_representation_names_a_genus_too_long_for_str_by_its_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(
            InputError,
            match=r"^genus of 5001 decimal digits has rank of 5001 decimal digits: ",
        ):
            Representation(SurfaceGroup(10**5000), ())
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("letter", [True, 1.0, -1.0, 0])
def test_every_letter_entry_point_rejects_a_non_letter(letter):
    with pytest.raises(InputError, match="nonzero integers"):
        Word((1, letter))


def test_evaluate_single_letters(fuchsian_g2):
    for index, image in enumerate(fuchsian_g2.images, start=1):
        assert psl_distance(evaluate(fuchsian_g2, (index,)), image) <= 1e-9
        assert psl_distance(evaluate(fuchsian_g2, (-index,)), image.inverse()) <= 1e-9
    assert psl_distance(evaluate(fuchsian_g2, ()), Moebius.identity()) <= 1e-9


def test_evaluate_is_homomorphism(fuchsian_g2, rng):
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(25):
        u = reduce_word(rng.choices(letters, k=5))
        v = reduce_word(rng.choices(letters, k=5))
        product = evaluate(fuchsian_g2, u) * evaluate(fuchsian_g2, v)
        joined = evaluate(fuchsian_g2, reduce_word(u + v))
        assert psl_distance(product, joined) <= 1e-10


def test_relator_residual_detects_perturbation(fuchsian_g2):
    assert relator_residual(fuchsian_g2) < 1e-9
    images = list(fuchsian_g2.images)
    bumped = np.asarray(images[0].mat, dtype=float).copy()
    bumped[0, 0] *= 1.02
    bumped[1, 1] /= 1.02
    images[0] = Moebius(bumped)
    broken = Representation(fuchsian_g2.group, tuple(images))
    assert relator_residual(broken) > 1e-3


def test_relator_residual_refuses_a_product_that_overflows():
    """diag(1e200, 1e-200) has determinant 1, but the relator's second
    prefix product has an entry past float range: the walk refuses it as
    a matrix that is not finite."""
    stretch = Moebius([[1e200, 0.0], [0.0, 1e-200]])
    rep = Representation(SurfaceGroup(2), (stretch,) * 4)
    with pytest.raises(InputError, match=r"^Moebius needs a finite 2x2 real matrix$"):
        relator_residual(rep)


def test_product_that_overflows_is_refused_without_a_warning(fuchsian_g2):
    """The square of diag(1e200, 1e-200), and its conjugation of the
    polygon, have an entry past float range: the product raises
    InputError, and numpy's overflow RuntimeWarning (an error under the
    suite's filter) never escapes before it."""
    stretch = Moebius([[1e200, 0.0], [0.0, 1e-200]])
    with pytest.raises(InputError, match=r"^Moebius needs a finite 2x2 real matrix$"):
        stretch * stretch
    with pytest.raises(InputError, match=r"^Moebius needs a finite 2x2 real matrix$"):
        reps.conjugate(fuchsian_g2, stretch)


# ----------------------------------------------------- fuchsian builder


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_fuchsian_polygon_representation(genus):
    rep = fuchsian_regular_polygon(genus)
    assert rep.genus == genus
    assert relator_residual(rep) < 1e-9
    expected_trace = 2.0 + 2.0 * math.cos(math.pi / (2 * genus))
    for image in rep.images:
        assert abs(abs(np.trace(image.mat)) - expected_trace) < 1e-9


def test_fuchsian_polygon_rejects_low_genus():
    with pytest.raises(InputError):
        fuchsian_regular_polygon(1)


def test_fuchsian_polygon_refuses_a_huge_genus_before_growing():
    """From g = 10^4 up the first generator fails the Cayley map's
    realness check, so the build must refuse before it holds anything
    that grows with the genus (a list of all 4g vertices took 15 MB at
    g = 10^5, and would take 15 GB at g = 10^8)."""
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="not conjugate to a real one"):
            fuchsian_regular_polygon(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "genus", [2 * 10**8, 10**9, 10**200, 10**400], ids=["2e8", "1e9", "1e200", "1e400"]
)
def test_fuchsian_polygon_refuses_a_genus_past_float_range(genus):
    """tanh rounds the vertex radius to 1 (2e8, 1e9), tan^2(pi/n)
    underflows (1e200), or pi/n cannot be formed (1e400): an input
    error naming the genus, never a bare Python exception."""
    with pytest.raises(InputError, match=rf"^genus {genus} is too large for floats"):
        fuchsian_regular_polygon(genus)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="str() converts ints of any length"
)
@pytest.mark.parametrize(
    "genus, digits",
    [(10**5000, 5001), (10**5000 - 1, 5000), (2**20000, 6021)],
    ids=["1e5000", "1e5000-1", "2^20000"],
)
def test_fuchsian_polygon_names_a_genus_too_long_for_str_by_its_digits(genus, digits):
    """Past sys.get_int_max_str_digits() str() raises ValueError, so the
    input error names the genus by its count of decimal digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(
            InputError, match=rf"^genus of {digits} decimal digits is too large for floats"
        ):
            fuchsian_regular_polygon(genus)
    finally:
        sys.set_int_max_str_digits(limit)


def test_fuchsian_polygon_traces_are_four_cos_squared():
    """Every generator is a rotated copy of one translation, with
    |tr| = 2 + 2 cos(pi/(2g)) = 4 cos^2(pi/(4g)), whatever the rounding
    of the build: within a relative 1e-9 for every genus to 100 (the
    build's own error reaches 9.2e-10 by g = 200)."""
    for genus in range(2, 101):
        expected = 4.0 * math.cos(math.pi / (4 * genus)) ** 2
        for image in fuchsian_regular_polygon(genus).images:
            assert abs(abs(np.trace(image.mat)) - expected) <= 1e-9 * expected, genus


def test_fuchsian_polygon_matches_the_per_generator_build():
    """The stacked np.matmul products round exactly as the per-generator
    ndarray.dot build in tests/_oracles.py, for every genus to 70 and on
    both sides of the first two block edges."""
    block = reps._BLOCK_PAIRS
    for genus in sorted({*range(2, 71), block, block + 1, 2 * block, 2 * block + 1}):
        got = [m.mat.tobytes() for m in fuchsian_regular_polygon(genus).images]
        assert got == [m.mat.tobytes() for m in su11_polygon_reference(genus)], genus


def test_cayley_guard_first_fails_at_2276():
    """The README's claim: genus 2275 builds and 2276 is the first genus
    whose Cayley map leaves an imaginary part above 1e-9."""
    assert fuchsian_regular_polygon(2275).genus == 2275
    with pytest.raises(InputError, match="^matrix is not conjugate to a real one$"):
        fuchsian_regular_polygon(2276)


# ----------------------------------------------- euler class: symmetries


def _flipped(rep):
    """Orientation reversal: conjugation by diag(1, -1)."""
    return Representation(rep.group, tuple(
        Moebius([[m.mat[0, 0], -m.mat[0, 1]], [-m.mat[1, 0], m.mat[1, 1]]])
        for m in rep.images
    ))


@pytest.mark.parametrize("genus", [2, 3])
def test_euler_class_orientation_flip_negates(genus):
    polygon = fuchsian_regular_polygon(genus)
    for g in (Moebius.identity(), Moebius([[1.3, 0.4], [-0.2, 0.9]])):
        rep = conjugate(polygon, g)
        flipped, residual = euler_class(_flipped(rep))
        assert flipped == -euler_class(rep)[0] == 2 * genus - 2
        assert residual < 1e-6


def test_euler_class_handle_order_invariant(fuchsian_g3):
    """[a2, b2][a3, b3][a1, b1] is conjugate to the relator, so the
    reordered images form a representation with the same class."""
    images = fuchsian_g3.images
    rotated = Representation(fuchsian_g3.group, images[2:] + images[:2])
    assert euler_class(rotated)[0] == euler_class(fuchsian_g3)[0] == -4


def test_euler_class_high_genus_polygon():
    e, residual = euler_class(fuchsian_regular_polygon(50))
    assert e == -98
    assert residual <= 1e-6


@pytest.mark.parametrize(
    "build, euler, bound",
    [
        (make_steep_conjugate_rep, -4, 1e-6),
        (make_steep_g6_rep, -10, reps.RELATOR_TOLERANCE),
        (make_mild_g50_rep, -98, reps.RELATOR_TOLERANCE),
    ],
    ids=["g3", "g6", "g50"],
)
def test_euler_class_steep_conjugate(build, euler, bound):
    """Every conjugate whose relator closes within the bound is read, and
    its integrality residual stays within the same bound."""
    rep = build()
    assert relator_residual(rep) < bound
    e, residual = euler_class(rep)
    assert e == euler == -exact_orientation_sign_sum(rep) // 2
    assert residual <= bound


def _half_turn_reps():
    half = Moebius([[0.0, -1.0], [1.0, 0.0]])
    stretched = Moebius([[0.0, -4.0], [0.25, 0.0]])
    r = Moebius.rotation(0.3)
    ident = Moebius.identity()
    for images in (
        (half, ident, ident, ident),
        (ident, half, ident, ident),
        (half, half, half, half),
        (stretched, ident, stretched, stretched),
        (half, r, half, half, r * r, half),
    ):
        yield Representation(SurfaceGroup(len(images) // 2), images)


def _expected_residual(euler, rep):
    """The residual euler_class derives from its integer: the angle by
    which the relator product moves the line at angle 0, over pi, added
    to the integer and taken off again; the product is the oracle's."""
    r11, _, r21, _ = python_float_prefix_products(rep)[-1][1]
    return abs(euler + math.atan(r21 / r11) / math.pi - euler)


def test_euler_class_half_turn_generators_vanish():
    """A half-turn has trace exactly 0, so Moebius normalises its inverse
    back to itself; the inverse letter is still read as the adjugate.
    The g=2 relators close exactly; the g=3 one moves the line at angle
    0 by about 1e-17, which its residual reports."""
    *closed, mixed = _half_turn_reps()
    for rep in closed:
        assert euler_class(rep) == (0, 0.0)
    e, residual = euler_class(mixed)
    assert e == 0
    assert residual.hex() == _expected_residual(0, mixed).hex()
    assert 0.0 < residual < 1e-16


# ------------------------------------------------------------ euler class


def test_euler_class_trivial_representation():
    e, residual = euler_class(trivial_representation(2))
    assert (e, residual) == (0, 0.0)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_euler_class_fuchsian_is_minus_chi(genus):
    rep = fuchsian_regular_polygon(genus)
    e, residual = euler_class(rep)
    assert e == -(2 * genus - 2)
    assert abs(e) == 2 * genus - 2
    assert residual < 1e-6


def test_euler_class_elliptic_powers_vanish():
    r = Moebius.rotation(0.37)
    rep = Representation(
        SurfaceGroup(2), (r, r * r, r.inverse(), Moebius.identity())
    )
    e, residual = euler_class(rep)
    assert e == 0
    assert residual < 1e-9


def test_euler_class_conjugation_invariant(fuchsian_g2, rng):
    base, _ = euler_class(fuchsian_g2)
    for _ in range(5):
        g = Moebius([[1.0 + rng.random(), rng.random()], [rng.random(), 1.0 + rng.random()]])
        e, residual = euler_class(conjugate(fuchsian_g2, g))
        assert e == base
        assert residual < 1e-6


def test_euler_class_milnor_wood(fuchsian_g2, fuchsian_g3):
    for rep in (fuchsian_g2, fuchsian_g3, trivial_representation(2)):
        e, _ = euler_class(rep)
        assert abs(e) <= 2 * rep.genus - 2


def test_euler_class_integrality_gate():
    with pytest.raises(IntegralityError):
        euler_class(make_noncommuting_bad_rep())


def test_euler_class_reads_relator_tolerance_at_call_time(fuchsian_g2, monkeypatch):
    monkeypatch.setattr(reps, "RELATOR_TOLERANCE", 0.0)
    with pytest.raises(IntegralityError, match="exceeds tolerance 0.0"):
        euler_class(fuchsian_g2)


def _eigenline_angles(m):
    """Angles of the two eigenlines of a hyperbolic matrix."""
    _, vectors = np.linalg.eig(m.mat)
    return [math.atan2(v[1], v[0]) for v in vectors.T]


@pytest.mark.parametrize("genus", [2, 3, 5, 10])
def test_euler_class_generator_fixing_the_line_at_angle_zero(genus):
    """Conjugates of the polygon that put a generator's eigenline within
    1e-16 .. 1e-9 of the line at angle 0, where that letter's lower-left
    entry is rounding noise, which moved the orientation signs of the
    fan the walk replaced; the walk, the angle walk and the exact sign
    sum all read the polygon's class."""
    polygon = fuchsian_regular_polygon(genus)
    rng = random.Random(genus)
    for m in polygon.images:
        for angle in _eigenline_angles(m):
            for side in (1.0, -1.0, 1.0, -1.0):
                offset = side * 10.0 ** rng.uniform(-16.0, -9.0)
                rep = conjugate(polygon, Moebius.rotation(offset - angle))
                e, _ = euler_class(rep)
                assert abs(e) <= 2 * genus - 2
                assert e == -(2 * genus - 2) == angle_walk_euler_class(rep)[0]
                assert e == -exact_orientation_sign_sum(rep) // 2


# ------------------------------------------- numpy-scalar bitwise reference


def _random_conjugator(rng):
    return Moebius([[1.0, rng.uniform(-1, 1)], [rng.uniform(-1, 1), 1.0 + rng.uniform(0, 1)]])


def _elliptic(rng):
    conj = _random_conjugator(rng)
    return conj * Moebius.rotation(rng.uniform(0.2, 2.9)) * conj.inverse()


def _seeded_reps(genus, rng):
    """Seeded conjugates of the polygon, their orientation flips, powers
    of one elliptic and unrelated elliptics: the Euler-class inputs of
    the rep_sweep benchmark."""
    group = SurfaceGroup(genus)
    polygon = fuchsian_regular_polygon(genus)
    for _ in range(5):
        rep = conjugate(polygon, _random_conjugator(rng))
        yield rep
        yield _flipped(rep)
        base = _elliptic(rng)
        powers = []
        for _ in range(2 * genus):
            m = base
            for _ in range(rng.randint(0, 4)):
                m = m * base
            powers.append(m)
        yield Representation(group, tuple(powers))
        yield Representation(group, tuple(_elliptic(rng) for _ in range(2 * genus)))


def test_euler_class_equals_the_exact_sign_sum_on_seeded_reps():
    """On every readable seeded input of seeds 1-10 at g = 2 and 3, the
    walk gives the integer of the exact sign sum on the same stored
    floats.  300 of the 400 inputs are readable; the rest are
    refused by the relator gate."""
    readable = 0
    for seed in range(1, 11):
        rng = random.Random(seed)
        for genus in (2, 3):
            for rep in _seeded_reps(genus, rng):
                try:
                    e, _ = euler_class(rep)
                except IntegralityError:
                    continue
                assert e == -exact_orientation_sign_sum(rep) // 2
                readable += 1
    assert readable >= 300


def _euler_outcome(euler, rep):
    try:
        return euler(rep)
    except IntegralityError as exc:
        return str(exc)


def _reference_cases(big):
    """A g=2 rep with every generator `big`, the polygons g = 2..60,
    seeded inputs at g = 2 and 3, the half-turn reps and the two steep
    conjugates.  The caller builds `big`, so that a test recording
    normalisations can build it before it starts recording."""
    cases = [Representation(SurfaceGroup(2), (big,) * 4)]
    rng = random.Random(20)
    cases += [fuchsian_regular_polygon(g) for g in range(2, 61)]
    for genus in (2, 3):
        cases += _seeded_reps(genus, rng)
    cases += _half_turn_reps()
    cases += [make_steep_conjugate_rep(), make_steep_g6_rep()]
    return cases


def test_float_entries_match_the_numpy_scalar_reference(monkeypatch):
    """Every normalisation made while building the cases and every
    relator residual agrees bit for bit with the numpy-scalar forms in
    tests/_oracles.py.  Normalisations are recorded at reps._normalised,
    which Moebius and relator_residual's walk both call."""
    big = Moebius([[1e200, 0.0], [0.0, 1e200]])  # the reference overflows here
    normalised = []
    normalise = reps._normalised

    def recording_normalise(entries):
        out = normalise(entries)
        normalised.append((list(entries), out))
        return out

    monkeypatch.setattr(reps, "_normalised", recording_normalise)
    for rep in _reference_cases(big):
        assert relator_residual(rep).hex() == numpy_scalar_relator_residual(rep).hex()
    assert len(normalised) > 10000
    for entries, out in normalised:
        assert out.tobytes() == numpy_scalar_moebius(np.reshape(entries, (2, 2))).tobytes()


def test_euler_class_matches_the_angle_walk_and_the_exact_sign_sum():
    """On the cases above, every Euler class equals the angle walk's, or
    both gates refuse with the same message; it is minus half the float
    and the exact sign sums, the float one even, and its residual is
    bitwise the one formed from the oracle's relator product and within
    1e-13 of the angle walk's."""
    for rep in _reference_cases(Moebius([[1e200, 0.0], [0.0, 1e200]])):
        got = _euler_outcome(euler_class, rep)
        walked = _euler_outcome(angle_walk_euler_class, rep)
        if isinstance(walked, str):
            assert got == walked
            continue
        (e, residual), (walked_e, walked_residual) = got, walked
        total = orientation_sign_sum(rep)
        assert total % 2 == 0
        assert e == -total // 2 == walked_e
        assert e == -exact_orientation_sign_sum(rep) // 2
        assert residual.hex() == _expected_residual(e, rep).hex()
        assert abs(residual - walked_residual) <= 1e-13


# ------------------------------------------------------------- JSON I/O


def test_json_round_trip(tmp_path, fuchsian_g2):
    path = tmp_path / "rep.json"
    save_representation(fuchsian_g2, path)
    loaded = load_representation(path)
    assert loaded.genus == 2
    for original, restored in zip(fuchsian_g2.images, loaded.images):
        assert psl_distance(original, restored) < 1e-12
    assert euler_class(loaded)[0] == euler_class(fuchsian_g2)[0]


def test_json_payload_shape(fuchsian_g2):
    data = representation_to_json(fuchsian_g2)
    assert data["genus"] == 2
    assert len(data["generators"]) == 4
    for entry in data["generators"]:
        mat = np.array(entry)
        assert mat.shape == (2, 2)
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        assert abs(det - 1.0) < 1e-9


def test_json_reader_rejections(tmp_path):
    cases = [
        {"genus": 1, "generators": []},
        {"genus": 2, "generators": [[[1, 0], [0, 1]]] * 3},
        {"genus": 2, "generators": [[[2, 0], [0, 1]]] * 4},
        {"genus": 2, "generators": [[[1e200, 0], [0, 1e200]]] * 4},  # det overflows
        {"generators": [[[1, 0], [0, 1]]] * 4},
        [1, 2, 3],
    ]
    for data in cases:
        with pytest.raises(InputError):
            representation_from_json(data)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_representation(bad)


@pytest.mark.parametrize(
    "entry, shown",
    [
        ([[1.000002, 0.0], [0.0, 1.0]], "1.000002"),  # just past DET_TOLERANCE
        ([[1e200, 1e200], [1e200, 1e200]], "nan"),  # ad - bc is inf - inf
        ([[1e200, 0.0], [0.0, 1e200]], "inf"),
        # ad - bc is exactly -0.2235: its float reads -0.25
        ([[3e7, math.nextafter(3e7, math.inf)], [math.nextafter(3e7, math.inf), 3e7]], "-0.25"),
        # singular, and entry rounding alone could move ad - bc by 8.9
        ([[1e8, 1e8], [1e8, 1e8]], "0.0"),
        # ad - bc is exactly 1.8999, and entry rounding could move it by 0.8
        ([[3e7, 3e7], [3e7, 3e7 + 17 * math.ulp(3e7)]], "1.875"),
        # exactly 3.3528, past the 2.22 rounding allows; the float reads 3.0
        ([[5e7, 5e7 + 4 * math.ulp(5e7)], [5e7 + 5 * math.ulp(5e7), 5e7 + 18 * math.ulp(5e7)]],
         "3.0"),
    ],
    ids=["past-tolerance", "nan", "overflow", "negative", "singular", "past-rounding",
         "float-within-rounding"],
)
def test_json_reader_refuses_a_determinant_off_one(entry, shown):
    data = {"genus": 2, "generators": [entry] + [[[1.0, 0.0], [0.0, 1.0]]] * 3}
    with pytest.raises(InputError, match=f"^generator 0 has determinant {shown}, not 1 "):
        representation_from_json(data)


def test_json_reader_keeps_a_generator_within_rounding_of_det_one():
    """ad - bc is exactly 1.7881, within the 0.7994 that rounding entries
    near 3e7 allows, though its float reads 1.875: the generator is kept
    as written."""
    u = math.ulp(3e7)
    entry = [[3e7, 3e7 - 24 * u], [3e7 - 8 * u, 3e7 - 16 * u]]
    data = {"genus": 2, "generators": [entry] + [[[1.0, 0.0], [0.0, 1.0]]] * 3}
    loaded = representation_from_json(data)
    assert loaded.images[0].mat.tolist() == entry


def test_steep_conjugates_read_back_after_save(tmp_path):
    """Conjugates of the polygon by R(t) [[s, u], [0, 1/s]] hold entries
    near s^2, so a stored generator's float ad - bc can read 1 + 1e-4 at
    s = 10^3, or 0 or 3 at s = 10^4.  The loader checks the exact
    determinant against the rounding of the entries, and keeps such a
    generator as written.  One whose exact determinant the rounding took to
    0 or below is refused at save, naming it, and no file is written: so
    whatever is saved loads."""
    polygon = fuchsian_regular_polygon(2)
    path, refused_path = tmp_path / "steep.json", tmp_path / "refused.json"
    refused = 0
    for s in (1e3, 1e4):
        rng = random.Random(7)
        built = 0
        for _ in range(40):
            t, u = rng.uniform(0.0, math.pi), rng.uniform(-1.0, 1.0)
            try:
                rep = conjugate(polygon, Moebius.rotation(t) * Moebius([[s, u], [0.0, 1.0 / s]]))
            except InputError:  # conjugate's own renormalised products cancel
                continue
            built += 1
            if any(
                Fraction(a) * Fraction(d) <= Fraction(b) * Fraction(c)
                for (a, b), (c, d) in (m.mat.tolist() for m in rep.images)
            ):
                refused += 1
                with pytest.raises(InputError, match=r"^generator \d+ has determinant"):
                    save_representation(rep, refused_path)
                assert not refused_path.exists()
                continue
            save_representation(rep, path)
            loaded = load_representation(path)
            for original, restored in zip(rep.images, loaded.images):
                (a, b), (c, d) = original.mat.tolist()
                if abs(a * d - b * c - 1.0) > reps.DET_TOLERANCE:
                    assert restored.mat.tobytes() == original.mat.tobytes()
                assert psl_distance(original, restored) < 1e-12
        assert built >= 20
    # the second draw at s = 10^4 is one of them
    assert refused >= 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: Moebius products renormalise by sqrt(ad - bc), "
    "which cancels to 0 or below on steep entries",
)
def test_conjugate_accepts_a_steep_conjugator():
    """The polygons g=2..40 conjugated by R(a) diag(k, 1/k) R(b), 8 draws
    per genus, a and b uniform in [0, pi] and k = 10^uniform(0, 3.5):
    each conjugator is a valid PSL(2, R) element, so each conjugate
    should build.  Today 14 of the 312 raise InputError ("requires
    positive determinant"), the first at g=10 with k = 3148."""
    rng = random.Random(0)
    refused = []
    for genus in range(2, 41):
        polygon = fuchsian_regular_polygon(genus)
        for _ in range(8):
            a, b = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
            k = 10 ** rng.uniform(0.0, 3.5)
            m = Moebius.rotation(a) * Moebius([[k, 0.0], [0.0, 1.0 / k]]) * Moebius.rotation(b)
            try:
                conjugate(polygon, m)
            except InputError:
                refused.append((genus, round(k)))
    assert refused == []


def test_euler_class_reads_an_odd_class():
    """The only input with an odd class: its relator product is near -I,
    so the closure distance takes _unit_distance's x + y branch and the
    last prefix's polar angle is near pi."""
    rep = make_odd_class_rep()
    e, residual = euler_class(rep)
    assert (e, angle_walk_euler_class(rep)[0]) == (-1, -1)
    assert residual < 1e-12 and relator_residual(rep) < 1e-10
    assert euler_class(_flipped(rep))[0] == 1
    for k in range(12):
        assert euler_class(conjugate(rep, Moebius.rotation(0.1 + 0.25 * k)))[0] == -1


def _with_handle(rep, a, b):
    return Representation(SurfaceGroup(rep.genus + 1), rep.images + (a, b))


def _extra_handle_cases():
    """(rep, euler): a handle whose letters fix the line at angle 0 and
    commute, added after a g=2 representation, so the class is the g=2
    one by additivity over handles.  Next to such letters a C_k that
    rounds across 0 flipped one orientation sign alone, and the fan
    misread many of these (ROADMAP item 18):
    * the polygon plus (I, I), conjugated by the 50 rotations R(t),
      t = linspace(0.01, 3.1, 50): -2;
    * the odd class plus (I, I), and its 50 rotation conjugates: -1;
    * the odd class plus (diag(2, 1/2), diag(2, 1/2)): -1."""
    rotations = [Moebius.rotation(t) for t in np.linspace(0.01, 3.1, 50)]
    ident, stretch = Moebius.identity(), Moebius([[2.0, 0.0], [0.0, 0.5]])
    polygon, odd = fuchsian_regular_polygon(2), make_odd_class_rep()
    polygon_trivial = _with_handle(polygon, ident, ident)
    odd_trivial = _with_handle(odd, ident, ident)
    cases = [(conjugate(polygon_trivial, r), -2) for r in rotations]
    cases.append((odd_trivial, -1))
    cases += [(conjugate(odd_trivial, r), -1) for r in rotations]
    cases.append((_with_handle(odd, stretch, stretch), -1))
    return cases


def test_angle_walk_reads_a_trivial_handle_on_every_rotation():
    cases = _extra_handle_cases()
    assert [angle_walk_euler_class(rep)[0] for rep, _ in cases] == [e for _, e in cases]


def test_euler_class_reads_a_trivial_handle_on_every_rotation():
    cases = _extra_handle_cases()
    assert [euler_class(rep)[0] for rep, _ in cases] == [e for _, e in cases]


def test_euler_class_reads_the_same_bits_under_another_blas_kernel():
    """A child process forced onto OpenBLAS's Sandybridge kernel, which
    rounds a 2x2 ndarray.dot without fused multiply-adds, loads the
    same files and reads every (euler, residual) bit for bit as this
    process does: the polygons g = 2..10, the odd class and the
    extra-handle cases."""
    cases = [fuchsian_regular_polygon(g) for g in range(2, 11)] + [make_odd_class_rep()]
    cases += [rep for rep, _ in _extra_handle_cases()]
    files = json.dumps([representation_to_json(rep) for rep in cases])
    here = [
        [e, residual.hex()]
        for e, residual in map(euler_class, map(representation_from_json, json.loads(files)))
    ]
    src = str(Path(reps.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge",
               PYTHONPATH=src if not path else src + os.pathsep + path)
    code = (
        "import json, sys\n"
        "from adsvol.reps import euler_class, representation_from_json\n"
        "readings = (euler_class(representation_from_json(d)) for d in json.load(sys.stdin))\n"
        "print(json.dumps([[e, r.hex()] for e, r in readings]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=files, env=env, capture_output=True,
        text=True, check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == here
