"""Surface-group representations and Euler classes read as sums of
orientation signs."""

import json
import math
import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from adsvol import reps
from adsvol.errors import InputError, IntegralityError
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
    evaluate,
    exact_orientation_sign_sum,
    numpy_scalar_euler_class,
    numpy_scalar_moebius,
    numpy_scalar_prefix_products,
    numpy_scalar_relator_residual,
    orientation_sign_sum,
    reduce_word,
    su11_polygon_reference,
    translation_length,
)
from conftest import (
    make_mild_g50_rep,
    make_noncommuting_bad_rep,
    make_steep_conjugate_rep,
    make_steep_g6_rep,
)


# --------------------------------------------------------------- moebius


def test_moebius_normalizes_determinant():
    m = Moebius([[2.0, 0.0], [0.0, 2.0]])
    det = m.mat[0, 0] * m.mat[1, 1] - m.mat[0, 1] * m.mat[1, 0]
    assert abs(det - 1.0) <= 1e-12
    assert m.dist_mod_sign(Moebius.identity()) <= 1e-9


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
        assert (a * a.inverse()).dist_mod_sign(Moebius.identity()) <= 1e-9
        assert ((a * b) * b.inverse()).dist_mod_sign(a) <= 1e-9
        assert a.dist_mod_sign(a) == 0.0


def test_dist_mod_sign_ignores_sign():
    # rotation by pi is -identity, so these differ exactly by a sign
    a = Moebius.rotation(0.4)
    b = Moebius.rotation(0.4 + math.pi)
    assert a.dist_mod_sign(b) <= 1e-12


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
    assert SurfaceGroup(2).rank == 4
    assert SurfaceGroup(3).rank == 6
    with pytest.raises(InputError):
        SurfaceGroup(1)


# -------------------------------------------------------- representations


def test_representation_validates_image_count():
    with pytest.raises(InputError):
        Representation(SurfaceGroup(2), (Moebius.identity(),))


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
        assert evaluate(fuchsian_g2, (index,)).dist_mod_sign(image) <= 1e-9
        assert evaluate(fuchsian_g2, (-index,)).dist_mod_sign(image.inverse()) <= 1e-9
    assert evaluate(fuchsian_g2, ()).dist_mod_sign(Moebius.identity()) <= 1e-9


def test_evaluate_is_homomorphism(fuchsian_g2, rng):
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(25):
        u = reduce_word(rng.choices(letters, k=5))
        v = reduce_word(rng.choices(letters, k=5))
        product = evaluate(fuchsian_g2, u) * evaluate(fuchsian_g2, v)
        joined = evaluate(fuchsian_g2, reduce_word(u + v))
        assert product.dist_mod_sign(joined) <= 1e-10


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


# ------------------------------------------------------ orientation signs


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


def _sign_sum_residual(euler, rep):
    """The residual euler_class derives from its integer: the angle by
    which the relator product moves the line at angle 0, over pi, added
    to the integer and taken off again; the product is the oracle's."""
    (r11, _), (r21, _) = numpy_scalar_prefix_products(rep)[1][-1].tolist()
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
    assert residual.hex() == _sign_sum_residual(0, mixed).hex()
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
    entry is rounding noise: its sign flips cancel in pairs, and reading
    C_{4g-1} from b_g keeps the last one out of the relator's noise."""
    polygon = fuchsian_regular_polygon(genus)
    rng = random.Random(genus)
    for m in polygon.images:
        for angle in _eigenline_angles(m):
            for side in (1.0, -1.0, 1.0, -1.0):
                offset = side * 10.0 ** rng.uniform(-16.0, -9.0)
                rep = conjugate(polygon, Moebius.rotation(offset - angle))
                e, _ = euler_class(rep)
                assert abs(e) <= 2 * genus - 2
                assert e == -(2 * genus - 2) == numpy_scalar_euler_class(rep)[0]
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
    float sign sum gives the integer of the exact one on the same
    stored floats.  300 of the 400 inputs are readable; the rest are
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
    both gates refuse with the same message; its sign sum is even, and
    its residual is bitwise the one formed from the oracle's relator
    product and within 1e-13 of the angle walk's."""
    for rep in _reference_cases(Moebius([[1e200, 0.0], [0.0, 1e200]])):
        got = _euler_outcome(euler_class, rep)
        walked = _euler_outcome(numpy_scalar_euler_class, rep)
        if isinstance(walked, str):
            assert got == walked
            continue
        (e, residual), (walked_e, walked_residual) = got, walked
        total = orientation_sign_sum(rep)
        assert total % 2 == 0
        assert e == -total // 2 == walked_e
        assert e == -exact_orientation_sign_sum(rep) // 2
        assert residual.hex() == _sign_sum_residual(e, rep).hex()
        assert abs(residual - walked_residual) <= 1e-13


# ------------------------------------------------------------- JSON I/O


def test_json_round_trip(tmp_path, fuchsian_g2):
    path = tmp_path / "rep.json"
    save_representation(fuchsian_g2, path)
    loaded = load_representation(path)
    assert loaded.genus == 2
    for original, restored in zip(fuchsian_g2.images, loaded.images):
        assert original.dist_mod_sign(restored) < 1e-12
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
