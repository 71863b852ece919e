"""Surface-group representations and Euler classes read from the
rotation cocycle."""

import json
import math
import random
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
    evaluate,
    fuchsian_regular_polygon,
    relator_residual,
    relator_word,
    representation_from_json,
    representation_to_json,
    save_representation,
    load_representation,
    translation_length,
    trivial_representation,
)
from _oracles import (
    numpy_scalar_euler_class,
    numpy_scalar_moebius,
    numpy_scalar_relator_residual,
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


def test_word_reduction_and_group_ops():
    w = Word.reduced((1, 2, -2, -1, 3))
    assert w.letters == (3,)
    assert Word.reduced((1, 2, -2, -1)).letters == ()
    u = Word((1, 2))
    assert len(u) == 2
    assert list(u) == [1, 2]


def test_relator_word_shape():
    r = relator_word(2)
    assert r.letters == (1, 2, -1, -2, 3, 4, -3, -4)
    assert len(relator_word(3)) == 12


def test_surface_group_validation():
    assert SurfaceGroup(2).rank == 4
    assert SurfaceGroup(3).rank == 6
    with pytest.raises(InputError):
        SurfaceGroup(1)


# -------------------------------------------------------- representations


def test_representation_validates_image_count():
    with pytest.raises(InputError):
        Representation(SurfaceGroup(2), (Moebius.identity(),))


def test_generator_lookup(fuchsian_g2):
    a1 = fuchsian_g2.generator(1)
    assert a1.dist_mod_sign(fuchsian_g2.images[0]) <= 1e-9
    assert fuchsian_g2.generator(-1).dist_mod_sign(a1.inverse()) <= 1e-9
    with pytest.raises(InputError):
        fuchsian_g2.generator(5)
    with pytest.raises(InputError):
        fuchsian_g2.generator(0)


@pytest.mark.parametrize("letter", [True, 1.0, -1.0, 0])
def test_every_letter_entry_point_rejects_a_non_letter(fuchsian_g2, letter):
    for build in (Word, Word.reduced):
        with pytest.raises(InputError, match="nonzero integers"):
            build((1, letter))
    with pytest.raises(InputError, match="nonzero integers"):
        fuchsian_g2.generator(letter)


def test_evaluate_single_letters(fuchsian_g2):
    for index, image in enumerate(fuchsian_g2.images, start=1):
        assert evaluate(fuchsian_g2, Word((index,))).dist_mod_sign(image) <= 1e-9
        assert evaluate(fuchsian_g2, Word((-index,))).dist_mod_sign(image.inverse()) <= 1e-9
    assert evaluate(fuchsian_g2, Word(())).dist_mod_sign(Moebius.identity()) <= 1e-9


def test_evaluate_is_homomorphism(fuchsian_g2, rng):
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(25):
        u = Word.reduced(rng.choices(letters, k=5))
        v = Word.reduced(rng.choices(letters, k=5))
        product = evaluate(fuchsian_g2, u) * evaluate(fuchsian_g2, v)
        joined = evaluate(fuchsian_g2, Word.reduced(u.letters + v.letters))
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


# ----------------------------------------------------- fuchsian builder


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_fuchsian_polygon_representation(genus):
    rep = fuchsian_regular_polygon(genus)
    assert rep.genus == genus
    assert relator_residual(rep) < 1e-9
    expected_trace = 2.0 + 2.0 * math.cos(math.pi / (2 * genus))
    for image in rep.images:
        assert abs(abs(image.trace) - expected_trace) < 1e-9


def test_fuchsian_polygon_rejects_low_genus():
    with pytest.raises(InputError):
        fuchsian_regular_polygon(1)


# ------------------------------------------------------- rotation cocycle


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
    assert e == euler
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


def test_euler_class_half_turn_generators_vanish():
    """A half-turn has trace exactly 0, so Moebius normalises its inverse
    back to itself; the inverse letter must still lift to the inverse."""
    for rep in _half_turn_reps():
        assert euler_class(rep) == (0, 0.0)


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


def _euler_bits(euler, rep):
    try:
        e, residual = euler(rep)
    except IntegralityError as exc:
        return str(exc)
    return e, residual.hex()


def test_float_entries_match_the_numpy_scalar_reference(monkeypatch):
    """Every normalisation made while building the cases, every relator
    residual and every Euler class or gate message agrees bit for bit
    with the numpy-scalar forms in tests/_oracles.py."""
    big = Moebius([[1e200, 0.0], [0.0, 1e200]])  # the reference overflows here
    cases = [Representation(SurfaceGroup(2), (big,) * 4)]
    normalised = []
    init = Moebius.__init__

    def recording_init(self, mat):
        init(self, mat)
        normalised.append((np.array(mat, dtype=float), self.mat))

    monkeypatch.setattr(Moebius, "__init__", recording_init)
    rng = random.Random(20)
    cases += [fuchsian_regular_polygon(g) for g in range(2, 61)]
    for genus in (2, 3):
        cases += _seeded_reps(genus, rng)
    cases += _half_turn_reps()
    cases += [make_steep_conjugate_rep(), make_steep_g6_rep()]
    for rep in cases:
        assert relator_residual(rep).hex() == numpy_scalar_relator_residual(rep).hex()
        assert _euler_bits(euler_class, rep) == _euler_bits(numpy_scalar_euler_class, rep)
    assert len(normalised) > 10000
    for mat, out in normalised:
        assert out.tobytes() == numpy_scalar_moebius(mat).tobytes()


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
