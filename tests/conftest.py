import math
import random

import pytest

from adsvol import reps


@pytest.fixture(scope="session")
def fuchsian_g2():
    return reps.fuchsian_regular_polygon(2)


@pytest.fixture(scope="session")
def fuchsian_g3():
    return reps.fuchsian_regular_polygon(3)


@pytest.fixture()
def rng():
    return random.Random(20260814)


def make_noncommuting_bad_rep():
    """Four generators that badly violate the genus-2 relator.

    Commuting choices are useless here (their commutators collapse to
    the identity and the relator holds), so mix a hyperbolic and a
    rotation.
    """
    return reps.Representation(
        group=reps.SurfaceGroup(2),
        images=(
            reps.Moebius([[2.0, 0.0], [0.0, 0.5]]),
            reps.Moebius.rotation(0.8),
            reps.Moebius.identity(),
            reps.Moebius.identity(),
        ),
    )


def make_steep_conjugate_rep():
    """The genus-3 polygon conjugated by rotation(0.5) diag(12, 1/12).

    Its generator entries reach about 650, so their projective actions
    are steep; the relator closes to about 1e-7 and the Euler class is
    -4."""
    conj = reps.Moebius.rotation(0.5) * reps.Moebius([[12.0, 0.0], [0.0, 1.0 / 12.0]])
    return reps.conjugate(reps.fuchsian_regular_polygon(3), conj)


def make_steep_g6_rep():
    """The genus-6 polygon conjugated by R(a) diag(k, 1/k) R(b) with
    k = 19.6: its relator closes to 7.0e-5, inside RELATOR_TOLERANCE,
    and its Euler class -10 reads with residual 2.6e-5."""
    k = 19.605932591709973
    conj = (
        reps.Moebius.rotation(1.7792134278210545)
        * reps.Moebius([[k, 0.0], [0.0, 1.0 / k]])
        * reps.Moebius.rotation(2.9942454409813113)
    )
    return reps.conjugate(reps.fuchsian_regular_polygon(6), conj)


def make_mild_g50_rep():
    """The genus-50 polygon conjugated by [[1, u], [v, 1.5]], u and v
    the first two draws of random.Random(1).uniform(-1, 1): its relator
    closes to 1.7e-5 and its Euler class -98 reads with residual 2.5e-6."""
    draws = random.Random(1)
    u, v = draws.uniform(-1, 1), draws.uniform(-1, 1)
    conj = reps.Moebius([[1.0, u], [v, 1.5]])
    return reps.conjugate(reps.fuchsian_regular_polygon(50), conj)


def make_pinched_rep(genus):
    """sigma(a_i) = R_i diag(e^1/2, e^-1/2) R_i^-1 with fixed rotations
    R_i, sigma(b_i) = 1: every commutator is trivial, Euler class 0, and
    the translation lengths are spread out rather than tied."""
    stretch = reps.Moebius([[math.exp(0.5), 0.0], [0.0, math.exp(-0.5)]])
    images = []
    for i in range(genus):
        rot = reps.Moebius.rotation(math.pi * i / genus + 0.1)
        images += [rot * stretch * rot.inverse(), reps.Moebius.identity()]
    return reps.Representation(reps.SurfaceGroup(genus), tuple(images))
