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
