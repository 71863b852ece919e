import math
import random

import numpy as np
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


def make_odd_class_rep():
    """Genus 2 with Euler class -1.  (a1, b1) is a one-holed torus with
    tr [a1, b1] = -47.44 in SL(2, R); (a2, b2) conjugates
    (diag(3, 1/3), P diag(3, 1/3) P^-1), P = [[cosh u, sinh u],
    [sinh u, cosh u]], so that [a2, b2] = -[a1, b1]^-1.  The SL(2, R)
    relator product is -I, so the handles' Euler classes add to an odd
    number and the relator product sits near -I in floats."""
    inv = np.linalg.inv
    a1 = np.diag([4.0, 0.25])
    r = reps.Moebius.rotation(math.pi / 4).mat
    b1 = r @ a1 @ r.T
    target = -inv(a1 @ b1 @ inv(a1) @ inv(b1))
    # tr [A, B] = 2t^2 + x^2 - t^2 x - 2 (Fricke), t = tr A = tr B, and
    # x = tr AB = p cosh(2u) + q: solve for x, then for u
    t, p, q = 10.0 / 3.0, (3.0 - 1.0 / 3.0) ** 2 / 2, (10.0 / 3.0) ** 2 / 2
    x = (t * t + math.sqrt(t**4 - 4 * (2 * t * t - 2 - np.trace(target)))) / 2
    u = math.acosh((x - q) / p) / 2
    a = np.diag([3.0, 1.0 / 3.0])
    pm = np.array([[math.cosh(u), math.sinh(u)], [math.sinh(u), math.cosh(u)]])
    b = pm @ a @ inv(pm)
    # Q [a, b] Q^-1 = target, through eigenvectors sorted by eigenvalue
    vectors = []
    for m in (target, a @ b @ inv(a) @ inv(b)):
        values, v = np.linalg.eig(m)
        vectors.append(v[:, np.argsort(values)])
    q_mat = vectors[0] @ inv(vectors[1])
    if np.linalg.det(q_mat) < 0:
        q_mat = vectors[0] @ np.diag([1.0, -1.0]) @ inv(vectors[1])
    a2, b2 = q_mat @ a @ inv(q_mat), q_mat @ b @ inv(q_mat)
    images = tuple(reps.Moebius(m) for m in (a1, b1, a2, b2))
    return reps.Representation(reps.SurfaceGroup(2), images)
