"""Self-contained identity checks wired into the `verify` CLI command.

Each check recomputes an identity from scratch and compares against
either an exact closed form or a frozen golden constant.  The checks
read the package's tunable conventions (metric normalisation, curvature
formula) at call time, so a miscalibrated or sign-flipped build fails
here rather than silently producing shifted invariants.
"""

from __future__ import annotations

import itertools
import random
import warnings
from fractions import Fraction

from . import forms, invariants, liealg, reps
from .liealg import LieElement

SEED = 20260814

#: Random triples that check_jacobi draws beside the basis triples.
JACOBI_SAMPLE = 10


def _random_element(rng) -> LieElement:
    return LieElement.of(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def _frame_gram() -> list:
    """Gram matrix of the metric on the reference frame (u1, u2, u3)."""
    return [
        [liealg.metric(a, b) for b in liealg.REFERENCE_FRAME]
        for a in liealg.REFERENCE_FRAME
    ]


def check_jacobi(rng) -> tuple:
    """Bracket axioms plus the two trace identities.  Each is linear in
    each argument when bracket, adjoint and the trace forms are, so the
    27 triples of basis elements prove them for such code; JACOBI_SAMPLE
    seeded random triples exercise code that is not multilinear.  The
    metric's signature is read off the frame's Gram matrix by Sylvester's
    law of inertia, whatever the metric's scale."""
    triples = list(itertools.product(liealg.BASIS, repeat=3))
    for _ in range(JACOBI_SAMPLE):
        triples.append(tuple(_random_element(rng) for _ in range(3)))
    for x, y, z in triples:
        jacobi = (
            liealg.bracket(x, liealg.bracket(y, z))
            + liealg.bracket(y, liealg.bracket(z, x))
            + liealg.bracket(z, liealg.bracket(x, y))
        )
        if not jacobi.is_zero():
            return False, f"Jacobi identity fails on {x}, {y}, {z}"
        if liealg.bracket(x, y) != -1 * liealg.bracket(y, x):
            return False, "bracket is not antisymmetric"
        ad_bracket = liealg.adjoint(liealg.bracket(x, y))
        ad_comm = forms.commutator(liealg.adjoint(x), liealg.adjoint(y))
        if ad_bracket != ad_comm:
            return False, "adjoint is not a Lie-algebra homomorphism"
        if liealg.killing(x, y) != 4 * liealg.trace2(x, y):
            return False, "Killing form is not 4 * trace form"
    gram = _frame_gram()
    if any(gram[i][j] for i in range(3) for j in range(3) if i != j):
        return False, f"metric is not diagonal on the reference frame: gram = {gram}"
    # Sylvester's law of inertia: on a basis that diagonalises the metric
    # the diagonal's signs count its positive, negative and zero
    # directions; a diagonal with no zero also proves the frame a basis
    diagonal = [gram[i][i] for i in range(3)]
    signature = (
        sum(d > 0 for d in diagonal), sum(d < 0 for d in diagonal), diagonal.count(0)
    )
    if signature != (2, 1, 0):
        return False, f"metric signature is {signature}, expected (2, 1, 0)"
    return True, "bracket axioms, trace identities and signature (+,+,-)"


def check_maurer_cartan(_rng) -> tuple:
    a = forms.canonical_maurer_cartan()
    residual = forms.maurer_cartan_residual(a)
    if not residual.is_zero():
        return False, "canonical form violates the structural equation"
    doubled = forms.maurer_cartan_residual(2 * a)
    if doubled.is_zero():
        return False, "residual fails to detect a rescaled form"
    return True, "dA + (1/2)[A^A] = 0 exactly; rescaling detected"


def check_curvature_path(_rng) -> tuple:
    """R(t) = t dA + (t^2/2)[A^A] and ((t^2-t)/2)[A^A] are quadratics in
    t, so agreeing at the 11 points t = 0, 1/10, ..., 1 proves them equal
    for every t; it would for any two polynomials of degree at most 10.
    The points include both endpoints, where ((t^2-t)/2)[A^A] is the
    zero form, so the same loop proves the path flat there."""
    a = forms.canonical_maurer_cartan()
    square = forms.bracket_wedge(a, a)
    for numerator in range(0, 11):
        t = Fraction(numerator, 10)
        actual = forms.curvature_at(forms.ConnectionPath(t))
        expected = ((t * t - t) / 2) * square
        if not (actual - expected).is_zero():
            return False, f"curvature at t = {t} deviates from ((t^2-t)/2)[A^A]"
    return True, "R(t) = ((t^2-t)/2)[A^A] at 11 points, flat endpoints"


def check_vol_cs(rng) -> tuple:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=Warning)
        for _ in range(10_000):
            e = rng.randint(-1000, 1000)
            f = rng.randint(-1000, 1000)
            k = rng.randint(1, 1000) * rng.choice((1, -1))
            d = invariants.AdSDescriptor(e, f, k)
            if invariants.vol_from_cs(invariants.cs_pair(d)) != invariants.volume(d):
                return False, f"volume/CS mismatch on (e, f, k) = ({e}, {f}, {k})"
    return True, "vol_from_cs(cs_pair(d)) = signed volume on 10^4 random d"


def check_unit_tangent(_rng) -> tuple:
    for e in range(-50, -1):
        d = invariants.AdSDescriptor(e, 0, e)
        if invariants.unit_tangent_volume(e) != invariants.volume(d):
            return False, f"unit tangent volume mismatch at e = {e}"
        if invariants.cs_rho_id(e, e) != Fraction(-e, 6):
            return False, f"cs_rho_id(e, e) != -e/6 at e = {e}"
    return True, "unit tangent volume and cs identities for e in [-50, -2]"


def check_chasles(rng) -> tuple:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=Warning)
        for _ in range(200):
            e = rng.randint(-50, 50)
            f = rng.randint(-50, 50)
            k = rng.randint(1, 50) * rng.choice((1, -1))
            d = invariants.AdSDescriptor(e, f, k)
            composed = invariants.chasles(
                invariants.cs_rho_id(e, k), -invariants.cs_rho_id(f, k)
            )
            if composed != invariants.cs_pair(d):
                return False, f"Chasles additivity fails on ({e}, {f}, {k})"
        x = Fraction(rng.randint(-20, 20), 7)
        zero = Fraction(0)
        if invariants.chasles(x, zero) != x or invariants.chasles(x, -x) != zero:
            return False, "Chasles unit/inverse laws fail"
    return True, "cs_pair = chasles(cs_rho_id(e,k), -cs_rho_id(f,k)) on 200 random d"


def check_degree(rng) -> tuple:
    for _ in range(200):
        value = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        d1 = rng.randint(-10, 10)
        d2 = rng.randint(-10, 10)
        nested = invariants.cs_scale(d1, invariants.cs_scale(d2, value))
        if nested != invariants.cs_scale(d1 * d2, value):
            return False, "degree scaling is not multiplicative"
    for e in range(-6, 0):
        per_degree = invariants.cs_rho_id(e, e)
        if invariants.cs_scale(e, per_degree) != invariants.cs_rho_id(e, 1):
            return False, f"degree-{e} pullback anchor fails"
    return True, "cs_scale multiplicative; degree-k pullback matches k = 1 values"


def check_milnor_wood(rng) -> tuple:
    trivial = reps.trivial_representation(2)
    euler, residual = reps.euler_class(trivial)
    if euler != 0 or residual != 0.0:
        return False, f"trivial representation gives ({euler}, {residual})"
    for genus in (2, 3):
        rep = reps.fuchsian_regular_polygon(genus)
        if reps.relator_residual(rep) > 1e-9:
            return False, f"polygon relator fails to close at genus {genus}"
        euler, residual = reps.euler_class(rep)
        if abs(euler) != 2 * genus - 2:
            return False, f"polygon Euler class {euler} at genus {genus}"
    # elliptic rotations about a common fixed point commute, so the
    # relator closes exactly and the Euler class must vanish
    for _ in range(10):
        conj = reps.Moebius(
            [[1.0, rng.uniform(-1, 1)], [rng.uniform(-1, 1), 1.0 + rng.uniform(0, 1)]]
        )
        images = tuple(
            conj * reps.Moebius.rotation(rng.uniform(0, 3.14)) * conj.inverse()
            for _ in range(4)
        )
        rep = reps.Representation(reps.SurfaceGroup(2), images)
        euler, _ = reps.euler_class(rep)
        if euler != 0:
            return False, "common-fixed-point elliptic representation fails"
    return True, "Euler classes: trivial 0, polygon +-(2g-2), elliptic 0, bound holds"


def check_calibration(rng) -> tuple:
    gram = _frame_gram()
    expected = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(-1)],
    ]
    if gram != expected:
        return False, f"reference frame is not orthonormal: gram = {gram}"
    if liealg.metric(liealg.H, liealg.H) != 4:
        return (
            False,
            "metric normalisation broken: |H|^2 must be 4 (the H-flow moves "
            "the hyperbolic-plane basepoint at speed 2)",
        )
    ratio = liealg.omega(*liealg.REFERENCE_FRAME) / liealg.volume_form(
        *liealg.REFERENCE_FRAME
    )
    if ratio != liealg.OMEGA_VOLUME_RATIO:
        return False, f"omega/volume ratio {ratio} != {liealg.OMEGA_VOLUME_RATIO}"
    for _ in range(20):
        x, y, z = (_random_element(rng) for _ in range(3))
        if liealg.omega(x, y, z) != liealg.OMEGA_VOLUME_RATIO * liealg.volume_form(
            x, y, z
        ):
            return False, "omega is not proportionally locked to volume_form"
    kappa = forms.cs_density(forms.canonical_maurer_cartan())
    if kappa != invariants.CS_DENSITY_REFERENCE:
        return False, f"cs density {kappa} != frozen {invariants.CS_DENSITY_REFERENCE}"
    for e in (-2, -4):
        ratio = invariants.geometry_calibration(e)
        if ratio != invariants.CALIBRATION_RATIO:
            return (
                False,
                f"calibration ratio {ratio} at e = {e} != frozen "
                f"{invariants.CALIBRATION_RATIO}",
            )
    if forms.path_integral_coefficient() != Fraction(-1, 12):
        return False, "path integral coefficient is not -1/12"
    return True, "metric calibration, omega ratio -2, kappa -4, calibration -1"


CHECKS = (
    ("jacobi", check_jacobi),
    ("maurer-cartan", check_maurer_cartan),
    ("curvature-path", check_curvature_path),
    ("vol-cs", check_vol_cs),
    ("unit-tangent", check_unit_tangent),
    ("chasles", check_chasles),
    ("degree", check_degree),
    ("milnor-wood", check_milnor_wood),
    ("calibration", check_calibration),
)


def run_checks() -> list:
    """Run every identity check, each from a fresh generator seeded SEED;
    one {"name", "passed", "detail"} row per check, in CHECKS order."""
    results = []
    for name, check in CHECKS:
        rng = random.Random(SEED)
        try:
            passed, detail = check(rng)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": passed, "detail": detail})
    return results
