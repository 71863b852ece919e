"""Acceptance gate: one test per contract criterion, stated tolerances.

Each test prints a single `[acceptance] ... PASS/FAIL` line (visible
with `pytest -s`), so the whole contract can be eyeballed in one run.
"""

import json
import random
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction

import pytest

from _oracles import random_ad_frame
from adsvol import admissibility, cli, forms, invariants, liealg, reps
from adsvol.errors import ConventionWarning, IntegralityError


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    else:
        print(f"[acceptance] {label}: PASS")


def random_element(rng):
    return liealg.LieElement.of(
        *(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
    )


def random_conjugator(rng):
    return reps.Moebius(
        [[1.0 + rng.random(), rng.random() - 0.5],
         [rng.random() - 0.5, 1.0 + rng.random()]]
    )


def test_criterion_1_vol_cs_round_trip():
    with criterion("C1 exact vol<->cs round trip, 10^4 triples, <1s"):
        rng = random.Random(1001)
        triples = []
        while len(triples) < 10_000:
            e = rng.randint(-1000, 1000)
            f = rng.randint(-1000, 1000)
            k = rng.randint(-1000, 1000)
            if k != 0:
                triples.append((e, f, k))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConventionWarning)
            for e, f, k in triples:
                d = invariants.AdSDescriptor(e, f, k)
                assert invariants.vol_from_cs(invariants.cs_pair(d)) == invariants.volume(d)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_unit_tangent_special_case():
    with criterion("C2 unit-tangent bundle identities, e in [-50, -2]"):
        for e in range(-50, -1):
            d = invariants.AdSDescriptor(e, 0, e)
            assert invariants.unit_tangent_volume(e) == invariants.volume(d)
            assert invariants.unit_tangent_volume(e) == 4 * e
            assert invariants.cs_rho_id(e, e) == Fraction(-e, 6)


def test_criterion_3_worked_numbers():
    with criterion("C3 worked rational values"):
        d = invariants.AdSDescriptor(-2, 0, -2)
        assert abs(invariants.volume(d)) == 8
        assert invariants.cs_pair(d) == Fraction(1, 3)
        assert invariants.cs_rho_id(2, 1) == Fraction(-2, 3)
        assert invariants.cs_rho_id(2, 4) == Fraction(-1, 6)


def test_criterion_4_flatness_and_curvature_path():
    with criterion("C4 exact flatness and curvature path at 11 points"):
        a = forms.canonical_maurer_cartan()
        residual = forms.maurer_cartan_residual(a)
        assert residual.is_zero()
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert residual.values[pair] == forms._zero_matrix()
        wedge = forms.bracket_wedge(a, a)
        for numer in range(11):
            t = Fraction(numer, 10)
            got = forms.curvature_at(forms.ConnectionPath(t))
            assert got == ((t * t - t) / 2) * wedge
        assert forms.curvature_at(forms.ConnectionPath(Fraction(0))).is_zero()
        assert forms.curvature_at(forms.ConnectionPath(Fraction(1))).is_zero()


def test_criterion_5_algebra_identities():
    with criterion("C5 exact algebra identities on 100 random inputs, <1s"):
        rng = random.Random(1005)
        start = time.perf_counter()
        for _ in range(100):
            x, y, z = (random_element(rng) for _ in range(3))
            jac = (
                liealg.bracket(x, liealg.bracket(y, z))
                + liealg.bracket(y, liealg.bracket(z, x))
                + liealg.bracket(z, liealg.bracket(x, y))
            )
            assert jac.is_zero()
            assert liealg.bracket(x, y) == -liealg.bracket(y, x)
            assert liealg.adjoint(liealg.bracket(x, y)) == forms.commutator(
                liealg.adjoint(x), liealg.adjoint(y)
            )
            assert liealg.killing(x, y) == 4 * liealg.trace2(x, y)
        # Sylvester: the frame diagonalises the metric with signs (+, +, -)
        frame = liealg.REFERENCE_FRAME
        gram = [[liealg.metric(u, v) for v in frame] for u in frame]
        assert gram == [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_6_frozen_density_and_calibration():
    with criterion("C6 frozen density/calibration constants, frame stable"):
        rng = random.Random(1006)
        a = forms.canonical_maurer_cartan()
        kappa = forms.cs_density(a)
        chat = invariants.geometry_calibration()
        assert isinstance(kappa, Fraction) and kappa != 0
        assert isinstance(chat, Fraction) and chat != 0
        assert kappa == invariants.CS_DENSITY_REFERENCE == Fraction(-4)
        assert chat == invariants.CALIBRATION_RATIO == Fraction(-1)
        # frame stable: tr(A ^ [A ^ A]) = kappa * volume form as 3-forms,
        # on random Ad-frames, and both sides negate on a negative frame
        top = forms.wedge_trace(a, forms.bracket_wedge(a, a))

        def both_sides(frame):
            coords = [liealg.frame_coords(v) for v in frame]
            return top * liealg.det3(coords), kappa * liealg.volume_form(*frame)

        for _ in range(5):
            assert both_sides(random_ad_frame(rng)) == (kappa, kappa)
        assert both_sides((liealg.U2, liealg.U1, liealg.U3)) == (-kappa, -kappa)
        assert {forms.cs_density(a) for _ in range(3)} == {kappa}
        assert {invariants.geometry_calibration() for _ in range(3)} == {chat}


def elliptic_generator_representations(rng, count):
    """Randomized genus-2 representations with elliptic generators.

    Three flavours: powers of a single elliptic (relator exact), jittered
    copies of one elliptic (close to a true representation), and four
    unrelated elliptics (generically far from one, exercising the gate).
    """
    out = []
    for index in range(count):
        flavour = index % 3
        if flavour == 0:
            g = random_conjugator(rng)
            base = g * reps.Moebius.rotation(rng.uniform(0.2, 2.9)) * g.inverse()
            powers = [rng.randint(1, 5) for _ in range(4)]
            images = []
            for p in powers:
                m = reps.Moebius.identity()
                for _ in range(p):
                    m = m * base
                images.append(m)
            out.append(reps.Representation(reps.SurfaceGroup(2), tuple(images)))
        elif flavour == 1:
            g = random_conjugator(rng)
            images = []
            for _ in range(4):
                jitter = reps.Moebius(
                    [[1.0 + 1e-9 * rng.random(), 1e-9 * rng.random()],
                     [1e-9 * rng.random(), 1.0]]
                )
                images.append(
                    (g * jitter) * reps.Moebius.rotation(rng.uniform(0.2, 2.9)) * (g * jitter).inverse()
                )
            out.append(reps.Representation(reps.SurfaceGroup(2), tuple(images)))
        else:
            images = tuple(
                random_conjugator(rng)
                * reps.Moebius.rotation(rng.uniform(0.2, 2.9))
                * random_conjugator(rng).inverse()
                for _ in range(4)
            )
            out.append(reps.Representation(reps.SurfaceGroup(2), images))
    return out


def test_criterion_7_euler_classes():
    with criterion("C7 euler classes: trivial/fuchsian/conjugation/milnor-wood"):
        assert reps.euler_class(reps.trivial_representation(2)) == (0, 0.0)
        rng = random.Random(1007)
        for genus in (2, 3, 4):
            start = time.perf_counter()
            rep = reps.fuchsian_regular_polygon(genus)
            euler, residual = reps.euler_class(rep)
            elapsed = time.perf_counter() - start
            assert abs(euler) == 2 * genus - 2
            assert residual < 1e-6
            assert elapsed < 1.0, f"genus {genus} took {elapsed:.3f}s"
        base_rep = reps.fuchsian_regular_polygon(2)
        base_euler, _ = reps.euler_class(base_rep)
        for _ in range(5):
            conjugated = reps.conjugate(base_rep, random_conjugator(rng))
            assert reps.euler_class(conjugated)[0] == base_euler
        gate_passed = gate_failed = 0
        for rep in elliptic_generator_representations(rng, 200):
            try:
                euler, _ = reps.euler_class(rep)
            except IntegralityError:
                gate_failed += 1
                continue
            gate_passed += 1
            assert abs(euler) <= 2 * rep.genus - 2
        print(
            f"[acceptance]   milnor-wood sweep: {gate_passed} passed the gate, "
            f"{gate_failed} reported as integrality failures, 0 violations"
        )
        assert gate_passed > 0
        assert gate_passed + gate_failed == 200


def test_criterion_8_admissibility_estimator():
    with criterion("C8 admissibility estimator: bounds, monotone, <10s, deterministic"):
        rho = reps.fuchsian_regular_polygon(2)
        start = time.perf_counter()
        est = admissibility.lipschitz_lower_bound(rho, rho, max_len=6)
        elapsed = time.perf_counter() - start
        assert abs(est.lower_bound - 1.0) <= 1e-10
        assert est.words_scanned == admissibility.reduced_word_count(2, 6)
        assert elapsed < 10.0, f"took {elapsed:.3f}s"
        report = admissibility.admissibility_report(rho, rho, max_len=3)
        assert report.verdict == admissibility.VERDICT_REFUTED

        trivial = reps.trivial_representation(2)
        trivial_report = admissibility.admissibility_report(rho, trivial, max_len=3)
        assert trivial_report.lipschitz.lower_bound == 0.0
        assert trivial_report.verdict == admissibility.VERDICT_NOT_REFUTED

        rng = random.Random(1008)
        sigma = reps.Representation(
            rho.group,
            tuple(
                random_conjugator(rng) * m * random_conjugator(rng).inverse()
                for m in rho.images
            ),
        )
        bounds = [
            admissibility.lipschitz_lower_bound(rho, sigma, max_len=n).lower_bound
            for n in range(2, 7)
        ]
        assert all(b >= a for a, b in zip(bounds, bounds[1:])), bounds

        # determinism: re-running, and re-running under other block
        # sizes (which re-partition the scan), must reproduce the exact
        # same floats
        repeat = admissibility.lipschitz_lower_bound(rho, sigma, max_len=4)
        again = admissibility.lipschitz_lower_bound(rho, sigma, max_len=4)
        assert (repeat.lower_bound, repeat.witness) == (again.lower_bound, again.witness)
        saved = admissibility._block_words
        try:
            for block_words in (1, 3, 14, 142):
                admissibility._block_words = lambda letters: block_words
                est = admissibility.lipschitz_lower_bound(rho, sigma, max_len=4)
                assert est.lower_bound == repeat.lower_bound, block_words
                assert est.witness == repeat.witness, block_words
                assert est.words_scanned == repeat.words_scanned, block_words
        finally:
            admissibility._block_words = saved


def test_criterion_9_cli_contract(tmp_path, capsys, monkeypatch):
    with criterion("C9 cli worked commands and fault-injected verify"):
        def run(*argv):
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        code, out, _ = run("volume", "--e", "-2", "--f", "0", "--k", "-2")
        assert code == 0 and json.loads(out)["volume_pi2"] == "8/1"
        with pytest.warns(ConventionWarning):
            code, out, _ = run("volume", "--e", "3", "--f", "3", "--k", "7")
        assert code == 0 and json.loads(out)["volume_pi2"] == "0/1"
        code, out, _ = run("cs", "--e", "-2", "--f", "0", "--k", "-2")
        assert code == 0 and json.loads(out)["cs"] == "1/3"
        assert run("volume", "--e", "1", "--f", "0", "--k", "0")[0] == 2

        rep_path = tmp_path / "r.json"
        code, out, err = run("rep", "--genus", "2", "--out", str(rep_path))
        assert code == 0
        assert len(json.loads(rep_path.read_text())["generators"]) == 4
        assert json.loads(out)["relator_residual"] < 1e-9
        assert "residual" in err
        assert run("rep", "--genus", "1", "--out", str(tmp_path / "x.json"))[0] == 2
        assert run("rep", "--genus", "2", "--out", str(tmp_path / "no/dir/x.json"))[0] == 3

        code, out, _ = run("euler", "--rep", str(rep_path))
        payload = json.loads(out)
        assert code == 0 and abs(payload["euler"]) == 2 and payload["residual"] < 1e-6

        code, out, _ = run(
            "lipschitz", "--rho", str(rep_path), "--sigma", str(rep_path),
            "--max-word-len", "4",
        )
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["lipschitz_lower_bound"] - 1.0) <= 1e-10
        assert payload["verdict"] == "refuted"

        assert run("verify")[0] == 0

        with monkeypatch.context() as patcher:
            patcher.setattr(liealg, "METRIC_NORMALIZATION", Fraction(1))
            code, out, _ = run("verify")
            assert code == 1
            failing = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
            assert failing == {"calibration"}

        true_curvature = forms.curvature_at
        with monkeypatch.context() as patcher:
            patcher.setattr(forms, "curvature_at", lambda path: -1 * true_curvature(path))
            code, out, _ = run("verify")
            assert code == 1
            failing = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
            assert failing == {"curvature-path"}
