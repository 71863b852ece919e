"""The three workloads: inputs from a seed, the operation list of one
pass, and the check of every output against `oracles`.

A workload object is built once per run.  `operations()` returns the
fixed list of (name, callable) pairs of one pass; the runner times each
callable and hands the outputs back to `check()` after the pass, so no
oracle work is timed.  Module functions are looked up through the
module objects at call time, which is what lets the traced run see
them.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import oracles

GENERA = (2, 3, 5, 10, 20, 30, 50)
CLI_TIMEOUT_S = 120
#: Environment variable naming the file a traced CLI child reports to.
SPANS_ENV = "ADSVOL_BENCH_SPANS"


class Raised:
    """Output of an operation that raised: kept so the check counts it."""

    def __init__(self, exc: BaseException):
        self.type = type(exc).__name__
        self.message = str(exc)

    def __repr__(self) -> str:
        return f"Raised({self.type}: {self.message[:120]})"


def generators_of(rep) -> list:
    """Plain float matrices of a representation's generator images."""
    return [m.mat.tolist() for m in rep.images]


def _random_sl2(reps, rng):
    """A conjugator of moderate size (entries within a factor ~3 of 1)."""
    return reps.Moebius(
        [[1.0, rng.uniform(-1, 1)], [rng.uniform(-1, 1), 1.0 + rng.uniform(0, 1)]]
    )


def _pinched(reps, genus: int, rng):
    """sigma(a_i) = R diag(e^1/2, e^-1/2) R^-1 with a seeded rotation R,
    sigma(b_i) = 1: every commutator is the identity, Euler class 0."""
    stretch = reps.Moebius([[math.exp(0.5), 0.0], [0.0, math.exp(-0.5)]])
    images = []
    for i in range(genus):
        rot = reps.Moebius.rotation(math.pi * i / genus + rng.uniform(-0.3, 0.3))
        images += [rot * stretch * rot.inverse(), reps.Moebius.identity()]
    return reps.Representation(reps.SurfaceGroup(genus), tuple(images))


def _flipped(reps, rep):
    """Orientation reversal: conjugate by diag(1, -1), i.e. (a, -b, -c, d)."""
    images = tuple(
        reps.Moebius([[m.mat[0, 0], -m.mat[0, 1]], [-m.mat[1, 0], m.mat[1, 1]]])
        for m in rep.images
    )
    return reps.Representation(rep.group, images)


def _elliptic(reps, rng):
    conj = _random_sl2(reps, rng)
    return conj * reps.Moebius.rotation(rng.uniform(0.2, 2.9)) * conj.inverse()


def _elliptic_powers(reps, genus: int, rng):
    base = _elliptic(reps, rng)
    images = []
    for _ in range(2 * genus):
        m = base
        for _ in range(rng.randint(0, 4)):
            m = m * base
        images.append(m)
    return reps.Representation(reps.SurfaceGroup(genus), tuple(images))


def _unrelated_elliptics(reps, genus: int, rng):
    images = tuple(_elliptic(reps, rng) for _ in range(2 * genus))
    return reps.Representation(reps.SurfaceGroup(genus), images)


def fault_generators() -> list:
    """A hyperbolic and a rotation that badly violate the genus-2
    relator, so no Euler class can be read off (exit code 4)."""
    c, s = math.cos(0.8), math.sin(0.8)
    return [[[2.0, 0.0], [0.0, 0.5]], [[c, -s], [s, c]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]


def _fault(reps):
    return reps.Representation(
        reps.SurfaceGroup(2), tuple(reps.Moebius(m) for m in fault_generators())
    )


class ExactResiduals:
    """Exact relator residuals, memoised on the generator entries so
    repeated passes over deterministic inputs pay for them once."""

    def __init__(self):
        self._cache = {}

    def __call__(self, generators) -> float:
        key = tuple(x for m in generators for row in m for x in row)
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = oracles.exact_relator_residual(generators)
        return value


# ---------------------------------------------------------------------------


class LipschitzScan:
    name = "lipschitz_scan"
    in_process = True
    #: seconds of one pass on a 2-core Xeon VM at the seed commit
    NOMINAL_PASS_S = 2.5

    def __init__(self, seed: int, adsvol, root: Path):
        self.adm = adsvol.admissibility
        reps = self.reps = adsvol.reps
        rng = random.Random(seed)
        rho2 = reps.fuchsian_regular_polygon(2)
        rho3 = reps.fuchsian_regular_polygon(3)
        # (name, rho, sigma, sigma kind for the Euler table, genus, max length)
        self.cases = [
            ("conj", rho2, reps.conjugate(rho2, _random_sl2(reps, rng)), "conjugated", 2, 6),
            ("pinched", rho2, _pinched(reps, 2, rng), "pinched", 2, 6),
            ("trivial", rho2, reps.trivial_representation(2), "trivial", 2, 6),
            ("genus3_pinched", rho3, _pinched(reps, 3, rng), "pinched", 3, 5),
        ]
        self.generators = {}
        for name, rho, sigma, _, _, _ in self.cases:
            self.generators[name] = (generators_of(rho), generators_of(sigma))
        self.expected_max = {}  # filled by the first check of each case
        self.adm.admissibility_report(rho2, self.cases[0][2], max_len=2)  # warm-up

    def operations(self):
        adm = self.adm
        return [
            (name, lambda rho=rho, sigma=sigma, n=n: adm.admissibility_report(rho, sigma, max_len=n))
            for name, rho, sigma, _, _, n in self.cases
        ]

    def check(self, name, output) -> list:
        if isinstance(output, Raised):
            return [f"{name}: {output!r}"]
        _, _, _, kind, genus, max_len = next(c for c in self.cases if c[0] == name)
        rho_gens, sigma_gens = self.generators[name]
        witness = output.lipschitz.witness
        payload = {
            "euler_rho": output.euler_rho,
            "euler_sigma": output.euler_sigma,
            "lipschitz_lower_bound": output.lipschitz.lower_bound,
            "witness": list(witness.letters) if witness is not None else [],
            "max_word_length": output.lipschitz.max_word_length,
            "verdict": output.verdict,
        }
        if name not in self.expected_max:
            self.expected_max[name] = oracles.max_ratio(rho_gens, sigma_gens, genus, max_len)
        problems = oracles.check_admissibility(
            payload, rho_gens, sigma_gens, kind, genus, max_len, self.expected_max[name]
        )
        scanned = output.lipschitz.words_scanned
        if not 1 <= scanned <= oracles.reduced_word_count(genus, max_len):
            problems.append(f"{name}: words_scanned {scanned} out of range")
        return [f"{name}: {p}" for p in problems]

    def input_residuals(self):
        """(is the polygon rho, reported, exact) relator residuals of
        every input; `reported` is a Raised if the program raised."""
        out = []
        for name, rho, sigma, _, _, _ in self.cases:
            for rep, gens in zip((rho, sigma), self.generators[name]):
                try:
                    reported = self.reps.relator_residual(rep)
                except Exception as exc:  # counted as a failure by the runner
                    reported = Raised(exc)
                out.append((rep is rho, reported, oracles.exact_relator_residual(gens)))
        return out


class RepSweep:
    name = "rep_sweep"
    in_process = True
    NOMINAL_PASS_S = 0.75

    #: (kind, genus, how many) of the seeded Euler-class inputs
    MIX = (
        ("conjugated", 2, 40),
        ("conjugated", 3, 20),
        ("flipped", 2, 40),
        ("flipped", 3, 20),
        ("elliptic_powers", 2, 20),
        ("elliptic_powers", 3, 10),
        ("unrelated_elliptic", 2, 40),
        ("fault", 2, 10),
    )

    def __init__(self, seed: int, adsvol, root: Path):
        reps = self.reps = adsvol.reps
        rng = random.Random(seed)
        base = {g: reps.fuchsian_regular_polygon(g) for g in (2, 3)}
        self.inputs = []  # (kind, genus, rep)
        for kind, genus, count in self.MIX:
            for _ in range(count):
                if kind == "conjugated":
                    rep = reps.conjugate(base[genus], _random_sl2(reps, rng))
                elif kind == "flipped":
                    rep = _flipped(reps, reps.conjugate(base[genus], _random_sl2(reps, rng)))
                elif kind == "elliptic_powers":
                    rep = _elliptic_powers(reps, genus, rng)
                elif kind == "unrelated_elliptic":
                    rep = _unrelated_elliptics(reps, genus, rng)
                else:
                    rep = _fault(reps)
                self.inputs.append((kind, genus, rep))
        self.built = {}
        self.exact = ExactResiduals()
        self._euler(base[2])  # warm-up

    def _build(self, genus: int):
        rep = self.built[genus] = self.reps.fuchsian_regular_polygon(genus)
        return rep

    def _euler(self, rep):
        try:
            return self.reps.euler_class(rep)
        except self.reps.IntegralityError:
            return oracles.GATE

    def operations(self):
        reps = self.reps
        ops = []
        for g in GENERA:
            ops.append((f"build.g{g}", lambda g=g: self._build(g)))
            ops.append((f"relator_residual.g{g}", lambda g=g: reps.relator_residual(self.built[g])))
            ops.append((f"euler_class.g{g}", lambda g=g: self._euler(self.built[g])))
        for i, (kind, genus, rep) in enumerate(self.inputs):
            ops.append((f"euler.{kind}.{i}", lambda rep=rep: self._euler(rep)))
        return ops

    def check(self, name, output) -> list:
        if isinstance(output, Raised):
            return [f"{name}: {output!r}"]
        head, _, tail = name.partition(".")
        if head == "euler":
            kind, _, index = tail.partition(".")
            _, genus, _ = self.inputs[int(index)]
            ok = oracles.euler_ok(kind, genus, output)
            return [] if ok else [f"{name}: outcome {output!r} not allowed for {kind}"]
        genus = int(tail[1:])
        if head == "build":
            gens = generators_of(output)
            problems = []
            if len(gens) != 2 * genus:
                problems.append(f"{name}: {len(gens)} generators")
            if any(abs(oracles.exact_det(m) - 1) > 1e-6 for m in gens):
                problems.append(f"{name}: a generator is not det 1")
            if self.exact(gens) > oracles.RELATOR_GATE:
                problems.append(f"{name}: relator does not close (exact {self.exact(gens)})")
            return problems
        if head == "relator_residual":
            exact = self.exact(generators_of(self.built[genus]))
            ok = isinstance(output, float) and oracles.residual_consistent(output, exact)
            return [] if ok else [f"{name}: {output!r} vs exact {exact!r}"]
        ok = oracles.euler_ok("polygon", genus, output)
        return [] if ok else [f"{name}: {output!r}"]


class CliSession:
    name = "cli_session"
    in_process = False
    NOMINAL_PASS_S = 2.5
    GENUS = 2
    MAX_WORD_LEN = 4

    def __init__(self, seed: int, adsvol, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("ADSVOL_MAX_WORDS", None)
        rng = random.Random(seed)
        self.volume_args = _descriptor(rng)
        self.cs_args = _descriptor(rng)
        rel = work.relative_to(root)
        self.rho = str(rel / "rho.json")
        malformed = work / "malformed.json"
        malformed.write_text('{"genus": 2, "generators": [[[1.0, 0.0], [0.0, 1.0]],')
        fault = work / "fault.json"
        fault.write_text(json.dumps({"genus": 2, "generators": fault_generators()}))
        e, f, _ = self.volume_args
        self.commands = [
            ("rep", ["rep", "--genus", str(self.GENUS), "--out", self.rho]),
            ("euler", ["euler", "--rep", self.rho]),
            ("lipschitz", ["lipschitz", "--rho", self.rho, "--sigma", self.rho,
                           "--max-word-len", str(self.MAX_WORD_LEN)]),
            ("volume", ["volume", *_flags(self.volume_args)]),
            ("cs", ["cs", *_flags(self.cs_args)]),
            ("verify", ["verify"]),
            ("volume_k0", ["volume", *_flags((e, f, 0))]),
            ("euler_malformed", ["euler", "--rep", str(rel / "malformed.json")]),
            ("euler_fault", ["euler", "--rep", str(rel / "fault.json")]),
        ]
        self.prefix = [sys.executable, "-m", "adsvol"]
        self.child = [sys.executable, str(Path(__file__).with_name("child.py"))]
        self.run_command(self.argv("volume"))  # warm-up: byte-compiles the package

    def run_command(self, argv, traced: bool = False):
        """(exit code, stdout bytes, child report or None).  A traced
        command runs under the span-recording wrapper, which writes its
        report to SPANS_ENV; the spawn and exit times let the report's
        interpreter and import times be placed on the same clock."""
        env = self.env
        spans = None
        if traced:
            spans = self.work / "spans.json"
            env = dict(env, **{SPANS_ENV: str(spans)})
        spawned = time.perf_counter()
        proc = subprocess.run(
            (self.child if traced else self.prefix) + argv,
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=CLI_TIMEOUT_S,
            check=False,
        )
        done = time.perf_counter()
        report = None
        if traced:
            with open(spans, encoding="utf-8") as handle:
                report = json.load(handle)
            spans.unlink()
            report.update(spawned=spawned, done=done)
        return proc.returncode, proc.stdout, report

    def argv(self, kind: str) -> list:
        return dict(self.commands)[kind]

    def run_raw(self, argv) -> int:
        """Run any command the way the CLI commands run; its exit code."""
        return subprocess.run(
            argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S, check=False,
        ).returncode

    def operations(self, traced: bool = False):
        return [
            (kind, lambda argv=argv: self.run_command(argv, traced))
            for kind, argv in self.commands
        ]

    def expected(self, kind):
        if kind in ("volume", "cs"):
            args = self.volume_args if kind == "volume" else self.cs_args
            return oracles.dumps(oracles.descriptor_record(*args))
        if kind == "verify":
            return oracles.verify_stdout()
        if kind == "lipschitz":
            return oracles.lipschitz_self_stdout(self.GENUS, self.MAX_WORD_LEN)
        if kind == "rep":
            return oracles.check_rep_stdout(self.rho, self.GENUS, self._rho_generators)
        if kind == "euler":
            return oracles.check_euler_stdout(self.GENUS)
        return None

    def _rho_generators(self):
        with open(self.root / self.rho, encoding="utf-8") as handle:
            return json.load(handle)["generators"]

    def check(self, name, output) -> list:
        if isinstance(output, Raised):
            return [f"{name}: {output!r}"]
        code, stdout, _ = output
        return oracles.check_cli(name, code, stdout, self.expected(name))

    def rep_residual(self, output) -> float:
        return json.loads(output[1])["relator_residual"]


def _descriptor(rng):
    """(e, f, k) with |f| < |e| (the admissible regime) and k != 0."""
    e = rng.choice((-1, 1)) * rng.randint(2, 40)
    f = rng.randint(-abs(e) + 1, abs(e) - 1)
    k = rng.choice((-1, 1)) * rng.randint(1, 12)
    return e, f, k


def _flags(args):
    e, f, k = args
    return ["--e", str(e), "--f", str(f), "--k", str(k)]


WORKLOADS = {w.name: w for w in (LipschitzScan, RepSweep, CliSession)}
