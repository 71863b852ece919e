"""Per-layer metrics of the traced run.

Two kinds of number come out of here:

* workload-attributed: from the spans of the traced passes, each
  layer's self time as a share of the pass, calls per layer, words
  scanned, integrality-gate hits and the three shares the predictions
  are stated in;
* layer probes: the same fixed set of timings on every workload
  (Fuchsian build and Euler class per genus, the exact-algebra
  primitives, each verify check, and CLI start-up per subcommand), so
  a layer's speed is measured even where a workload does not use it.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from fractions import Fraction

import oracles
import tracer as tracing
from workloads import generators_of

PROBE_GENERA = (2, 10, 30, 50)
CLI_SUBCOMMANDS = ("rep", "euler", "lipschitz", "volume", "cs", "verify")

#: Each workload's prediction: (per-layer share metric, threshold, text).
PREDICTIONS = {
    "lipschitz_scan": ("share.scan", 0.90, "the Lipschitz scan is >= 90% of the pass"),
    "rep_sweep": ("share.euler_build", 0.80, "euler_class plus Fuchsian build is >= 80% of the pass"),
    "cli_session": ("share.startup_nonverify", 0.50,
                    "interpreter start plus import is >= 50% of the non-verify commands"),
}

SCAN = "admissibility.lipschitz_lower_bound"
EULER = "reps.euler_class"
BUILD = "reps.fuchsian_regular_polygon"


def observe(tr: tracing.Tracer) -> dict:
    """Counters fed from return values at the layer boundary."""
    counts = {"words_scanned": 0, "word_total": 0, "euler_residual_max": 0.0}

    def on_scan(args, kwargs, result):
        rho = args[0] if args else kwargs["rho"]
        counts["words_scanned"] += result.words_scanned
        counts["word_total"] += oracles.reduced_word_count(rho.genus, result.max_word_length)

    def on_euler(args, kwargs, result):
        counts["euler_residual_max"] = max(counts["euler_residual_max"], float(result[1]))

    tr.observers[SCAN] = on_scan
    tr.observers[EULER] = on_euler
    return counts


def span_report(tr: tracing.Tracer, counts: dict) -> dict:
    """What one traced region yields: per-name summary, error counts and
    the observed counters.  JSON-serialisable, so a CLI child can hand
    it to the parent."""
    return {
        "summary": tr.summary(),
        "spans": len(tr),
        "gate_hits": tr.errors.get((EULER, "IntegralityError"), 0),
        "counts": dict(counts),
    }


def pass_layers(wall: float, reports: list, commands=()) -> dict:
    """Per-layer numbers of one traced pass of `wall` seconds made of
    the span reports `reports`.  `commands` lists (kind, report) of the
    CLI children, whose reports also carry the clock readings at spawn,
    entry, after import, around the command, after building the report
    and at exit."""
    self_s = {layer: 0.0 for layer in tracing.LAYERS}
    calls = {layer: 0 for layer in tracing.LAYERS}
    inclusive = {SCAN: 0.0, EULER: 0.0, BUILD: 0.0}
    spans = gate_hits = words = word_total = 0
    euler_residual = 0.0
    for report in reports:
        for name, entry in report["summary"].items():
            layer = tracing.layer_of(name)
            self_s[layer] += entry["self_s"]
            calls[layer] += entry["calls"]
            if name in inclusive:
                inclusive[name] += entry["total_s"]
        spans += report["spans"]
        gate_hits += report["gate_hits"]
        words += report["counts"]["words_scanned"]
        word_total += report["counts"]["word_total"]
        euler_residual = max(euler_residual, report["counts"]["euler_residual_max"])
    startup = [(kind, r["imported"] - r["spawned"], r["done"] - r["spawned"]) for kind, r in commands]
    out = {f"share.{layer}": self_s[layer] / wall for layer in tracing.LAYERS}
    out["share.startup"] = sum(s for _, s, _ in startup) / wall
    out["share.exit"] = sum(r["done"] - r["reported"] for _, r in commands) / wall
    out["share.harness"] = 1.0 - sum(out.values())
    out.update({f"calls.{layer}": calls[layer] for layer in tracing.LAYERS})
    out["share.scan"] = inclusive[SCAN] / wall
    out["share.euler_build"] = (inclusive[EULER] + inclusive[BUILD]) / wall
    nonverify = [(s, w) for kind, s, w in startup if kind != "verify"]
    out["share.startup_nonverify"] = (
        sum(s for s, _ in nonverify) / sum(w for _, w in nonverify) if nonverify else 0.0
    )
    out["trace.spans_per_pass"] = spans
    out["admissibility.words_scanned"] = words
    out["admissibility.scan_fraction"] = words / word_total if word_total else 0.0
    out["reps.integrality_gate_hits"] = gate_hits
    out["reps.euler_residual_max"] = euler_residual
    return out


def combine_passes(per_pass: list) -> dict:
    """Median over traced passes, except the residual, which is a max."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = max(values) if key == "reps.euler_residual_max" else statistics.median(values)
    return out


def predictions(workload: str, layers: dict) -> list:
    """Every prediction with its measured share; only the workload's own
    prediction is judged."""
    out = []
    for name, (metric, threshold, text) in PREDICTIONS.items():
        measured = layers[metric]
        entry = {"workload": name, "metric": metric, "threshold": threshold,
                 "prediction": text, "measured": measured}
        if name == workload:
            entry["holds"] = measured >= threshold
        out.append(entry)
    return out


# ------------------------------------------------------------------ probes


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _per_call(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean time of one call."""
    def batch():
        for _ in range(calls):
            fn()
    return _median_time(batch, batches) / calls


def probe(adsvol, seed: int, cli, work) -> tuple:
    """(metrics, problems): the fixed probe block, identical on every
    workload.  `cli` runs `python -m adsvol` commands."""
    reps, liealg, forms, invariants, verify, adm = (
        adsvol.reps, adsvol.liealg, adsvol.forms, adsvol.invariants, adsvol.verify,
        adsvol.admissibility,
    )
    rng = random.Random(seed)
    out = {}
    problems = []
    for g in PROBE_GENERA:
        out[f"reps.fuchsian_build_ms.g{g}"] = 1e3 * _median_time(
            lambda: reps.fuchsian_regular_polygon(g), 3)
        rep = reps.fuchsian_regular_polygon(g)
        out[f"reps.euler_class_ms.g{g}"] = 1e3 * _median_time(lambda: reps.euler_class(rep), 3)
        residual = reps.relator_residual(rep)
        exact = oracles.exact_relator_residual(generators_of(rep))
        if not oracles.residual_consistent(residual, exact):
            problems.append(f"probe relator_residual g{g}: {residual} vs exact {exact}")
        out[f"reps.relator_residual.g{g}"] = residual
    path = work / "probe_g10.json"
    reps.save_representation(reps.fuchsian_regular_polygon(10), path)
    out["reps.load_representation_ms"] = 1e3 * _per_call(lambda: reps.load_representation(path), 20)

    def element():
        return liealg.LieElement.of(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)))

    pairs = [(element(), element()) for _ in range(50)]
    out["liealg.killing_us"] = 1e6 * _per_call(lambda: [liealg.killing(x, y) for x, y in pairs], 4) / len(pairs)
    out["liealg.bracket_us"] = 1e6 * _per_call(lambda: [liealg.bracket(x, y) for x, y in pairs], 4) / len(pairs)
    canonical = forms.canonical_maurer_cartan()
    out["forms.cs_density_ms"] = 1e3 * _per_call(lambda: forms.cs_density(canonical), 5)
    path_point = forms.ConnectionPath(Fraction(3, 10))
    out["forms.curvature_at_ms"] = 1e3 * _per_call(lambda: forms.curvature_at(path_point), 5)
    descriptors = [invariants.AdSDescriptor(e, f, k) for e, f, k in ((-2, 0, -2), (-4, 2, 3), (7, -3, 5), (-9, 4, -6))]
    out["invariants.json_record_us"] = 1e6 * _per_call(
        lambda: [invariants.json_record(d) for d in descriptors], 50) / len(descriptors)
    for name, check in verify.CHECKS:
        t0 = time.perf_counter()
        passed, detail = check(random.Random(20260814))
        out[f"verify.{name}_s"] = time.perf_counter() - t0
        if not passed:
            problems.append(f"probe verify {name}: {detail}")
    rho = reps.fuchsian_regular_polygon(2)
    sigma = reps.conjugate(rho, reps.Moebius([[1.0, 0.3], [-0.2, 1.4]]))
    holder = {}

    def scan():
        holder["estimate"] = adm.lipschitz_lower_bound(rho, sigma, max_len=5)

    # the scan calls into no other layer, so its wall time is the
    # admissibility layer's self time
    seconds = _median_time(scan, 3)
    out["admissibility.lower_bound_self_s"] = seconds
    out["admissibility.words_per_s"] = holder["estimate"].words_scanned / seconds
    out.update(_cli_probe(cli, problems))
    return out, problems


def _cli_probe(cli, problems) -> dict:
    """Bare interpreter, bare import, then each subcommand twice."""
    out = {}

    def spawn(code):
        return lambda: cli.run_raw([sys.executable, "-c", code])

    interpreter = _median_time(spawn("pass"), 3)
    out["cli.interpreter_ms"] = 1e3 * interpreter
    out["cli.import_ms"] = 1e3 * (_median_time(spawn("import adsvol"), 3) - interpreter)
    for kind in CLI_SUBCOMMANDS:
        samples = []
        for _ in range(2):
            t0 = time.perf_counter()
            output = cli.run_command(cli.argv(kind))
            samples.append(time.perf_counter() - t0)
            problems.extend(cli.check(kind, output))
        out[f"cli.{kind}_ms"] = 1e3 * statistics.median(samples)
    return out
