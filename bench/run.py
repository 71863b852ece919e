"""adsvol benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Workloads (see bench/README.md):

    lipschitz_scan  admissibility reports over three sigma paths, in process
    rep_sweep       Fuchsian builds and Euler classes, in process
    cli_session     sequential `python -m adsvol` commands

Every workload is one closed loop: passes over a fixed operation list
repeat, each operation starting when the previous one has finished, and
every output is checked against `oracles` after its pass.  The number
of passes is S over the workload's nominal pass time (at least
MIN_PASSES), so a run takes about S seconds and every run of a workload
has the same sample composition.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics, from passes that
alternate between untraced and traced.  The line before it is a
detailed report (environment, sample counts, predictions, problems).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
from oracles import residual_consistent  # noqa: E402
from workloads import WORKLOADS, CliSession, LipschitzScan, Raised  # noqa: E402

MIN_PASSES = 3
SETUP_REPEATS = 9
#: End-to-end numbers only cli_session has.  They are printed, not
#: listed in BENCHMARK.json, which asks every workload for every metric.
CLI_ONLY_UNITS = {"cold_start_ms": "ms", "verify_s": "s"}
MAX_PROBLEMS_SHOWN = 20


class Tally:
    """Operations attempted and the problems found in their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def calibration_ms(repeats: int = 21) -> dict:
    """Median and fastest time of a fixed pure-Python loop: on a shared
    machine the CPU's speed drifts by tens of percent over minutes, and
    this says how fast it was when a run started."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        samples.append(1e3 * (time.perf_counter() - t0))
    return {"median": statistics.median(samples), "min": min(samples)}


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if rev.returncode == 0:
            sha = rev.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
            )
            dirty = bool(status.stdout.strip())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
        "git_dirty": dirty,
        "loadavg": list(os.getloadavg()),
        "calibration_ms": calibration_ms(),
    }


def import_adsvol():
    sys.path.insert(0, str(ROOT / "src"))
    import adsvol
    import adsvol.cli  # noqa: F401  (cli and verify are not imported by the package)

    return adsvol


def make_workload(name: str, seed: int, work: Path, adsvol=None):
    cls = WORKLOADS[name]
    if cls.in_process:
        return cls(seed, adsvol, ROOT)
    return cls(seed, adsvol, ROOT, work)


def run_pass(ops) -> tuple:
    """(wall seconds, [(name, seconds, output)]) of one closed-loop pass."""
    clock = time.perf_counter
    records = []
    start = clock()
    for name, fn in ops:
        t0 = clock()
        try:
            output = fn()
        except Exception as exc:  # counted as a failure by the check
            output = Raised(exc)
        records.append((name, clock() - t0, output))
    return clock() - start, records


def pass_count(workload, seconds: float) -> int:
    return max(MIN_PASSES, math.ceil(seconds / workload.NOMINAL_PASS_S))


def check_pass(workload, records, tally: Tally) -> list:
    """Check every output of a pass; the outputs that passed, in order."""
    accepted = []
    for name, _, output in records:
        try:
            problems = workload.check(name, output)
        except Exception as exc:  # an output the oracle cannot even read
            problems = [f"{name}: check raised {exc!r} on {output!r:.200}"]
        tally.add(problems)
        if not problems:
            accepted.append((name, output))
    return accepted


def tail(pass_latencies: list) -> float:
    """Median over passes of each pass's slowest operation.  A fixed
    high order statistic of all latencies would land among the few
    samples of the slowest operation (the second fastest of 12 `verify`
    runs on cli_session) and follow its noisiest outliers."""
    return statistics.median(max(latencies) for latencies in pass_latencies)


def setup_seconds(args) -> list:
    """Wall time of SETUP_REPEATS fresh set-ups, each a new interpreter
    that imports the package, builds the fixtures and warms up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return samples


# ---------------------------------------------------------------- untraced


def untraced_run(args, work: Path, tally: Tally) -> tuple:
    setups = setup_seconds(args)
    adsvol = import_adsvol() if WORKLOADS[args.workload].in_process else None
    workload = make_workload(args.workload, args.seed, work, adsvol)
    ops = workload.operations()
    walls, latencies, per_pass = [], [], []
    by_op = {}  # operation name, numbered suffix dropped -> seconds
    residuals = []
    for _ in range(pass_count(workload, args.seconds)):
        wall, records = run_pass(ops)
        walls.append(wall)
        per_pass.append([seconds for _, seconds, _ in records])
        for name, seconds, _ in records:
            latencies.append(seconds)
            by_op.setdefault(re.sub(r"\.\d+$", "", name), []).append(seconds)
        # residuals only from outputs the oracles accepted
        for name, output in check_pass(workload, records, tally):
            if name.startswith("relator_residual"):
                residuals.append(output)
            if name == "rep":
                residuals.append(workload.rep_residual(output))
    if isinstance(workload, LipschitzScan):
        for polygon, reported, exact in workload.input_residuals():
            ok = isinstance(reported, float) and residual_consistent(reported, exact)
            tally.add([] if ok else [f"input relator residual {reported!r} vs exact {exact}"])
            if ok and polygon:
                residuals.append(reported)
    if not residuals:
        tally.add(["no relator residual passed its check"])

    usage = resource.RUSAGE_SELF if adsvol is not None else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail(per_pass),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "relator_residual_max": max(residuals, default=math.nan),
    }
    if isinstance(workload, CliSession):
        cold = by_op["volume"] + by_op["cs"]
        metrics["cold_start_ms"] = 1e3 * statistics.median(cold)
        metrics["verify_s"] = statistics.median(by_op["verify"])
    detail = {
        "passes": len(walls),
        "operations_per_pass": len(ops),
        "op_samples": len(latencies),
        "setup_samples_s": setups,
        "pass_samples_s": walls,
        "op_median_ms": {k: 1e3 * statistics.median(v) for k, v in by_op.items()},
    }
    return metrics, detail


# ------------------------------------------------------------------ traced


def traced_pass(workload, adsvol) -> tuple:
    """(wall, per-layer numbers, records) of one traced pass."""
    if isinstance(workload, CliSession):
        wall, records = run_pass(workload.operations(traced=True))
        commands = [(kind, output[2]) for kind, _, output in records if not isinstance(output, Raised)]
        return wall, layers.pass_layers(wall, [r for _, r in commands], commands), records
    tr = tracing.Tracer()
    counts = layers.observe(tr)
    undo = tracing.install(tr, adsvol)
    try:
        wall, records = run_pass(workload.operations())
    finally:
        tracing.uninstall(undo)
    return wall, layers.pass_layers(wall, [layers.span_report(tr, counts)]), records


def traced_run(args, work: Path, tally: Tally) -> tuple:
    adsvol = import_adsvol()
    workload = make_workload(args.workload, args.seed, work, adsvol)
    cli = workload if isinstance(workload, CliSession) else CliSession(args.seed, None, ROOT, work)
    probe_metrics, problems = layers.probe(adsvol, args.seed, cli, work)
    tally.add(problems)
    plain_walls, traced_walls, per_pass = [], [], []
    # per-layer numbers carry no bound: (untraced, traced) pairs making
    # half as many passes as an untraced run are enough
    for _ in range(math.ceil(pass_count(workload, args.seconds) / 4)):
        wall, records = run_pass(workload.operations())
        plain_walls.append(wall)
        check_pass(workload, records, tally)
        wall, numbers, records = traced_pass(workload, adsvol)
        traced_walls.append(wall)
        per_pass.append(numbers)
        check_pass(workload, records, tally)
    metrics = layers.combine_passes(per_pass)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics.update(probe_metrics)
    detail = {
        "passes_untraced": len(plain_walls),
        "passes_traced": len(traced_walls),
        "pass_s_untraced": statistics.median(plain_walls),
        "pass_s_traced": statistics.median(traced_walls),
        "predictions": layers.predictions(args.workload, metrics),
    }
    return metrics, detail


# -------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def benchmark_units(section: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists in `section`."""
    return {m["name"]: m["unit"] for m in spec()[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "adsvol" / "__init__.py").is_file():
        print(f"bench: no adsvol sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            adsvol = import_adsvol() if WORKLOADS[args.workload].in_process else None
            make_workload(args.workload, args.seed, work, adsvol)
            return 0
        env = environment()
        tally = Tally()
        if args.trace:
            values, detail = traced_run(args, work, tally)
            units = benchmark_units("per_layer")
        else:
            values, detail = untraced_run(args, work, tally)
            units = benchmark_units("end_to_end")
            detail["cli_only"] = {
                name: {"value": values[name], "unit": unit}
                for name, unit in CLI_ONLY_UNITS.items() if name in values
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    fail_ratio = tally.failed / tally.attempted
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "fail_ratio": fail_ratio,
        "problems": tally.problems[:MAX_PROBLEMS_SHOWN],
        **detail,
    }
    for name, entry in {**metrics, **detail.get("cli_only", {})}.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':40s} {fail_ratio:.6g} failed/attempted ({tally.failed}/{tally.attempted})",
          file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
