"""Run one `adsvol` CLI command with the span tracer installed.

Usage: ADSVOL_BENCH_SPANS=report.json python3 bench/child.py <adsvol args>

Behaves like `python -m adsvol <args>` (same stdout, same exit code) and
writes a JSON report to the file named by ADSVOL_BENCH_SPANS: the span
summary of the command, and the clock readings after `import adsvol`
and once the report is built.  `time.perf_counter` is the system-wide
monotonic clock, so the parent can place them between its own readings
at spawn and at exit.
"""

import json
import os
import sys
import time

import adsvol
import adsvol.cli

IMPORTED = time.perf_counter()

import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import SPANS_ENV  # noqa: E402


def main() -> int:
    tr = tracer.Tracer()
    counts = layers.observe(tr)
    undo = tracer.install(tr, adsvol)
    try:
        code = adsvol.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.uninstall(undo)
    report = layers.span_report(tr, counts)
    report.update(imported=IMPORTED, reported=time.perf_counter())
    with open(os.environ[SPANS_ENV], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
