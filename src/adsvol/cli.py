"""Command-line interface.

Subcommands: rep, euler, lipschitz, volume, cs, verify.  Every stdout
payload is a single JSON document; human-readable summaries go to
stderr.  Exit codes are a stable contract:

    0  success
    1  verification failure (a failed `verify` check, or generators built
       by `rep` whose relator residual exceeds reps.RELATOR_TOLERANCE)
    2  input error (including unknown flags, via argparse)
    3  I/O error
    4  no Euler class can be read: a representation's relator does not
       close within reps.RELATOR_TOLERANCE (the gate of `reps.euler_class`,
       which `rep`, `euler` and `lipschitz` call)

Each handler only computes: it returns its stdout payload (None for
none), its stderr summary and its exit code, and `main` alone writes
them.  A verification failure is such a return, not an exception.  Each
handler imports the layer it needs when it runs, so `volume` and `cs`
never load the numpy-backed `reps` and `admissibility`.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import DEFAULT_MAX_WORD_LENGTH
from .errors import InputError, IntegralityError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_INTEGRALITY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsvol",
        description=(
            "Exact volume and Chern-Simons invariants of closed anti-de-Sitter "
            "3-manifolds, plus surface-group representation tools"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("rep", help="write a Fuchsian regular-polygon representation")
    rep.add_argument("--genus", type=int, required=True)
    rep.add_argument("--out", required=True, help="output JSON path")

    euler = sub.add_parser("euler", help="Euler class of a representation file")
    euler.add_argument("--rep", required=True, help="representation JSON path")

    lips = sub.add_parser("lipschitz", help="Lipschitz lower bound for a pair")
    lips.add_argument("--rho", required=True, help="dominating representation JSON")
    lips.add_argument("--sigma", required=True, help="dominated representation JSON")
    lips.add_argument(
        "--max-word-len",
        type=int,
        default=DEFAULT_MAX_WORD_LENGTH,
        help="scan reduced words up to this length (default %(default)s)",
    )

    for name, help_text in (
        ("volume", "exact volume of a descriptor"),
        ("cs", "exact Chern-Simons invariant of a descriptor"),
    ):
        descriptor = sub.add_parser(name, help=help_text)
        for flag in ("--e", "--f", "--k"):
            descriptor.add_argument(flag, type=int, required=True)

    sub.add_parser("verify", help="run the identity checks")
    return parser


def run_rep(args) -> tuple:
    from . import reps

    rep = reps.fuchsian_regular_polygon(args.genus)
    residual = reps.relator_residual(rep)
    if not residual <= reps.RELATOR_TOLERANCE:
        summary = (
            f"verification failure: genus {args.genus} generators do not close: "
            f"relator residual {residual:.3e} exceeds tolerance "
            f"{reps.RELATOR_TOLERANCE}"
        )
        return None, summary, EXIT_VERIFY_FAILED
    euler, euler_residual = reps.euler_class(rep)
    reps.save_representation(rep, args.out)
    payload = {
        "genus": args.genus,
        "out": args.out,
        "relator_residual": residual,
        "euler": euler,
    }
    summary = (
        f"genus {args.genus}: wrote {args.out}; relator residual {residual:.3e}, "
        f"euler class {euler} (residual {euler_residual:.3e})"
    )
    return payload, summary, EXIT_OK


def run_euler(args) -> tuple:
    from . import reps

    rep = reps.load_representation(args.rep)
    euler, residual = reps.euler_class(rep)
    summary = f"euler class {euler}, integrality residual {residual:.3e}"
    return {"euler": euler, "residual": residual}, summary, EXIT_OK


def run_lipschitz(args) -> tuple:
    from . import admissibility, reps

    rho = reps.load_representation(args.rho)
    sigma = reps.load_representation(args.sigma)
    report = admissibility.admissibility_report(rho, sigma, max_len=args.max_word_len)
    summary = (
        f"lower bound {report.lipschitz.lower_bound:.12g} over "
        f"{report.lipschitz.words_scanned} words; verdict {report.verdict}"
    )
    return admissibility.report_json(report), summary, EXIT_OK


def run_descriptor(args) -> tuple:
    """`volume` and `cs`: the same exact record, summarised by command."""
    from . import invariants

    record = invariants.json_record(invariants.AdSDescriptor(args.e, args.f, args.k))
    where = f"(e={args.e}, f={args.f}, k={args.k})"
    if args.command == "volume":
        summary = (
            f"volume of {where}: {record['volume_pi2']} * pi^2 "
            f"(signed {record['volume_signed_pi2']})"
        )
    else:
        summary = f"chern-simons of {where}: {record['cs']}"
    return record, summary, EXIT_OK


def run_verify(_args) -> tuple:
    from . import verify

    checks = verify.run_checks()
    all_passed = all(check["passed"] for check in checks)
    summary = "\n".join(
        f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}: {check['detail']}"
        for check in checks
    )
    payload = {"checks": checks, "all_passed": all_passed}
    return payload, summary, EXIT_OK if all_passed else EXIT_VERIFY_FAILED


HANDLERS = {
    "rep": run_rep,
    "euler": run_euler,
    "lipschitz": run_lipschitz,
    "volume": run_descriptor,
    "cs": run_descriptor,
    "verify": run_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    payload = None
    try:
        payload, summary, code = HANDLERS[args.command](args)
    except InputError as exc:
        summary, code = f"input error: {exc}", EXIT_INPUT
    except IntegralityError as exc:
        summary, code = f"integrality failure: {exc}", EXIT_INTEGRALITY
    except OSError as exc:
        summary, code = f"i/o error: {exc}", EXIT_IO
    print(summary, file=sys.stderr)
    if payload is not None:
        print(json.dumps(payload))
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
