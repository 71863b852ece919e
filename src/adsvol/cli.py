"""Command-line interface.

Subcommands: rep, euler, lipschitz, volume, cs, verify.  Every stdout
payload is a single JSON document; human-readable summaries go to
stderr.  Exit codes are a stable contract:

    0  success
    1  verification failure
    2  input error (including unknown flags, via argparse)
    3  I/O error
    4  Euler-class integrality failure

Each handler imports the layer it needs when it runs, so `volume` and
`cs` never load the numpy-backed `reps` and `admissibility`.
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


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _info(message: str) -> None:
    print(message, file=sys.stderr)


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

    volume = sub.add_parser("volume", help="exact volume of a descriptor")
    for flag in ("--e", "--f", "--k"):
        volume.add_argument(flag, type=int, required=True)

    cs = sub.add_parser("cs", help="exact Chern-Simons invariant of a descriptor")
    for flag in ("--e", "--f", "--k"):
        cs.add_argument(flag, type=int, required=True)

    sub.add_parser("verify", help="run the identity checks")
    return parser


def run_rep(args) -> int:
    from . import reps

    rep = reps.fuchsian_regular_polygon(args.genus)
    residual = reps.relator_residual(rep)
    euler, euler_residual = reps.euler_class(rep)
    reps.save_representation(rep, args.out)
    _info(
        f"genus {args.genus}: wrote {args.out}; relator residual {residual:.3e}, "
        f"euler class {euler} (residual {euler_residual:.3e})"
    )
    _emit(
        {
            "genus": args.genus,
            "out": args.out,
            "relator_residual": residual,
            "euler": euler,
        }
    )
    return EXIT_OK


def run_euler(args) -> int:
    from . import reps

    rep = reps.load_representation(args.rep)
    euler, residual = reps.euler_class(rep)
    _info(f"euler class {euler}, integrality residual {residual:.3e}")
    _emit({"euler": euler, "residual": residual})
    return EXIT_OK


def run_lipschitz(args) -> int:
    from . import admissibility, reps

    rho = reps.load_representation(args.rho)
    sigma = reps.load_representation(args.sigma)
    report = admissibility.admissibility_report(
        rho, sigma, max_len=args.max_word_len
    )
    _info(
        f"lower bound {report.lipschitz.lower_bound:.12g} over "
        f"{report.lipschitz.words_scanned} words; verdict {report.verdict}"
    )
    _emit(admissibility.report_json(report))
    return EXIT_OK


def run_volume(args) -> int:
    from . import invariants

    record = invariants.json_record(invariants.AdSDescriptor(args.e, args.f, args.k))
    _info(
        f"volume of (e={args.e}, f={args.f}, k={args.k}): "
        f"{record['volume_pi2']} * pi^2 (signed {record['volume_signed_pi2']})"
    )
    _emit(record)
    return EXIT_OK


def run_cs(args) -> int:
    from . import invariants

    record = invariants.json_record(invariants.AdSDescriptor(args.e, args.f, args.k))
    _info(f"chern-simons of (e={args.e}, f={args.f}, k={args.k}): {record['cs']}")
    _emit(record)
    return EXIT_OK


def run_verify(_args) -> int:
    from . import verify

    results = verify.run_checks()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        _info(f"{status} {result.name}: {result.detail}")
    payload = {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit(payload)
    return EXIT_OK if payload["all_passed"] else EXIT_VERIFY_FAILED


HANDLERS = {
    "rep": run_rep,
    "euler": run_euler,
    "lipschitz": run_lipschitz,
    "volume": run_volume,
    "cs": run_cs,
    "verify": run_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except InputError as exc:
        _info(f"input error: {exc}")
        return EXIT_INPUT
    except IntegralityError as exc:
        _info(f"integrality failure: {exc}")
        return EXIT_INTEGRALITY
    except OSError as exc:
        _info(f"i/o error: {exc}")
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
