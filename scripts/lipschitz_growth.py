#!/usr/bin/env python3
"""How the Lipschitz-ratio lower bound grows with the scan depth.

Builds the genus-g regular-polygon Fuchsian representation rho and three
targets sigma (rho itself, a conjugate of rho, and the trivial
representation), then tabulates the lower bound, witness word, word
count, wall time and scan rate (words per second) for each depth N.
The rho rows read exactly 1 and the trivial rows exactly 0.  A
conjugate has the same length spectrum, so its rows read 1 only up to
rounding in the word products: a few ulps above 1 at small N and a
few 1e-13 above it by N=6 at genus 2.  The bound is printed in full
for that reason.

    python3 scripts/lipschitz_growth.py --genus 2 --max-depth 5
"""

import argparse
import random
import sys
import time

from adsvol import admissibility, reps
from adsvol.errors import InputError


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--genus", type=int, default=2,
                        help="surface genus >= 2, default 2")
    parser.add_argument("--max-depth", type=int, default=5,
                        help="largest reduced-word length to scan, default 5")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.genus < 2:
        parser.error("--genus must be at least 2")
    if args.max_depth < 1:
        parser.error("--max-depth must be at least 1")
    try:
        admissibility.check_word_budget(args.genus, args.max_depth)
    except InputError as exc:
        parser.error(str(exc))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    rng = random.Random(args.seed)
    rho = reps.fuchsian_regular_polygon(args.genus)
    conjugator = reps.Moebius(
        [[1.0 + rng.random(), rng.random()], [rng.random(), 1.0 + rng.random()]]
    )
    targets = [
        ("rho itself", rho),
        ("conjugate of rho", reps.conjugate(rho, conjugator)),
        ("trivial", reps.trivial_representation(args.genus)),
    ]
    print(
        f"{'target':<18} {'N':>2} {'words':>9} {'bound':>20} {'witness':<26} "
        f"{'secs':>7} {'words/s':>10}"
    )
    for label, sigma in targets:
        for depth in range(1, args.max_depth + 1):
            start = time.perf_counter()
            est = admissibility.lipschitz_lower_bound(rho, sigma, max_len=depth)
            elapsed = time.perf_counter() - start
            witness = list(est.witness.letters) if est.witness else []
            print(
                f"{label:<18} {depth:>2} {est.words_scanned:>9} "
                f"{est.lower_bound!r:>20} {str(witness):<26} {elapsed:>7.3f} "
                f"{est.words_scanned / elapsed:>10.3g}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
