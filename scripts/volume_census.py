#!/usr/bin/env python3
"""Census of exact volumes and Chern-Simons invariants over a descriptor box.

Walks integer descriptors (e, f, k) with |f| < |e| <= max-euler and
1 <= |k| <= max-degree, prints one JSON line each, and finishes with a
short stderr summary of the extremes.  Useful for eyeballing how the
rational invariants distribute before chasing any particular quotient.

    python3 scripts/volume_census.py --max-euler 4 --max-degree 3
"""

import argparse
import json
import sys
from fractions import Fraction

from adsvol import invariants
from adsvol.errors import InputError


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-euler", type=int, default=4,
                        help="bound on |e| (and |f| < |e|), default 4")
    parser.add_argument("--max-degree", type=int, default=3,
                        help="bound on |k|, k != 0, default 3")
    parser.add_argument("--genus", type=int, default=None,
                        help="optional genus >= 2; enforces the Milnor-Wood bound")
    args = parser.parse_args(argv)
    if args.genus is not None and args.genus < 2:
        parser.error("--genus must be at least 2")
    return args


def census(max_euler, max_degree, genus):
    for e in range(-max_euler, max_euler + 1):
        if e == 0:
            continue
        for f in range(-abs(e) + 1, abs(e)):
            for k in range(-max_degree, max_degree + 1):
                if k == 0:
                    continue
                try:
                    yield invariants.AdSDescriptor(e, f, k, genus)
                except InputError:  # outside the Milnor-Wood bound
                    continue


def main(argv=None) -> int:
    args = parse_args(argv)
    largest = smallest = None
    count = 0
    for descriptor in census(args.max_euler, args.max_degree, args.genus):
        record = invariants.json_record(descriptor)
        print(json.dumps(record))
        count += 1
        magnitude = Fraction(record["volume_pi2"])
        if largest is None or magnitude > largest[0]:
            largest = (magnitude, descriptor)
        if magnitude > 0 and (smallest is None or magnitude < smallest[0]):
            smallest = (magnitude, descriptor)
    if largest is None:
        print("census is empty for these bounds", file=sys.stderr)
        return 1
    print(
        f"{count} descriptors; largest volume {largest[0]} * pi^2 at "
        f"(e={largest[1].e}, f={largest[1].f}, k={largest[1].k})",
        file=sys.stderr,
    )
    print(
        f"smallest positive volume {smallest[0]} * pi^2 at "
        f"(e={smallest[1].e}, f={smallest[1].f}, k={smallest[1].k})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
