#!/usr/bin/env python3
"""Compare enclosure methods against the exact hull on seeded systems.

For each seeded 2x2 system prints the total box width per method and the
overestimation relative to the exact hull, followed by a summary.  All
arithmetic is exact; the printed widths are converted to floats only for
display.  It exits 1, naming the seed and the method, if a box does not
contain the hull.
"""

import argparse
import sys
from fractions import Fraction

from intlinalg import enclosure, hull_exact
from intlinalg.generate import well_conditioned_system

METHODS = ("int-ge", "jacobi", "gauss-seidel", "krawczyk", "hbr")


def total_width(box) -> Fraction:
    return sum(box.widths(), Fraction(0))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    slack_totals = {m: Fraction(0) for m in METHODS}
    header = "seed      hull " + " ".join(f"{m:>12}" for m in METHODS)
    print(header)
    print("-" * len(header))
    for i in range(args.count):
        matrix, rhs = well_conditioned_system(2, args.seed + i)
        hull = hull_exact(matrix, rhs).box
        base = total_width(hull)
        row = [f"{args.seed + i:<6}", f"{float(base):8.4f}"]
        for method in METHODS:
            box = enclosure(matrix, rhs, method).box
            if not box.contains_box(hull):
                sys.exit(f"seed {args.seed + i}: the {method} box misses the exact hull")
            slack = total_width(box) - base
            slack_totals[method] += slack
            row.append(f"{float(slack):12.6f}")
        print(" ".join(row))
    print("\nmean overestimation (total width beyond the hull):")
    for method in METHODS:
        mean = slack_totals[method] / args.count
        print(f"  {method:>12}: {float(mean):.6f}")


if __name__ == "__main__":
    main()
