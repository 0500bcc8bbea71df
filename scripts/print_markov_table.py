"""Tabulate Markov triples with their derived surgery coefficients and the
lens spaces bounding the three rational homology balls.

Usage: python3 scripts/print_markov_table.py [--depth N]
"""

import argparse
import sys

from lenscalc import markov
from lenscalc.lens import boundary_Bpq


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=4, help="Markov tree depth")
    args = parser.parse_args()
    if args.depth < 0:
        parser.error("--depth must be at least 0")

    print(f"{'triple':>18}  {'word':<8} {'q-triple':>24}  boundaries")
    for t, word in markov.enumerate_tree(args.depth):
        q = markov.derive_q(t)
        bounds = " # ".join(str(boundary_Bpq(p, qq)) for p, qq in zip(t.entries(), q.entries()))
        print(f"{str(t):>18}  {word or '-':<8} {str(q.entries()):>24}  {bounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
