"""Run each verification criterion on its own and print a summary table.

Usage: python3 scripts/run_verification.py [--depth N]
"""

import argparse
import sys
import time

from lenscalc import cli, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=cli.integer, default=8, help="Markov tree depth")
    args = parser.parse_args()
    if args.depth < 0:
        parser.error("--depth must be at least 0")
    if args.depth > cli.DEPTH_CAP:
        parser.error(f"--depth must be at most {cli.DEPTH_CAP}")

    total = 0.0
    ok = True
    for criterion in verify.CRITERIA:
        start = time.perf_counter()
        [result] = verify.run([criterion.number], args.depth)
        elapsed = time.perf_counter() - start
        total += elapsed
        ok = ok and result.passed
        status = "ok " if result.passed else "FAIL"
        print(f"{status} {result.number}  {elapsed:7.2f}s  {result.description}")
        print(f"         {result.detail}")
    print(f"total {total:.2f}s, {'all passed' if ok else 'FAILURES above'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
