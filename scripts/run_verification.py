"""Run the full verification sweep and print a summary table.

Usage: python3 scripts/run_verification.py [--depth N]
"""

import argparse
import sys
import time

from lenscalc import verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=8, help="Markov tree depth")
    args = parser.parse_args()

    total = 0.0
    ok = True
    for criterion in verify.CRITERIA:
        start = time.perf_counter()
        result = criterion(args.depth)
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
