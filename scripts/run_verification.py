"""Run the verification criteria in one sweep and print a timed summary table.

Usage: python3 scripts/run_verification.py [--depth N]
"""

import argparse
import sys

from lenscalc import cli, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=cli.integer, default=8, help="Markov tree depth")
    args = cli.parse_script_args(parser)
    results = verify.run_all(args.depth)
    for r in results:
        status = "ok " if r.passed else "FAIL"
        print(f"{status} {r.number}  {r.wall_s:7.2f}s  {r.description}")
        print(f"         {r.detail}")
    ok = all(r.passed for r in results)
    total = sum(r.wall_s for r in results)
    print(f"total {total:.2f}s, {'all passed' if ok else 'FAILURES above'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
