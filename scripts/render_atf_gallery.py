"""Render SVG almost toric diagrams for every Markov triple up to a depth.

Usage: python3 scripts/render_atf_gallery.py [--depth N] [--out DIR]
"""

import argparse
import pathlib
import sys

from lenscalc import atf, cli, markov, svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=cli.integer, default=3, help="Markov tree depth")
    parser.add_argument("--out", default="atf_gallery", help="output directory")
    args = cli.parse_script_args(parser)

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, word in markov.enumerate_tree(args.depth):
        d = atf.atf_for_markov(t)
        name = "markov_%d_%d_%d.svg" % t.entries()
        (out_dir / name).write_text(svg.render_svg(d), encoding="utf-8")
        print(f"{name}  word={word or '(root)'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
