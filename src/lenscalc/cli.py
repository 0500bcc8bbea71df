"""Command-line front end: enumeration, verification sweeps, diagram
construction, and JSON/SVG emission.  All output is deterministic; an
error goes to stderr as one machine-readable JSON object, with exit
status 2, and stderr is otherwise empty."""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import atf, farey, handles, lens, markov, svg, verify
from .errors import LenscalcError, PreconditionError

DEPTH_CAP = 16
# The most vertices `farey path` prints: a path costs memory in proportion
# to its length, and `farey path -N 0` has N + 1 vertices.
PATH_CAP = 200_000


def _dump(obj, file=None) -> None:
    print(json.dumps(obj, separators=(",", ":")), file=file)


def _emit_error(code: str, message: str) -> None:
    _dump({"error": code, "message": message}, sys.stderr)


def _printable(what: str, numbers) -> None:
    """The one check of the integers a command prints that its input does not
    bound: `str` writes at most `sys.get_int_max_str_digits()` digits (0: no
    limit), a limit read here and never set."""
    limit = sys.get_int_max_str_digits()
    if limit and max(map(abs, numbers), default=0) >= 10**limit:
        raise PreconditionError(
            f"{what} has an integer of more than {limit} digits, "
            "the output digit limit of int-to-str conversion"
        )


def _diagram_integers(d: atf.AtfDiagram) -> list[int]:
    """The integers of `d.to_json_obj()`: the coordinates' numerators and
    denominators in lowest terms, and the eigenvectors."""
    ints = [n for pts in d.lowest_terms for p in pts for c in p for n in c]
    return ints + [c for e in d.frame.eigenvectors for c in e]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let slope arguments like -8/5 parse as positionals, not options
        self._negative_number_matcher = re.compile(r"^-([0-9]+(/[0-9]+)?|inf)$")

    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def integer(text: str) -> int:
    """An integer argument in decimal digits, the form every JSON reader
    takes; anything else raises ValueError."""
    if not farey._DECIMAL.fullmatch(text):
        raise ValueError(f"invalid integer value: {text!r:.40}")
    return int(text)


def parse_script_args(parser: argparse.ArgumentParser) -> argparse.Namespace:
    """A script's arguments: a `--depth` outside 0..DEPTH_CAP is a usage error."""
    args = parser.parse_args()
    if args.depth < 0:
        parser.error("--depth must be at least 0")
    if args.depth > DEPTH_CAP:
        parser.error(f"--depth must be at most {DEPTH_CAP}")
    return args


def _check_depth(depth: int) -> int:
    if depth < 0 or depth > DEPTH_CAP:
        raise PreconditionError(f"depth must be between 0 and {DEPTH_CAP}")
    return depth


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise PreconditionError(f"{path} is nested too deeply to read") from exc


def _cmd_markov_tree(args) -> int:
    depth = _check_depth(args.depth)
    out = [
        {"p": list(t.entries()), "word": word}
        for t, word in markov.enumerate_tree(depth)
    ]
    _dump(out)
    return 0


def _cmd_markov_derive_q(args) -> int:
    t, q = _triple_and_q(args.p1, args.p2, args.p3)
    _dump(
        {
            "p": list(t.entries()),
            "q": list(q.entries()),
            "bezout": [q.bezout_x, q.bezout_y],
        }
    )
    return 0


def _cmd_markov_verify(args) -> int:
    depth = _check_depth(args.depth)
    triples, conditions, failures = verify.q_sweep(depth)
    ok = not failures
    _dump(
        {
            "depth": depth,
            "triples": triples,
            "conditions": conditions,
            "pass": ok,
        }
    )
    return 0 if ok else 1


def _cmd_farey_path(args) -> int:
    src = farey.Slope.parse(args.src)
    dst = farey.Slope.parse(args.dst)
    length = farey.minimal_path_length(src, dst)
    if length > PATH_CAP:
        raise PreconditionError(
            f"the minimal path has {length} vertices, more than the cap of {PATH_CAP}"
        )
    path = farey.minimal_path(src, dst)
    _dump({"slopes": [[str(s.num), str(s.den)] for s in path]})
    return 0


def _cmd_farey_classify(args) -> int:
    path = farey.DecoratedPath.from_json_obj(_load_json(args.path))
    _dump({"classification": farey.classify(path).value})
    return 0


def _cmd_lens_surgery(args) -> int:
    p, q = args.knot
    r, s = args.ambient
    knot = lens.TorusKnot(p, q, lens.LensSpace(r, s))
    result = lens.nonloose_surgery_result(knot)
    _printable("the splitting", (n for l in result.summands for n in l.canonical))
    _dump(result.to_json_obj())
    return 0


def _triple_and_q(p1: int, p2: int, p3: int):
    """The triple and its q-triple: of the integers `markov derive-q` and
    `handle build-x` print, only the q's are not bounded by the input."""
    t = markov.MarkovTriple(p1, p2, p3)
    q = markov.derive_q(t)
    _printable("the q-triple", q.entries())
    return t, q


def _cmd_handle_build_x(args) -> int:
    t, q = _triple_and_q(args.p1, args.p2, args.p3)
    d = handles.build_X(t, q)
    if args.json:
        _dump(d.to_json_obj())
    else:
        print(f"diagram for {t} with q={q.entries()}")
        for i, c in enumerate(d.curves, start=1):
            print(f"  gamma{i}: {c}")
        print(f"  handles: one 0-, one 1-, {len(d.curves)} 2-, {d.n3} 3-, {d.n4} 4-handles")
    return 0


def _cmd_handle_recognize(args) -> int:
    d = handles.HorizontalDiagram.from_json_obj(_load_json(args.diagram))
    ok, x = handles.recognize_cp2(d)
    _printable("x", x)
    _dump({"cp2": ok, "x": list(x)})
    return 0


def _cmd_handle_mutate(args) -> int:
    d = handles.HorizontalDiagram.from_json_obj(_load_json(args.diagram))
    out = handles.slide_mutation(d, handles.Slot(args.slot))
    _printable("the diagram", (n for c in out.curves for n in (c.mu, c.lam)))
    _dump(out.to_json_obj())
    return 0


def _cmd_atf_build(args) -> int:
    t = markov.MarkovTriple(args.p1, args.p2, args.p3)
    d = atf.atf_for_markov(t)
    _printable("the diagram", _diagram_integers(d))
    if args.svg:
        # the labels: the readouts of the nodes that pass their check
        labels = [atf.node_boundary_lens(d, r.index) for r in atf.check_consistency(d) if r.passed]
        _printable("a lens readout", (n for l in labels for n in l.canonical))
        picture = svg.render_svg(d)
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(picture)
        except OSError as exc:
            raise PreconditionError(f"cannot write {args.svg}: {exc}") from exc
    print(d.json_text)
    return 0


def _cmd_atf_move(args) -> int:
    # the slide's index text is read before the file, as argparse reads --transfer's
    index = args.transfer if args.slide is None else integer(args.slide[0])
    d = atf.AtfDiagram.from_json_obj(_load_json(args.diagram))
    count = len(d.frame.positions)
    if not 0 <= index < count:
        raise IndexError(f"node index {index} is out of range for {count} nodes")
    if args.slide is None:
        out = atf.transfer_cut(d, index)
    else:
        param = args.slide[1]
        # "n" or "n/d" in decimal digits, the forms each `to_json_obj` writes
        if not farey._RATIONAL.fullmatch(param):
            raise ValueError(f"not an integer or n/d: {param!r:.40}")
        n, _, m = param.partition("/")
        n, m = int(n), int(m or 1)
        if m == 0:
            raise ValueError(f"slide parameter {param} has denominator 0")
        out = atf.nodal_slide(d, index, n, m)
    _printable("the diagram", _diagram_integers(out))
    print(out.json_text)
    return 0


def _cmd_verify_all(args) -> int:
    results = verify.run_all(_check_depth(args.depth))
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status} {r.number} - {r.description} ({r.detail})")
    ok = all(r.passed for r in results)
    print("all criteria passed" if ok else "some criteria FAILED")
    return 0 if ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="lenscalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_markov = sub.add_parser("markov", help="Markov triples and q-triples")
    markov_sub = p_markov.add_subparsers(dest="subcommand", required=True)
    p = markov_sub.add_parser("tree", help="enumerate the Markov tree")
    p.add_argument("--depth", type=integer, default=4)
    p.set_defaults(func=_cmd_markov_tree)
    p = markov_sub.add_parser("derive-q", help="companion surgery coefficients")
    p.add_argument("p1", type=integer)
    p.add_argument("p2", type=integer)
    p.add_argument("p3", type=integer)
    p.set_defaults(func=_cmd_markov_derive_q)
    p = markov_sub.add_parser("verify", help="sweep the q-triple conditions")
    p.add_argument("--depth", type=integer, default=8)
    p.set_defaults(func=_cmd_markov_verify)

    p_farey = sub.add_parser("farey", help="Farey paths and classification")
    farey_sub = p_farey.add_subparsers(dest="subcommand", required=True)
    p = farey_sub.add_parser(
        "path",
        help="minimal clockwise path between slopes",
        description="Print the minimal clockwise Farey path from SRC to DST. "
        f"A path of more than {PATH_CAP} vertices is an error.",
    )
    p.add_argument("src")
    p.add_argument("dst")
    p.set_defaults(func=_cmd_farey_path)
    p = farey_sub.add_parser("classify", help="classify a decorated path file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_farey_classify)

    p_lens = sub.add_parser("lens", help="lens-space surgery")
    lens_sub = p_lens.add_subparsers(dest="subcommand", required=True)
    p = lens_sub.add_parser("surgery", help="torus-framed surgery splitting")
    p.add_argument("--knot", type=integer, nargs=2, required=True, metavar=("P", "Q"))
    p.add_argument("--ambient", type=integer, nargs=2, required=True, metavar=("R", "S"))
    p.set_defaults(func=_cmd_lens_surgery)

    p_handle = sub.add_parser("handle", help="horizontal handle diagrams")
    handle_sub = p_handle.add_subparsers(dest="subcommand", required=True)
    p = handle_sub.add_parser("build-x", help="three-curve diagram for a triple")
    p.add_argument("p1", type=integer)
    p.add_argument("p2", type=integer)
    p.add_argument("p3", type=integer)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_handle_build_x)
    p = handle_sub.add_parser("recognize", help="CP^2 recognition test")
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_handle_recognize)
    p = handle_sub.add_parser("mutate", help="mutation handle slide")
    p.add_argument("diagram")
    p.add_argument("--slot", choices=["first", "second"], required=True)
    p.set_defaults(func=_cmd_handle_mutate)

    p_atf = sub.add_parser("atf", help="almost toric base diagrams")
    atf_sub = p_atf.add_subparsers(dest="subcommand", required=True)
    p = atf_sub.add_parser("build", help="diagram for a Markov triple")
    p.add_argument("p1", type=integer)
    p.add_argument("p2", type=integer)
    p.add_argument("p3", type=integer)
    p.add_argument("--svg", metavar="OUT")
    p.set_defaults(func=_cmd_atf_build)
    p = atf_sub.add_parser("move", help="apply a transfer or a slide")
    p.add_argument("diagram")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--transfer", type=integer, metavar="N")
    group.add_argument(
        "--slide",
        nargs=2,
        metavar=("N", "X/Y"),
        help="slide node N so its cut length scales by the rational X/Y",
    )
    p.set_defaults(func=_cmd_atf_move)

    p_verify = sub.add_parser("verify", help="acceptance sweeps")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("all", help="run the full acceptance sweep")
    p.add_argument("--depth", type=integer, default=8)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except LenscalcError as exc:
        _emit_error(exc.code, str(exc))
        return 2
    except (ValueError, IndexError) as exc:
        _emit_error("bad-input", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
