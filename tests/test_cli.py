import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atf_reference import rational_diagram
from lenscalc import atf, cli, lens, markov, verify
from lenscalc.atf import AtfDiagram, affinely_equivalent, atf_for_markov
from lenscalc.errors import (
    InvariantError,
    LenscalcError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from lenscalc.farey import DecoratedPath
from lenscalc.handles import build_X
from lenscalc.markov import MarkovTriple, derive_q, enumerate_tree, replay
from lenscalc.svg import render_svg


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMarkovCommands:
    def test_tree(self, capsys):
        code, out, _ = run(capsys, "markov", "tree", "--depth", "2")
        assert code == 0
        rows = json.loads(out)
        assert rows[0] == {"p": [1, 1, 1], "word": ""}
        assert {"p": [1, 2, 5], "word": "LL"} in rows

    def test_derive_q(self, capsys):
        code, out, _ = run(capsys, "markov", "derive-q", "1", "1", "1")
        assert code == 0
        assert json.loads(out) == {"p": [1, 1, 1], "q": [0, 3, 3], "bezout": [1, 0]}

    def test_derive_q_bad_triple(self, capsys):
        code, _, err = run(capsys, "markov", "derive-q", "2", "3", "5")
        assert code == 2
        assert json.loads(err)["error"] == "invariant-violated"

    def test_verify_sweep(self, capsys):
        code, out, _ = run(capsys, "markov", "verify", "--depth", "4")
        assert code == 0
        assert out == (
            '{"depth":4,"triples":9,"conditions":{"1":true,"2":true,'
            '"3_some":true,"3_all":false,"4":true},"pass":true}\n'
        )

    def test_verify_sweep_failure_matches_criterion_1(self, capsys, monkeypatch):
        real = markov.verify_q

        def broken(t, q):
            rep = real(t, q)
            return replace(rep, cond2=False) if t.entries() == (1, 2, 5) else rep

        monkeypatch.setattr(markov, "verify_q", broken)
        code, out, _ = run(capsys, "markov", "verify", "--depth", "4")
        assert code == 1
        obj = json.loads(out)
        assert obj["conditions"]["2"] is False and obj["pass"] is False
        [result] = verify.run([1], 4)
        assert not result.passed
        assert result.detail == "9 triples checked; failures: ['(1,2,5)']"

    def test_depth_cap(self, capsys):
        code, _, err = run(capsys, "markov", "tree", "--depth", "99")
        assert code == 2
        assert json.loads(err)["error"] == "precondition-failed"


def _fastest_branch(depth):
    t = MarkovTriple(1, 1, 1)
    for _ in range(depth):
        t = markov.mutate(t, markov.Mutation.LEFT)
    return [str(p) for p in t.entries()]


@pytest.fixture
def digit_limit():
    """Set Python's int-to-str digit limit for one test, 0 for none."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


class TestOutputDigitLimit:
    """The depth-18 triple of the fastest branch has entries of up to 2631
    digits, which the CLI reads, but its q3 has more than 4300 digits, which
    `str` does not write by default."""

    @pytest.mark.parametrize(
        "command", [["markov", "derive-q"], ["handle", "build-x"], ["handle", "build-x", "--json"]]
    )
    def test_q_past_the_limit_is_a_typed_error(self, capsys, digit_limit, command):
        digit_limit(4300)
        code, out, err = run(capsys, *command, *_fastest_branch(18))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "precondition-failed",
            "message": "the q-triple has an integer of more than 4300 digits, "
            "the output digit limit of int-to-str conversion",
        }

    def test_atf_build_fits(self, capsys, digit_limit):
        digit_limit(4300)
        code, out, err = run(capsys, "atf", "build", *_fastest_branch(18))
        assert (code, err) == (0, "")
        assert len(json.loads(out)["nodes"]) == 3

    def test_no_limit_prints_the_q_triple(self, capsys, digit_limit):
        digit_limit(0)
        p = _fastest_branch(18)
        code, out, err = run(capsys, "markov", "derive-q", *p)
        assert (code, err) == (0, "")
        q = derive_q(MarkovTriple(*map(int, p)))
        assert json.loads(out)["q"] == list(q.entries())



def _slowest_branch(depth):
    t = MarkovTriple(1, 1, 1)
    for _ in range(depth):
        t = markov.mutate(t, markov.Mutation.RIGHT)
    return t


def _digit_error(what):
    return {
        "error": "precondition-failed",
        "message": f"{what} has an integer of more than 640 digits, "
        "the output digit limit of int-to-str conversion",
    }


class TestPrintedIntegersPastTheLimit:
    """With the limit at 640, the least Python allows, each command that
    prints integers its input does not bound ends in a typed error naming
    the output digit limit, where it used to end in `bad-input` with
    Python's int-to-str message.  On the slowest branch, the depth-1530 and
    depth-1531 triples both have a 640-digit p3; the second's diagram has a
    641-digit coordinate."""

    @pytest.mark.parametrize("svg", [False, True], ids=["json", "svg"])
    def test_atf_build_past_the_limit(self, capsys, digit_limit, tmp_path, svg):
        digit_limit(640)
        picture = tmp_path / "picture.svg"
        argv = ["atf", "build", *map(str, _slowest_branch(1531).entries())]
        code, out, err = run(capsys, *argv, *(["--svg", str(picture)] if svg else []))
        assert (code, out) == (2, "")
        assert json.loads(err) == _digit_error("the diagram")
        assert not picture.exists()

    def test_atf_build_at_the_limit(self, capsys, digit_limit):
        digit_limit(640)
        t = _slowest_branch(1530)
        assert len(str(t.p3)) == 640
        code, out, err = run(capsys, "atf", "build", *map(str, t.entries()))
        assert (code, err) == (0, "")
        assert AtfDiagram.from_json_obj(json.loads(out)) == atf_for_markov(t)

    def test_svg_readout_labels_past_the_limit(self, capsys, digit_limit, tmp_path):
        # the corner orders p_i^2 are the labels, and p3^2 has 1279 digits
        digit_limit(640)
        picture = tmp_path / "picture.svg"
        argv = ["atf", "build", *map(str, _slowest_branch(1530).entries())]
        code, out, err = run(capsys, *argv, "--svg", str(picture))
        assert (code, out) == (2, "")
        assert json.loads(err) == _digit_error("a lens readout")
        assert not picture.exists()

    def test_atf_move_past_the_limit(self, capsys, digit_limit, tmp_path):
        # a diagram of 327-digit integers: a transfer of its second cut
        # keeps them, one of its first cut gives 652 digits
        digit_limit(640)
        f = tmp_path / "d.json"
        f.write_text(json.dumps(atf_for_markov(_slowest_branch(780)).to_json_obj()))
        code, out, err = run(capsys, "atf", "move", str(f), "--transfer", "1")
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "atf", "move", str(f), "--transfer", "0")
        assert (code, out) == (2, "")
        assert json.loads(err) == _digit_error("the diagram")

    def test_lens_surgery_past_the_limit(self, capsys, digit_limit):
        # the summand orders are 400 and 800 digits long
        digit_limit(640)
        n = int("7" * 400)
        argv = ["--knot", str(n), str(-(2 * n + 1)), "--ambient", str(n), "1"]
        code, out, err = run(capsys, "lens", "surgery", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == _digit_error("the splitting")

    @pytest.mark.parametrize(
        "command, what",
        [(["recognize"], "x"), (["mutate", "--slot", "first"], "the diagram")],
        ids=["recognize", "mutate"],
    )
    def test_handle_diagram_past_the_limit(self, capsys, digit_limit, tmp_path, command, what):
        # x1 = n^2 - 1 has 800 digits; the slide moves a curve to 1200
        digit_limit(640)
        n = str(int("7" * 400))
        curves = [(n, "1"), ("1", n), ("1", "0")]
        doc = {"curves": [{"mu": mu, "lambda": lam, "framing": -1} for mu, lam in curves]}
        f = tmp_path / "d.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "handle", command[0], str(f), *command[1:])
        assert (code, out) == (2, "")
        assert json.loads(err) == _digit_error(what)


class TestFareyCommands:
    def test_path(self, capsys):
        code, out, _ = run(capsys, "farey", "path", "-8/5", "0")
        assert code == 0
        assert json.loads(out) == {
            "slopes": [["-8", "5"], ["-3", "2"], ["-1", "1"], ["0", "1"]]
        }

    def test_path_over_the_cap(self, capsys):
        # counted, not built: the error comes at once
        start = time.perf_counter()
        code, out, err = run(capsys, "farey", "path", "-1000000000000", "0")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "precondition-failed",
            "message": "the minimal path has 1000000000001 vertices, more than the cap of 200000",
        }

    def test_path_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PATH_CAP", 10)
        code, out, _ = run(capsys, "farey", "path", "-9", "0")
        assert code == 0
        assert len(json.loads(out)["slopes"]) == 10
        code, out, err = run(capsys, "farey", "path", "-10", "0")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "precondition-failed"

    def test_classify_file(self, capsys, tmp_path):
        doc = {
            "slopes": [["-3", "1"], ["-2", "1"], ["-1", "1"], ["0", "1"]],
            "signs": ["o", "+", "o"],
        }
        f = tmp_path / "path.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "farey", "classify", str(f))
        assert code == 0
        assert json.loads(out) == {"classification": "UniversallyTight"}

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "farey", "classify", "/nonexistent.json")
        assert code == 2
        assert json.loads(err)["error"] == "precondition-failed"

    def test_deeply_nested_file(self, capsys, tmp_path):
        f = tmp_path / "nested.json"
        f.write_text("[" * 100_000)
        code, out, err = run(capsys, "farey", "classify", str(f))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "precondition-failed"


# JSON-like values for the decorated-path loader: wrong types, huge integers
# (also as digit strings), the non-finite floats that Python's json reads and
# writes, and entries small enough that some draws form real Farey paths.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**300), 2**300),
    st.integers(-(2**300), 2**300).map(str),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)
# "1e999999999" would make `Fraction` compute a power of ten with a billion
# digits, were it not rejected first
ENTRIES = st.one_of(
    st.integers(-4, 4), st.integers(-4, 4).map(str), st.just("1e999999999"), SCALARS
)
SIGNS = st.one_of(st.sampled_from(["o", "+", "-", "∘", "x", "", "++"]), JSON_VALUES)


@st.composite
def integer_paths(draw):
    """Consecutive integers k, k + 1, ... (a real Farey path) with drawn
    signs, or one of its entries replaced."""
    k = draw(st.integers(-5, 5))
    slopes = [[str(k + i), "1"] for i in range(draw(st.integers(0, 5)))]
    signs = draw(st.lists(st.sampled_from(["o", "+", "-"]), max_size=5))
    if slopes and draw(st.booleans()):
        slopes[draw(st.integers(0, len(slopes) - 1))] = draw(st.lists(ENTRIES, max_size=3))
    return {"slopes": slopes, "signs": signs}


DECORATED_OBJS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {
            "slopes": st.lists(st.tuples(ENTRIES, ENTRIES).map(list) | JSON_VALUES, max_size=5),
            "signs": st.lists(SIGNS, max_size=5),
        }
    ),
    integer_paths(),
)
INF_ENTRY = {"slopes": [[float("inf"), 1], ["0", "1"]], "signs": ["o"]}
ZERO_ZERO = {"slopes": [["0", "0"], ["0", "1"]], "signs": ["o"]}


class TestDecoratedPathLoaderFuzz:
    @given(DECORATED_OBJS)
    @example(INF_ENTRY)
    @example(ZERO_ZERO)
    @settings(max_examples=300, deadline=None)
    def test_from_json_obj_returns_a_path_or_a_typed_error(self, obj):
        try:
            p = DecoratedPath.from_json_obj(obj)
        except LenscalcError:
            return
        assert isinstance(p, DecoratedPath)
        assert DecoratedPath.from_json_obj(p.to_json_obj()) == p

    @given(DECORATED_OBJS)
    @example(INF_ENTRY)
    @example(ZERO_ZERO)
    @settings(max_examples=150, deadline=None)
    def test_classify_file_ends_in_json(self, obj):
        ends_in_json(["farey", "classify"], obj, "classification")


def ends_in_json(argv, obj, key):
    """Run the command on obj written as a JSON file: it exits 0 or 1 with
    JSON holding key on stdout, or 2 with an error object on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*argv[:2], path, *argv[2:]])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert set(json.loads(err.getvalue())) == {"error", "message"}
    else:
        assert err.getvalue() == ""
        assert key in json.loads(out.getvalue())


@st.composite
def damaged(draw, doc):
    """A JSON value drawn whole, or a copy of doc with one leaf or member
    replaced by a drawn entry, or with one member deleted."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return doc
    if isinstance(parent, dict) and draw(st.integers(0, 5)) == 0:
        del parent[key]
    else:
        parent[key] = draw(ENTRIES)
    return doc


HANDLE_DOC = build_X(MarkovTriple(1, 2, 5), derive_q(MarkovTriple(1, 2, 5))).to_json_obj()
ATF_DOC = atf_for_markov(MarkovTriple(1, 1, 2)).to_json_obj()
ATF_ROOT_DOC = atf_for_markov(MarkovTriple(1, 1, 1)).to_json_obj()
# the first vertex moved off node 0's cut end, so node 0 fails its check
ATF_BAD_END_DOC = {**ATF_ROOT_DOC, "vertices": [["1/1", "1/1"]] + ATF_ROOT_DOC["vertices"][1:]}
INF_MU = {
    **HANDLE_DOC,
    "curves": [{**HANDLE_DOC["curves"][0], "mu": float("inf")}] + HANDLE_DOC["curves"][1:],
}
INF_VERTEX = {**ATF_DOC, "vertices": [[float("inf"), "1/1"]] + ATF_DOC["vertices"][1:]}
EXPONENT_VERTEX = {**ATF_ROOT_DOC, "vertices": [["1e999999999", "0/1"]] + ATF_ROOT_DOC["vertices"][1:]}
INF_EIGEN = {
    **ATF_DOC,
    "nodes": [{**ATF_DOC["nodes"][0], "eigenvector": [float("inf"), "1"]}] + ATF_DOC["nodes"][1:],
}


class TestDiagramLoaderFuzz:
    @given(
        damaged(HANDLE_DOC),
        st.sampled_from(
            [
                (["handle", "recognize"], "cp2"),
                (["handle", "mutate", "--slot", "first"], "curves"),
                (["handle", "mutate", "--slot", "second"], "curves"),
            ]
        ),
    )
    @example(INF_MU, (["handle", "recognize"], "cp2"))
    @settings(max_examples=150, deadline=None)
    def test_handle_commands_end_in_json(self, obj, command):
        argv, key = command
        ends_in_json(argv, obj, key)

    @given(damaged(ATF_DOC), st.sampled_from([["--transfer", "0"], ["--slide", "0", "1/2"]]))
    @example(INF_VERTEX, ["--transfer", "0"])
    @example(INF_EIGEN, ["--transfer", "0"])
    @example(EXPONENT_VERTEX, ["--transfer", "0"])
    @settings(max_examples=150, deadline=None)
    def test_atf_move_ends_in_json(self, obj, move):
        ends_in_json(["atf", "move", *move], obj, "vertices")


class TestIntegerFields:
    """Integer fields read only ints and decimal strings, and rational
    coordinates only ints and "n" or "n/d" strings: a float or a boolean is
    an error, not a truncation, and a decimal point or an exponent is an
    error too."""

    def check_rejected(self, capsys, tmp_path, argv, doc):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv[:2], str(f), *argv[2:])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "invariant-violated"

    def test_float_and_bool_slope_entries(self, capsys, tmp_path):
        doc = {"slopes": [[-2.9, 1], [-1.5, 1], [True, False]], "signs": ["o", "o"]}
        self.check_rejected(capsys, tmp_path, ["farey", "classify"], doc)

    def test_float_mu(self, capsys, tmp_path):
        curves = [{**HANDLE_DOC["curves"][0], "mu": -1.9}] + HANDLE_DOC["curves"][1:]
        self.check_rejected(capsys, tmp_path, ["handle", "recognize"], {**HANDLE_DOC, "curves": curves})

    def test_bool_framing_and_handle_count(self, capsys, tmp_path):
        curves = [{**HANDLE_DOC["curves"][0], "framing": True}] + HANDLE_DOC["curves"][1:]
        self.check_rejected(capsys, tmp_path, ["handle", "recognize"], {**HANDLE_DOC, "curves": curves})
        doc = {**HANDLE_DOC, "handles": {**HANDLE_DOC["handles"], "h3": 1.0}}
        self.check_rejected(capsys, tmp_path, ["handle", "mutate", "--slot", "first"], doc)

    def test_float_eigenvector(self, capsys, tmp_path):
        a, b = ATF_DOC["nodes"][0]["eigenvector"]
        nodes = [{**ATF_DOC["nodes"][0], "eigenvector": [float(a), b]}] + ATF_DOC["nodes"][1:]
        self.check_rejected(capsys, tmp_path, ["atf", "move", "--transfer", "0"], {**ATF_DOC, "nodes": nodes})

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["handle", "recognize"], INF_MU),
            (["atf", "move", "--transfer", "0"], INF_VERTEX),
            (["atf", "move", "--transfer", "0"], INF_EIGEN),
        ],
        ids=["mu", "vertex", "eigenvector"],
    )
    def test_infinity(self, capsys, tmp_path, argv, doc):
        self.check_rejected(capsys, tmp_path, argv, doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vertex", [False, 0.0]),
            ("vertex", [0.0, "0/1"]),
            ("vertex", ["0/1", True]),
            ("vertex", ["1/0", "0/1"]),
            ("vertex", [None, "0/1"]),
            ("position", [0.75, "3/4"]),
            ("position", ["3/4", "three quarters"]),
            ("cut_end", ["0/1", False]),
            ("cut_end", [0.0, 0]),
            ("vertex", ["1e999999999", "0/1"]),
            ("vertex", ["1.5", "0/1"]),
            ("position", ["3/4", " 3/4"]),
            ("cut_end", ["+0", "0/1"]),
            ("cut_end", ["0/1", "1/-1"]),
        ],
    )
    def test_float_and_bool_coordinates(self, capsys, tmp_path, field, value):
        doc = json.loads(json.dumps(ATF_ROOT_DOC))
        if field == "vertex":
            doc["vertices"][0] = value
        else:
            doc["nodes"][0][field] = value
        for move in (["--transfer", "0"], ["--transfer", "1"], ["--slide", "1", "1/2"]):
            self.check_rejected(capsys, tmp_path, ["atf", "move", *move], doc)


class TestDecimalArguments:
    """Integers and slopes on the command line are read as the JSON readers
    read them, in ASCII decimal digits; int() would read "1_0" as 10, " 3"
    as 3 and the Arabic-Indic digit "٣" as 3."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["farey", "path", "1_0", "0"], "bad-input"),
            (["farey", "path", "٣", "0"], "bad-input"),
            (["farey", "path", "-8/5", " 0"], "bad-input"),
            (["farey", "path", "+1", "0"], "bad-input"),
            (["farey", "path", "3/-2", "0"], "bad-input"),
            (["farey", "path", "1/٢", "0"], "bad-input"),
            (["markov", "derive-q", "1", "1", "٢"], "usage"),
            (["markov", "derive-q", "1", "1", "0_2"], "usage"),
            (["markov", "tree", "--depth", " 2"], "usage"),
            (["markov", "verify", "--depth", "+2"], "usage"),
            (["lens", "surgery", "--knot", "5", "-8", "--ambient", "3", "1_0"], "usage"),
            (["handle", "build-x", "1", "2", "٥"], "usage"),
            (["atf", "build", "1", "1", "1_0"], "usage"),
            (["verify", "all", "--depth", "٠"], "usage"),
            (["atf", "move", "@atf", "--transfer", "0_0"], "usage"),
            (["atf", "move", "@atf", "--slide", "0_0", "1/2"], "bad-input"),
            (["atf", "move", "@atf", "--slide", "٠", "1/2"], "bad-input"),
        ],
    )
    def test_non_decimal_argument_is_an_error(self, capsys, tmp_path, argv, error):
        f = tmp_path / "diagram.json"
        f.write_text(json.dumps(atf_for_markov(MarkovTriple(1, 1, 1)).to_json_obj()))
        argv = [str(f) if a == "@atf" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["farey", "path", "inf", "1"], [["1", "0"], ["1", "1"]]),
            (["farey", "path", "-1/0", "1"], [["1", "0"], ["1", "1"]]),
            (["farey", "path", "-08/05", "0"], [["-8", "5"], ["-3", "2"], ["-1", "1"], ["0", "1"]]),
        ],
    )
    def test_decimal_slopes(self, capsys, argv, want):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {"slopes": want}

    @pytest.mark.parametrize("argv", [["1", "-inf"], ["-inf", "1"], ["-inf", "-3/2"]])
    def test_minus_inf_is_a_slope_argument(self, capsys, argv):
        code, out, err = run(capsys, "farey", "path", *argv)
        assert (code, err) == (0, "")
        plain = ["inf" if a == "-inf" else a for a in argv]
        assert run(capsys, "farey", "path", *plain) == (0, out, "")


# Argv for every subcommand, each value in range or not: depths (in range
# only up to 3, so the sweeps stay cheap), integers up to 2^256 and past
# int()'s 4300-digit limit, non-integers, 0/0, equal endpoints, node
# indices and slide parameters.  A file argument is a "@name" the test
# replaces by a path it writes.  `farey path` from a huge negative integer
# to 0, or from 0 to a huge positive one, has about that many vertices, more
# than `cli.PATH_CAP`: it must be rejected before the path is built.
HUGE = st.one_of(st.integers(-(2**256), 2**256).map(str), st.just("9" * 5000))
NOT_INTS = st.sampled_from(["", "x", "1.5", "1/2", "1e3", "0x10", "inf", "nan", "--"])
INTS = st.one_of(st.integers(-12, 40).map(str), HUGE, NOT_INTS)
# HUGE draws small integers too; a depth in 0..16 is not bad
BAD_DEPTHS = st.one_of(
    st.integers(-9, -1).map(str),
    st.integers(17, 2**64).map(str),
    HUGE.filter(lambda s: s not in {str(d) for d in range(17)}),
    NOT_INTS,
)
DEPTHS = st.one_of(st.integers(0, 3).map(str), BAD_DEPTHS)
TRIPLES = st.one_of(
    st.sampled_from([t.entries() for t, _ in enumerate_tree(3)])
    .flatmap(st.permutations)
    .map(lambda t: [str(p) for p in t]),
    st.lists(INTS, min_size=3, max_size=3),
)
SLOPE_TEXTS = st.one_of(
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(-30, 30)),
    st.integers(-30, 30).map(str),
    st.sampled_from(["0/0", "5/0", "inf", "-inf", "1/0", "x", "", "1/2/3", "/", "9" * 5000]),
)
FAREY_ENDPOINTS = st.one_of(
    st.tuples(SLOPE_TEXTS, SLOPE_TEXTS),
    st.one_of(SLOPE_TEXTS, HUGE).map(lambda s: (s, s)),
    # a positive integer is Farey-adjacent to inf, so this path stays short
    st.tuples(st.integers(2**64, 2**256).map(str), SLOPE_TEXTS),
    st.tuples(st.integers(-(2**256), -(10**6)).map(str), st.just("0")),
    st.tuples(st.just("0"), st.integers(10**6, 2**256).map(str)),
)
INDICES = st.one_of(st.integers(-4, 4).map(str), HUGE, NOT_INTS)
SLIDE_PARAMS = st.one_of(
    st.builds("{}/{}".format, st.integers(-4, 4), st.integers(-4, 4)),
    st.sampled_from(
        ["0/0", "1/0", "1/2", "0", "-1", "2", "x", "", "1.5", "nan", "inf", "1e999999999"]
    ),
    HUGE,
)
FILES = st.sampled_from(
    ["@path", "@handle", "@atf", "@atf-bad-end", "@atf-exponent", "@missing", "@dir", "@garbage"]
)
SVG_TARGETS = st.sampled_from([[], ["--svg", "@out.svg"], ["--svg", "@dir"], ["--svg", "@missing"]])
ARGVS = st.one_of(
    DEPTHS.map(lambda d: ["markov", "tree", "--depth", d]),
    TRIPLES.map(lambda t: ["markov", "derive-q", *t]),
    DEPTHS.map(lambda d: ["markov", "verify", "--depth", d]),
    FAREY_ENDPOINTS.map(lambda e: ["farey", "path", *e]),
    FILES.map(lambda f: ["farey", "classify", f]),
    st.one_of(
        st.lists(st.integers(-12, 12).map(str), min_size=4, max_size=4),
        st.lists(INTS, min_size=4, max_size=4),
    ).map(lambda v: ["lens", "surgery", "--knot", *v[:2], "--ambient", *v[2:]]),
    st.tuples(TRIPLES, st.sampled_from([[], ["--json"]])).map(
        lambda a: ["handle", "build-x", *a[0], *a[1]]
    ),
    FILES.map(lambda f: ["handle", "recognize", f]),
    st.tuples(FILES, st.sampled_from(["first", "second", "third", ""])).map(
        lambda a: ["handle", "mutate", a[0], "--slot", a[1]]
    ),
    st.tuples(TRIPLES, SVG_TARGETS).map(lambda a: ["atf", "build", *a[0], *a[1]]),
    st.tuples(FILES, INDICES).map(lambda a: ["atf", "move", a[0], "--transfer", a[1]]),
    st.tuples(FILES, INDICES, SLIDE_PARAMS).map(
        lambda a: ["atf", "move", a[0], "--slide", a[1], a[2]]
    ),
    BAD_DEPTHS.map(lambda d: ["verify", "all", "--depth", d]),
    st.sampled_from(
        [
            [],
            ["bogus"],
            ["markov"],
            ["verify"],
            ["farey", "path", "1"],
            ["lens", "surgery", "--knot", "1"],
            ["atf", "move", "@atf"],
            ["atf", "move", "@atf", "--transfer", "0", "--slide", "0", "1/2"],
        ]
    ),
)


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The files an argv's "@name" stands for."""
    root = tmp_path_factory.mktemp("argv")
    docs = {
        "@path": {"slopes": [["-2", "1"], ["-1", "1"], ["0", "1"]], "signs": ["o", "o"]},
        "@handle": HANDLE_DOC,
        "@atf": ATF_ROOT_DOC,
        "@atf-bad-end": ATF_BAD_END_DOC,
        "@atf-exponent": EXPONENT_VERTEX,
    }
    files = {"@dir": str(root), "@missing": str(root / "missing" / "x"), "@out.svg": str(root / "out.svg")}
    for name, doc in docs.items():
        files[name] = str(root / f"{name[1:]}.json")
        (root / f"{name[1:]}.json").write_text(json.dumps(doc))
    files["@garbage"] = str(root / "garbage.json")
    (root / "garbage.json").write_text("{not json")
    return files


class TestArgvFuzz:
    @given(ARGVS)
    # two knots with |p| = 1 and |q| > 1, which a reading by |p| would call trivial
    @example(["lens", "surgery", "--knot", "1", "-2", "--ambient", "7", "2"])  # exit 0
    @example(["lens", "surgery", "--knot", "1", "2", "--ambient", "5", "2"])  # exit 2
    @example(["atf", "move", "@atf-bad-end", "--transfer", "0"])
    @example(["atf", "move", "@atf", "--slide", "0", "1e999999999"])
    @example(["atf", "move", "@atf-exponent", "--slide", "0", "1/2"])
    @example(["farey", "path", "-1000000000000", "0"])  # over the vertex cap
    @settings(max_examples=300, deadline=None)
    def test_every_argv_ends_in_json(self, argv_files, argv):
        """Exit 0 or 1 with JSON on stdout (text for `handle build-x`
        without --json) and nothing on stderr, or 2 with nothing on stdout
        and one error object on stderr; nothing raises, not even a warning
        that escapes the CLI."""
        argv = [argv_files.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            [line] = err.getvalue().splitlines()
            assert set(json.loads(line)) == {"error", "message"}
            return
        assert err.getvalue() == ""
        if argv[:2] == ["handle", "build-x"] and "--json" not in argv:
            assert out.getvalue().startswith("diagram for ")
        else:
            json.loads(out.getvalue())


class TestLensCommands:
    def test_surgery_exact_output(self, capsys):
        code, out, _ = run(
            capsys, "lens", "surgery", "--knot", "5", "-8", "--ambient", "3", "1"
        )
        assert code == 0
        assert out == '[{"lens":[8,5]},{"lens":[7,3]}]\n'

    def test_surgery_on_a_knot_with_p_one(self, capsys):
        # |p| = 1 does not make a knot trivial: T_(1,-2) meets the meridian 0
        # twice and the ambient meridian -7/2 three times
        code, out, err = run(
            capsys, "lens", "surgery", "--knot", "1", "-2", "--ambient", "7", "2"
        )
        assert code == 0
        assert out == '[{"lens":[2,1]},{"lens":[3,2]}]\n'
        assert err == ""

    @pytest.mark.parametrize("ambient", [["0", "1"], ["0", "-1"]])
    def test_surgery_rejects_s1xs2_ambient(self, capsys, ambient):
        code, out, err = run(capsys, "lens", "surgery", "--knot", "5", "-8", "--ambient", *ambient)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "degenerate-input"

    def test_surgery_rejects_trivial_knot(self, capsys):
        code, _, err = run(
            capsys, "lens", "surgery", "--knot", "1", "1", "--ambient", "3", "1"
        )
        assert code == 2
        assert json.loads(err)["error"] == "precondition-failed"


class TestHandleCommands:
    def test_build_and_recognize(self, capsys, tmp_path):
        code, out, _ = run(capsys, "handle", "build-x", "1", "2", "5", "--json")
        assert code == 0
        f = tmp_path / "diagram.json"
        f.write_text(out)
        code, out, _ = run(capsys, "handle", "recognize", str(f))
        assert code == 0
        assert json.loads(out) == {"cp2": True, "x": [6, -87, -15]}

    def test_build_text_mode(self, capsys):
        code, out, _ = run(capsys, "handle", "build-x", "1", "1", "1")
        assert code == 0
        assert "gamma1" in out

    def test_mutate(self, capsys, tmp_path):
        code, out, _ = run(capsys, "handle", "build-x", "1", "1", "1", "--json")
        f = tmp_path / "diagram.json"
        f.write_text(out)
        code, out, _ = run(capsys, "handle", "mutate", str(f), "--slot", "first")
        assert code == 0
        moved = json.loads(out)["curves"][1]
        assert (moved["mu"], moved["lambda"]) == ("2", "9")


class TestAtfCommands:
    def test_build_with_svg(self, capsys, tmp_path):
        out_svg = tmp_path / "picture.svg"
        code, out, _ = run(capsys, "atf", "build", "1", "1", "2", "--svg", str(out_svg))
        assert code == 0
        d = AtfDiagram.from_json_obj(json.loads(out))
        assert len(d.nodes) == 3
        text = out_svg.read_text()
        assert text.startswith("<?xml")
        assert "<polygon" in text
        # the diagram is embedded in a metadata comment and parses back
        marker = "lenscalc:diagram "
        start = text.index(marker) + len(marker)
        end = text.index("-->", start)
        assert AtfDiagram.from_json_obj(json.loads(text[start:end].strip())) == d

    @pytest.mark.parametrize("target", ["missing/x.svg", "."], ids=["missing-dir", "a-dir"])
    def test_build_with_unwritable_svg(self, capsys, tmp_path, target):
        code, out, err = run(capsys, "atf", "build", "1", "1", "2", "--svg", str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "precondition-failed"

    def test_move_transfer(self, capsys, tmp_path):
        code, out, _ = run(capsys, "atf", "build", "1", "1", "1")
        f = tmp_path / "diagram.json"
        f.write_text(out)
        code, out, _ = run(capsys, "atf", "move", str(f), "--transfer", "0")
        assert code == 0
        d = AtfDiagram.from_json_obj(json.loads(out))
        assert len(d.nodes) == 3

    def test_move_transfer_of_an_inconsistent_node(self, capsys, tmp_path):
        f = tmp_path / "diagram.json"
        f.write_text(json.dumps(ATF_BAD_END_DOC))
        code, out, err = run(capsys, "atf", "move", str(f), "--transfer", "0")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "precondition-failed",
            "message": "node fails the consistency check",
        }

    def test_build_and_transfer_twice_at_depth_6(self, capsys, tmp_path):
        code, out, _ = run(capsys, "atf", "build", "433", "37666", "48928105")
        assert code == 0
        d = AtfDiagram.from_json_obj(json.loads(out))
        f = tmp_path / "diagram.json"
        f.write_text(out)
        code, out, _ = run(capsys, "atf", "move", str(f), "--transfer", "0")
        assert code == 0
        f.write_text(out)
        code, out, _ = run(capsys, "atf", "move", str(f), "--transfer", "0")
        assert code == 0
        assert affinely_equivalent(d, AtfDiagram.from_json_obj(json.loads(out)))

    def test_build_with_svg_at_depth_16(self, capsys, tmp_path):
        out_svg = tmp_path / "picture.svg"
        t = replay("LR" * 8)
        code, out, _ = run(capsys, "atf", "build", *map(str, t.entries()), "--svg", str(out_svg))
        assert code == 0
        text = out_svg.read_text()
        marker = "lenscalc:diagram "
        start = text.index(marker) + len(marker)
        end = text.index("-->", start)
        assert json.loads(text[start:end].strip()) == json.loads(out)

    def test_move_slide(self, capsys, tmp_path):
        code, out, _ = run(capsys, "atf", "build", "1", "1", "1")
        f = tmp_path / "diagram.json"
        f.write_text(out)
        code, out, _ = run(capsys, "atf", "move", str(f), "--slide", "0", "1/2")
        assert code == 0
        assert AtfDiagram.from_json_obj(json.loads(out)) is not None

    @pytest.mark.parametrize(
        "move",
        [
            ["--slide", "0", "1/0"],
            ["--slide", "0", "0/0"],
            ["--slide", "-1", "1/2"],
            ["--slide", "3", "1/2"],
            ["--transfer", "-1"],
            ["--transfer", "3"],
            ["--slide", "0", "1.5"],
            ["--slide", "0", "1e999999999"],
        ],
    )
    def test_move_bad_input(self, capsys, tmp_path, move):
        code, out, _ = run(capsys, "atf", "build", "1", "1", "1")
        f = tmp_path / "diagram.json"
        f.write_text(out)
        code, out, err = run(capsys, "atf", "move", str(f), *move)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "bad-input"


class TestVerifyCommand:
    def test_shallow_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--depth", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "all criteria passed"
        assert sum(1 for l in lines if l.startswith("ok ")) == 9
        assert lines == [
            "ok 1 - q-triple derivation conditions, tree depth 3 (5 triples checked)",
            "ok 2 - CP^2 recognition sweep, tree depth 3 (5 diagrams checked)",
            "ok 3 - two-curve boundary identity, tree depth 3 (5 boundaries checked)",
            "ok 4 - torus-framed surgery splitting, tree depth 3 (5 splittings checked)",
            "ok 5 - decorated-path classifications of the figure paths (3 paths classified)",
            "ok 6 - mutation handle slide identities, tree depth 3 (5 triples checked)",
            "ok 7 - minimal_path vs BFS oracle, denominators <= 20 (32896 pairs checked)",
            "ok 8 - almost toric pipeline, tree depth 3 (5 diagrams generated)",
            "ok 9 - one-curve boundary cross-check, p <= 30 (278 pairs checked)",
            "all criteria passed",
        ]

    def test_typed_error_in_a_triple_check_fails_that_criterion(self, capsys, monkeypatch):
        # criterion 8 transfers a cut at the root; a typed error there is a
        # failure of criterion 8 naming the triple, and every line prints
        def refuse(d, i):
            raise UnsupportedConfigurationError("no transfer here")

        monkeypatch.setattr(atf, "transfer_cut", refuse)
        code, out, err = run(capsys, "verify", "all", "--depth", "2")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [l.split(" - ")[0] for l in lines[:-1]] == [
            "ok 1", "ok 2", "ok 3", "ok 4", "ok 5", "ok 6", "ok 7", "FAIL 8", "ok 9"
        ]
        assert lines[7] == (
            "FAIL 8 - almost toric pipeline, tree depth 2 (3 diagrams generated; "
            "failures: ['(1,1,1): unsupported-configuration: no transfer here'])"
        )
        assert lines[-1] == "some criteria FAILED"

    def test_typed_error_in_a_whole_check_fails_that_criterion(self, capsys, monkeypatch):
        # criterion 9 runs whole; a typed error in it is a failure of its
        # row, named by its check, and every other line prints
        def boom(p, q):
            raise InvariantError("boom")

        monkeypatch.setattr(lens, "boundary_Bpq", boom)
        code, out, err = run(capsys, "verify", "all", "--depth", "0")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [l.split(" - ")[0] for l in lines[:8]] == [f"ok {n}" for n in range(1, 9)]
        assert lines[8:] == [
            "FAIL 9 - crit9_boundary_cross_check (invariant-violated: boom)",
            "some criteria FAILED",
        ]

    def test_full_sweep_golden(self, capsys):
        # the ten lines of `verify all --depth 8`, byte for byte
        code, out, err = run(capsys, "verify", "all", "--depth", "8")
        assert (code, err) == (0, "")
        assert out == (
            "ok 1 - q-triple derivation conditions, tree depth 8 (129 triples checked)\n"
            "ok 2 - CP^2 recognition sweep, tree depth 8 (129 diagrams checked)\n"
            "ok 3 - two-curve boundary identity, tree depth 8 (129 boundaries checked)\n"
            "ok 4 - torus-framed surgery splitting, tree depth 8 (129 splittings checked)\n"
            "ok 5 - decorated-path classifications of the figure paths (3 paths classified)\n"
            "ok 6 - mutation handle slide identities, tree depth 8 (129 triples checked)\n"
            "ok 7 - minimal_path vs BFS oracle, denominators <= 20 (32896 pairs checked)\n"
            "ok 8 - almost toric pipeline, tree depth 8 (129 diagrams generated)\n"
            "ok 9 - one-curve boundary cross-check, p <= 30 (278 pairs checked)\n"
            "all criteria passed\n"
        )


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestReadmeExamples:
    """The exact stdout of the README's CLI examples; the ATF JSON and SVG
    by their sha256 digests."""

    def test_markov(self, capsys):
        assert run(capsys, "markov", "tree", "--depth", "4") == (
            0,
            '[{"p":[1,1,1],"word":""},{"p":[1,1,2],"word":"L"},{"p":[1,2,5],"word":"LL"},'
            '{"p":[2,5,29],"word":"LLL"},{"p":[1,5,13],"word":"LLR"},'
            '{"p":[5,29,433],"word":"LLLL"},{"p":[2,29,169],"word":"LLLR"},'
            '{"p":[5,13,194],"word":"LLRL"},{"p":[1,13,34],"word":"LLRR"}]\n',
            "",
        )
        assert run(capsys, "markov", "derive-q", "2", "5", "29") == (
            0,
            '{"p":[2,5,29],"q":[-87,261,-1254],"bezout":[3,-1]}\n',
            "",
        )
        assert run(capsys, "markov", "verify", "--depth", "8") == (
            0,
            '{"depth":8,"triples":129,"conditions":{"1":true,"2":true,"3_some":true,'
            '"3_all":false,"4":true},"pass":true}\n',
            "",
        )

    def test_farey(self, capsys, tmp_path):
        assert run(capsys, "farey", "path", "-8/5", "0") == (
            0,
            '{"slopes":[["-8","5"],["-3","2"],["-1","1"],["0","1"]]}\n',
            "",
        )
        f = tmp_path / "path.json"
        f.write_text(
            '{"slopes": [["-8", "5"], ["-3", "2"], ["-1", "1"], ["0", "1"]], '
            '"signs": ["o", "+", "o"]}'
        )
        assert run(capsys, "farey", "classify", str(f)) == (
            0,
            '{"classification":"UniversallyTight"}\n',
            "",
        )

    def test_lens(self, capsys):
        assert run(capsys, "lens", "surgery", "--knot", "5", "-8", "--ambient", "3", "1") == (
            0,
            '[{"lens":[8,5]},{"lens":[7,3]}]\n',
            "",
        )

    def test_handle(self, capsys, tmp_path):
        built = (
            '{"curves":[{"mu":"-2","lambda":"15","framing":-1},'
            '{"mu":"1","lambda":"0","framing":-1},{"mu":"5","lambda":"6","framing":-1}],'
            '"handles":{"h0":1,"h1":1,"h3":1,"h4":1}}\n'
        )
        assert run(capsys, "handle", "build-x", "1", "2", "5", "--json") == (0, built, "")
        assert run(capsys, "handle", "build-x", "1", "2", "5") == (
            0,
            "diagram for (1,2,5) with q=(0, 15, 6)\n"
            "  gamma1: -2*mu + 15*lambda (framing -1)\n"
            "  gamma2: 1*mu + 0*lambda (framing -1)\n"
            "  gamma3: 5*mu + 6*lambda (framing -1)\n"
            "  handles: one 0-, one 1-, 3 2-, 1 3-, 1 4-handles\n",
            "",
        )
        f = tmp_path / "diagram.json"
        f.write_text(built)
        assert run(capsys, "handle", "recognize", str(f)) == (0, '{"cp2":true,"x":[6,-87,-15]}\n', "")
        assert run(capsys, "handle", "mutate", str(f), "--slot", "first") == (
            0,
            '{"curves":[{"mu":"-2","lambda":"-15","framing":-1},'
            '{"mu":"29","lambda":"225","framing":-1},{"mu":"5","lambda":"6","framing":-1}],'
            '"handles":{"h0":1,"h1":1,"h3":1,"h4":1}}\n',
            "",
        )
        assert run(capsys, "handle", "mutate", str(f), "--slot", "second") == (
            0,
            '{"curves":[{"mu":"-1","lambda":"0","framing":-1},'
            '{"mu":"13","lambda":"15","framing":-1},{"mu":"5","lambda":"6","framing":-1}],'
            '"handles":{"h0":1,"h1":1,"h3":1,"h4":1}}\n',
            "",
        )

    def test_atf(self, capsys, tmp_path):
        picture = tmp_path / "picture.svg"
        code, out, err = run(capsys, "atf", "build", "1", "1", "2", "--svg", str(picture))
        assert (code, sha256(out), err) == (
            0,
            "5a32dd2c03ebf9bb24648d421946a4242917b96f968e08f8208ba74bfd957280",
            "",
        )
        assert sha256(picture.read_text(encoding="utf-8")) == (
            "745ea508204940e0f70c686b202fa9501d2cb117ea72be43893d317fc830248e"
        )
        f = tmp_path / "diagram.json"
        f.write_text(out)
        moves = {
            ("--transfer", "0"): "8d45c90d61db29950fc40dbd407805f15b0bf40f049e9c16eb76d45c31a4e590",
            ("--transfer", "1"): "0985c446182f365e7357ae29c1a52b256cf2183aea3db0af4e683f73b19d6872",
            ("--transfer", "2"): "e5737548d8a203c5c79991886fc3380ae0d823d886df42775a1c8b2e8f344d86",
            ("--slide", "0", "1/2"): "a978067263c1f7c1973f28ec0452a275848aa286c798a62e1a2353f608b2d57b",
        }
        for move, digest in moves.items():
            code, out, err = run(capsys, "atf", "move", str(f), *move)
            assert (code, sha256(out), err) == (0, digest, "")


class TestErrorsAndDeterminism:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "atf", "build", "1", "2", "5")
        _, out2, _ = run(capsys, "atf", "build", "1", "2", "5")
        assert out1 == out2

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lenscalc.cli", "lens", "surgery",
             "--knot", "5", "-8", "--ambient", "3", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == '[{"lens":[8,5]},{"lens":[7,3]}]\n'


class TestSvgRendering:
    def test_plain_triangle(self):
        from lenscalc.atf import standard_cp2

        text = render_svg(standard_cp2())
        assert text.startswith("<?xml") and "</svg>" in text

    @pytest.mark.parametrize(
        "vertices",
        [
            ((0, 0), (10**400, 0), (0, 1)),  # past the float range: OverflowError in int / int
            ((0, 0), (1, 0), (0, 10**400)),
            ((0, 0), (10**307, 0), (0, 1)),  # a float, but not once scaled
        ],
        ids=["wide", "tall", "wide-once-scaled"],
    )
    def test_extent_past_the_float_range(self, vertices):
        with pytest.raises(PreconditionError, match="float range of the SVG projection"):
            render_svg(rational_diagram(vertices))
