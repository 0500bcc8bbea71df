import json
import subprocess
import sys

import pytest

from lenscalc import cli
from lenscalc.atf import AtfDiagram, affinely_equivalent
from lenscalc.markov import replay
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
        obj = json.loads(out)
        assert obj["pass"] and obj["triples"] == 9

    def test_depth_cap(self, capsys):
        code, _, err = run(capsys, "markov", "tree", "--depth", "99")
        assert code == 2
        assert json.loads(err)["error"] == "precondition-failed"


class TestFareyCommands:
    def test_path(self, capsys):
        code, out, _ = run(capsys, "farey", "path", "-8/5", "0")
        assert code == 0
        assert json.loads(out) == {
            "slopes": [["-8", "5"], ["-3", "2"], ["-1", "1"], ["0", "1"]]
        }

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


class TestLensCommands:
    def test_surgery_exact_output(self, capsys):
        code, out, _ = run(
            capsys, "lens", "surgery", "--knot", "5", "-8", "--ambient", "3", "1"
        )
        assert code == 0
        assert out == '[{"lens":[8,5]},{"lens":[7,3]}]\n'

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

    def test_move_transfer(self, capsys, tmp_path):
        code, out, _ = run(capsys, "atf", "build", "1", "1", "1")
        f = tmp_path / "diagram.json"
        f.write_text(out)
        code, out, _ = run(capsys, "atf", "move", str(f), "--transfer", "0")
        assert code == 0
        d = AtfDiagram.from_json_obj(json.loads(out))
        assert len(d.nodes) == 3

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
