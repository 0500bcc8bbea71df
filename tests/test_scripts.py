"""The scripts under `scripts/`, each run as a program in its own process."""

import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from lenscalc import markov, verify

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


SCRIPTS = ["print_markov_table.py", "render_atf_gallery.py", "run_verification.py"]


def assert_usage_error(name, depth, message, tmp_path):
    out_dir = tmp_path / "gallery"
    extra = ["--out", str(out_dir)] if name == "render_atf_gallery.py" else []
    proc = run_script(name, "--depth", depth, *extra)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.endswith(f"{name}: error: {message}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("name", SCRIPTS)
def test_negative_depth_is_a_usage_error(name, tmp_path):
    assert_usage_error(name, "-1", "--depth must be at least 0", tmp_path)


@pytest.mark.parametrize(
    "depth, message",
    [
        ("1_0", "argument --depth: invalid integer value: '1_0'"),
        ("\u0662", "argument --depth: invalid integer value: '\u0662'"),  # Arabic-Indic 2
        ("17", "--depth must be at most 16"),
    ],
    ids=["underscore", "arabic-indic-digit", "past-the-cap"],
)
@pytest.mark.parametrize("name", SCRIPTS)
def test_depth_is_read_as_the_cli_reads_it(name, depth, message, tmp_path):
    # the CLI's own reader: ASCII decimal digits only, at most DEPTH_CAP
    assert_usage_error(name, depth, message, tmp_path)


def test_verification_script_makes_one_sweep(monkeypatch, capsys):
    # one run_all call, so one walk of the tree for the six tree criteria
    calls = {"enumerate_tree": 0, "run": 0}
    real_tree, real_run = markov.enumerate_tree, verify.run

    def enumerate_tree(depth):
        calls["enumerate_tree"] += 1
        return real_tree(depth)

    def run(numbers, depth):
        calls["run"] += 1
        return real_run(numbers, depth)

    monkeypatch.setattr(markov, "enumerate_tree", enumerate_tree)
    monkeypatch.setattr(verify, "run", run)
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--depth", "3"])
    script = runpy.run_path(str(ROOT / "scripts" / "run_verification.py"))
    assert script["main"]() == 0
    assert calls == {"enumerate_tree": 1, "run": 1}
    assert capsys.readouterr().out.endswith(", all passed\n")


def test_verification_script_prints_the_rows_of_verify_all():
    proc = run_script("run_verification.py", "--depth", "3")
    assert proc.returncode == 0
    assert proc.stderr == ""
    *rows, last = proc.stdout.splitlines()
    assert last.startswith("total ") and last.endswith("s, all passed")
    assert len(rows) == 18
    # each row is its status, number, time and description, then its detail
    lines = []
    for head, detail in zip(rows[::2], rows[1::2]):
        status, number, seconds, description = head.split(None, 3)
        assert status == "ok" and seconds.endswith("s") and float(seconds[:-1]) >= 0
        assert detail.startswith("         ")
        lines.append(f"ok {number} - {description} ({detail.strip()})")
    cli = run_python("-m", "lenscalc.cli", "verify", "all", "--depth", "3")
    assert cli.returncode == 0
    assert cli.stdout.splitlines() == lines + ["all criteria passed"]
