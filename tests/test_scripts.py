"""The scripts under `scripts/`, each run as a program in its own process."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


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
