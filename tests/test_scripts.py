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


@pytest.mark.parametrize(
    "name", ["print_markov_table.py", "render_atf_gallery.py", "run_verification.py"]
)
def test_negative_depth_is_a_usage_error(name, tmp_path):
    out_dir = tmp_path / "gallery"
    extra = ["--out", str(out_dir)] if name == "render_atf_gallery.py" else []
    proc = run_script(name, "--depth", "-1", *extra)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.endswith(f"{name}: error: --depth must be at least 0\n")
    assert not out_dir.exists()
