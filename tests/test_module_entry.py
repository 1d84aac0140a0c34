"""The module entry point, `python -m pcmanip.cli`, in a fresh process run in
the caller's environment: cli.entry hands main()'s return value to sys.exit,
so the process exit status is the documented code."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcmanip

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(pcmanip.__file__).resolve().parents[1])


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "pcmanip.cli", *argv], cwd=GOLDEN,
                          capture_output=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=120)


def test_scan_prints_the_golden_bytes_and_exits_0():
    done = run_module("scan", "inputs/example.csv", "--scale", "additive")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "out" / "scan-text.txt").read_bytes()


@pytest.mark.parametrize("code, argv", [
    (2, ["weights", "inputs/ragged.csv"]),
    (3, ["scan", "inputs/invalid.csv"]),
    (4, ["project", "inputs/example.csv", "--scale", "additive", "--pair", "2", "9"]),
], ids=["parse", "validation", "usage"])
def test_errors_exit_with_their_code(code, argv):
    done = run_module(*argv)
    assert done.returncode == code, done.stderr
    assert done.stdout == b""
    assert done.stderr
