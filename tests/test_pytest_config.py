"""The suite's pytest settings let a failing property test report itself."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_prints_its_example_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
