"""The suite's pytest settings let a failing property test report itself."""

import ast
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


def _assert_probe_reports_its_example(tmp_path, text):
    """Run the probe module text by pytest under the project's settings: the failing property
    prints its example, and the session goes on to the passing test."""
    (tmp_path / "test_probe.py").write_text(text)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_a_failing_hypothesis_test_prints_its_example_and_the_session_goes_on(tmp_path):
    _assert_probe_reports_its_example(tmp_path, PROBE)


def test_an_error_marker_that_keeps_the_ini_ignore_prints_the_example(tmp_path):
    # the form of a module's or class's own "every warning an error" marker
    marker = ('import pytest\npytestmark = pytest.mark.filterwarnings(\n    "error", '
              '"ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")\n')
    _assert_probe_reports_its_example(tmp_path, marker + PROBE)


def _error_markers():
    """(file, line, args) of every filterwarnings("error", ...) marker in tests/."""
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "filterwarnings" and node.args
                    and isinstance(node.args[0], ast.Constant) and node.args[0].value == "error"):
                yield path.name, node.lineno, [ast.literal_eval(arg) for arg in node.args]


def test_every_error_marker_keeps_the_ini_ignores(pytestconfig):
    # a marker's filters replace the ini's, so one that drops the libcst warning's ignore turns a
    # failing property's report into INTERNALERROR again
    ignores = [line for line in pytestconfig.getini("filterwarnings") if line.startswith("ignore:")]
    markers = list(_error_markers())
    assert ignores and markers
    for name, line, args in markers:
        assert all(ignore in args for ignore in ignores), f"{name}:{line} {args}"
