"""Golden CLI outputs: every subcommand in every format, compared byte
for byte with the recorded stdout and exit code.

``tests/golden/cases.json`` lists each case's argv (paths relative to
``tests/golden``) and exit code; ``tests/golden/out/<name>.txt`` holds
its stdout.  After an intended change of output, record the cases again
with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
import json
from pathlib import Path

import pytest

from pcmanip.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(case):
    argv = [str(GOLDEN / arg) if arg.startswith("inputs/") else arg for arg in case["argv"]]
    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_output(case):
    code, stdout = run_case(case)
    expected = (GOLDEN / "out" / f"{case['name']}.txt").read_text(encoding="utf-8")
    assert stdout == expected
    assert code == case["exit"]


def test_every_command_and_format_is_covered():
    covered = {(case["argv"][0], case["argv"][case["argv"].index("--output") + 1])
               for case in CASES if "--output" in case["argv"]}
    commands = ("validate", "weights", "convert", "project", "tip", "emi", "scan")
    assert covered == {(c, f) for c in commands for f in ("text", "json", "csv")}


def record():
    (GOLDEN / "out").mkdir(exist_ok=True)
    for case in CASES:
        case["exit"], stdout = run_case(case)
        (GOLDEN / "out" / f"{case['name']}.txt").write_text(stdout, encoding="utf-8")
    lines = ",\n".join(json.dumps(case) for case in CASES)
    (GOLDEN / "cases.json").write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    record()
