"""CLI fuzz test: arbitrary bytes, saved as a .csv or a .json file and
given to every subcommand, end in a documented exit code (0 success,
2 parse error, 3 validation error, 4 bad arguments) and never in an
exception."""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmanip.cli import main

COMMANDS = {
    "validate": [],
    "weights": ["--normalize"],
    "convert": ["--to", "additive"],
    "project": ["--pair", "1", "2"],
    "tip": ["--pair", "1", "2", "--winner", "2"],
    "emi": ["--pair", "1", "2"],
    "scan": [],
}

cells = st.one_of(st.integers(-3, 3), st.floats(), st.sampled_from(["1", "x", "", None]))
csv_text = st.lists(st.lists(cells, max_size=4), max_size=5).map(
    lambda rows: "\n".join(",".join("" if c is None else str(c) for c in row) for row in rows))
json_text = st.fixed_dictionaries(
    {"matrix": st.one_of(st.lists(st.lists(cells, max_size=4), max_size=4), cells)},
    optional={"scale": st.sampled_from(["additive", "multiplicative", "log", 1]),
              "names": st.one_of(st.lists(st.text(max_size=2), max_size=4), cells)},
).map(json.dumps)
payloads = st.one_of(st.binary(max_size=80), csv_text.map(str.encode), json_text.map(str.encode))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", list(COMMANDS))
@given(data=payloads, suffix=st.sampled_from([".csv", ".json"]),
       scale=st.sampled_from(["multiplicative", "additive"]),
       output=st.sampled_from(["text", "json", "csv"]), names=st.booleans())
@example(data=b"\xff\xfe1,2\n0.5,1\n", suffix=".csv", scale="multiplicative",
         output="text", names=False)
@example(data=b'{"matrix": [[1, 1' + b"0" * 400 + b"], [1, 1]]}", suffix=".json",
         scale="multiplicative", output="text", names=False)
@settings(max_examples=15, deadline=None)
def test_any_input_ends_in_a_documented_exit(workdir, command, data, suffix, scale, output,
                                             names):
    path = workdir / f"input{suffix}"
    path.write_bytes(data)
    argv = [command, str(path), "--scale", scale, "--output", output, *COMMANDS[command]]
    if names:
        argv.append("--names")
    assert main(argv, out=io.StringIO()) in {0, 2, 3, 4}
