"""A leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports
write, is dropped from a CSV or JSON input, from a file and from stdin."""

import io
from pathlib import Path

import pytest

from pcmanip.cli import EXIT_PARSE, main

GOLDEN = Path(__file__).parent / "golden"
BOM = "\ufeff".encode()

CASES = [
    ("example.csv", ["scan", "--scale", "additive"], "scan-text"),
    ("named.json", ["weights", "--output", "json"], "weights-names-json-json"),
]


def run(argv, path):
    out = io.StringIO()
    return main([argv[0], path, *argv[1:]], out=out), out.getvalue()


@pytest.mark.parametrize("name, argv, golden", CASES, ids=["csv", "json"])
def test_leading_bom_in_a_file_gives_the_golden(tmp_path, name, argv, golden):
    path = tmp_path / name
    path.write_bytes(BOM + (GOLDEN / "inputs" / name).read_bytes())
    want = (GOLDEN / "out" / f"{golden}.txt").read_text(encoding="utf-8")
    assert run(argv, str(path)) == (0, want)


@pytest.mark.parametrize("name, argv, golden", CASES, ids=["csv", "json"])
def test_leading_bom_on_stdin_gives_the_golden(monkeypatch, name, argv, golden):
    data = BOM + (GOLDEN / "inputs" / name).read_bytes()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    want = (GOLDEN / "out" / f"{golden}.txt").read_text(encoding="utf-8")
    assert run(argv, "-") == (0, want)


@pytest.mark.parametrize("name, argv", [case[:2] for case in CASES], ids=["csv", "json"])
@pytest.mark.parametrize("where", ["after the first character", "twice at the start"])
def test_any_other_bom_is_a_parse_error(tmp_path, capsys, name, argv, where):
    data = (GOLDEN / "inputs" / name).read_bytes()
    data = data[:1] + BOM + data[1:] if where.startswith("after") else BOM + BOM + data
    path = tmp_path / name
    path.write_bytes(data)
    assert run(argv, str(path)) == (EXIT_PARSE, "")
    assert capsys.readouterr().err.startswith("parse error:")
