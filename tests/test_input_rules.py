"""Input rules that the other suites do not reach: a truncated JSON file,
a JSON object without a matrix, tied groups in a ranking's text, and EMI
for a single alternative."""

import io

import numpy as np
import pytest

from pcmanip import PcmError, emi, ranking_of
from pcmanip.cli import EXIT_PARSE, main


def run_weights(path, capsys):
    buf = io.StringIO()
    code = main(["weights", str(path)], out=buf)
    return code, buf.getvalue(), capsys.readouterr().err


def test_truncated_json_is_a_parse_error_with_its_location(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"matrix": [[1, 2], [0.5, 1]\n')
    code, out, err = run_weights(path, capsys)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "parse error: invalid JSON: Expecting ',' delimiter (line 2, column 1)\n"


def test_json_without_a_matrix_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "no-matrix.json"
    path.write_text('{"scale": "additive"}')
    code, out, err = run_weights(path, capsys)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == 'parse error: JSON input must be an object with a "matrix" key\n'


def test_ranking_text_braces_a_tied_group():
    assert str(ranking_of([1.0, 2.0, 1.0])) == "(2, {1,3})"


def test_emi_is_undefined_for_one_alternative():
    with pytest.raises(PcmError, match=r"^EMI undefined for n = 1$"):
        emi(np.zeros((1, 1)), np.zeros((1, 1)))
