import io
import json
from pathlib import Path

import numpy as np
import pytest

import pcmanip.projection
from pcmanip.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    CliParseError,
    main,
    parse_matrix_file,
)

from refdata import EXAMPLE_A, EXAMPLE_A_PROJECTED


@pytest.fixture
def example_csv(tmp_path):
    path = tmp_path / "example.csv"
    path.write_text(
        "\n".join(",".join(str(v) for v in row) for row in EXAMPLE_A) + "\n"
    )
    return str(path)


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestParseMatrixFile:
    def test_csv_additive(self, example_csv):
        mf = parse_matrix_file(example_csv, default_scale="additive")
        assert mf.scale == "additive"
        assert np.array_equal(mf.matrix, EXAMPLE_A)
        assert mf.names is None

    def test_json_multiplicative(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"scale": "multiplicative", "matrix": [[1, 2], [0.5, 1]]}')
        mf = parse_matrix_file(str(path))
        assert mf.scale == "multiplicative"
        assert np.array_equal(mf.matrix, [[1, 2], [0.5, 1]])

    def test_json_names(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"scale": "multiplicative", "matrix": [[1, 2], [0.5, 1]],'
            ' "names": ["cost", "speed"]}'
        )
        assert parse_matrix_file(str(path)).names == ["cost", "speed"]

    def test_csv_header_names(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("cost,speed\n1,2\n0.5,1\n")
        mf = parse_matrix_file(str(path), expect_names=True)
        assert mf.names == ["cost", "speed"]
        assert mf.matrix.shape == (2, 2)

    def test_ragged_csv_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CliParseError) as exc:
            parse_matrix_file(str(path))
        assert exc.value.line == 2

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nx,1\n")
        with pytest.raises(CliParseError) as exc:
            parse_matrix_file(str(path))
        assert (exc.value.line, exc.value.column) == (2, 1)

    @pytest.mark.parametrize("text, location", [("1,2\n\nx,1\n", (3, 1)),
                                                ("1,2\n\n3\n", (3, None)),
                                                ("a,b\n\n0,1\n\n-1\n", (5, None))],
                             ids=["number", "ragged", "ragged-after-names"])
    def test_locations_count_blank_lines(self, tmp_path, text, location):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CliParseError) as exc:
            parse_matrix_file(str(path), expect_names=text.startswith("a"))
        assert (exc.value.line, exc.value.column) == location

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,a\n1,2\n0.5,1\n")
        with pytest.raises(CliParseError):
            parse_matrix_file(str(path), expect_names=True)

    def test_missing_file(self):
        with pytest.raises(CliParseError):
            parse_matrix_file("/nonexistent/matrix.csv")


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        code, _ = run(["validate", str(path)])
        assert code == EXIT_PARSE

    def test_validation_error_is_3(self, example_csv):
        # additive entries read as multiplicative: zero diagonal fails
        code, _ = run(["validate", example_csv])
        assert code == EXIT_VALIDATION

    def test_bad_pair_is_4(self, example_csv):
        code, _ = run(["project", example_csv, "--scale", "additive",
                       "--pair", "2", "9"])
        assert code == EXIT_USAGE

    def test_bad_winner_is_4(self, example_csv):
        code, _ = run(["tip", example_csv, "--scale", "additive",
                       "--pair", "2", "3", "--winner", "5"])
        assert code == EXIT_USAGE

    def test_bad_delta_is_4(self, example_csv):
        code, _ = run(["tip", example_csv, "--scale", "additive",
                       "--pair", "2", "3", "--winner", "2", "--delta", "-1"])
        assert code == EXIT_USAGE

    def test_unknown_subcommand_is_4(self):
        assert main(["frobnicate"]) == EXIT_USAGE


class TestValidateCommand:
    def test_valid_additive(self, example_csv):
        code, out = run(["validate", example_csv, "--scale", "additive"])
        assert code == EXIT_OK
        assert "valid additive" in out

    def test_json_report(self, example_csv):
        code, out = run(["validate", example_csv, "--scale", "additive",
                         "--output", "json"])
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["tolerances"]["antisymmetry"] == 1e-9

    def test_tolerance_flag_is_honored(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n0.499,1\n")
        assert run(["validate", str(path)])[0] == EXIT_VALIDATION
        code, _ = run(["validate", str(path), "--tol-reciprocity", "0.01"])
        assert code == EXIT_OK


class TestWeightsCommand:
    def test_additive_weights_text(self, example_csv):
        code, out = run(["weights", example_csv, "--scale", "additive"])
        assert code == EXIT_OK
        assert "0.2000, 1.2000, -1.8000, -3.4000, 3.8000" in out
        assert "(5, 2, 1, 3, 4)" in out

    def test_multiplicative_normalized(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,4\n0.25,1\n")
        code, out = run(["weights", str(path), "--normalize"])
        assert code == EXIT_OK
        assert "0.8000, 0.2000" in out

    def test_normalizing_additive_weights_is_4(self, example_csv, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text('{"scale": "additive", "matrix": [[0, 1], [-1, 0]]}')
        for argv in (["weights", example_csv, "--scale", "additive", "--normalize"],
                     ["weights", str(path), "--normalize"]):
            assert run(argv) == (EXIT_USAGE, "")
            assert capsys.readouterr().err.startswith("argument error: --normalize")

    def test_csv_output_full_precision(self, example_csv):
        code, out = run(["weights", example_csv, "--scale", "additive",
                         "--output", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "alternative,weight"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.2, abs=1e-15)


class TestConvertCommand:
    def test_round_trip_through_files(self, tmp_path, example_csv):
        code, out = run(["convert", example_csv, "--scale", "additive",
                         "--to", "multiplicative", "--output", "csv"])
        assert code == EXIT_OK
        mult = tmp_path / "mult.csv"
        mult.write_text(out)
        code, out = run(["convert", str(mult), "--to", "additive",
                         "--output", "csv"])
        assert code == EXIT_OK
        back = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().splitlines()])
        assert np.allclose(back, EXAMPLE_A, rtol=1e-9)


class TestProjectCommand:
    def test_reference_projection_text(self, example_csv):
        code, out = run(["project", example_csv, "--scale", "additive",
                         "--pair", "2", "3"])
        assert code == EXIT_OK
        assert "weights after:  (0.2000, -0.3000, -0.3000, -3.4000, 3.8000)" in out

    def test_reference_projection_json(self, example_csv):
        code, out = run(["project", example_csv, "--scale", "additive",
                         "--pair", "2", "3", "--output", "json"])
        payload = json.loads(out)
        assert np.allclose(payload["matrix"], EXAMPLE_A_PROJECTED, atol=1e-9)
        assert np.allclose(payload["weights_after"],
                           [0.2, -0.3, -0.3, -3.4, 3.8], atol=1e-9)

    def test_json_output_is_a_fixed_point(self, tmp_path, example_csv):
        _, out = run(["project", example_csv, "--scale", "additive",
                      "--pair", "2", "3", "--output", "json"])
        first = json.loads(out)
        again = tmp_path / "projected.json"
        again.write_text(json.dumps({"scale": "additive",
                                     "matrix": first["matrix"]}))
        _, out = run(["project", str(again), "--scale", "additive",
                      "--pair", "2", "3", "--output", "json"])
        second = json.loads(out)
        assert np.allclose(second["matrix"], first["matrix"], atol=1e-9)
        assert second["distance"] == pytest.approx(0.0, abs=1e-9)


class TestTipCommand:
    def test_tip_text_report(self, example_csv):
        code, out = run(["tip", example_csv, "--scale", "additive",
                         "--pair", "2", "3", "--winner", "3",
                         "--delta", "0.01"])
        assert code == EXIT_OK
        assert "verdict: pass" in out

    def test_tip_json_weights(self, example_csv):
        _, out = run(["tip", example_csv, "--scale", "additive",
                      "--pair", "2", "3", "--winner", "3", "--delta", "0.01",
                      "--output", "json"])
        payload = json.loads(out)
        assert payload["verdict"]["passed"] is True
        w = np.mean(payload["matrix"], axis=1)
        assert np.allclose(w, [0.2, -0.302, -0.298, -3.4, 3.8], atol=1e-12)


class TestEmiCommand:
    def test_text_report(self, example_csv):
        code, out = run(["emi", example_csv, "--scale", "additive",
                         "--pair", "2", "3"])
        assert code == EXIT_OK
        assert "EMI: 1.7143" in out
        assert "nonzero entries: 14 of at most 14" in out

    def test_json_report(self, example_csv):
        _, out = run(["emi", example_csv, "--scale", "additive",
                      "--pair", "2", "3", "--output", "json"])
        payload = json.loads(out)
        assert payload["emi"] == pytest.approx(24 / 14, abs=1e-12)
        assert payload["nonzero_count"] == 14


class TestScanCommand:
    def test_zero_matrix_scan(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("0,0,0\n0,0,0\n0,0,0\n")
        code, out = run(["scan", str(path), "--scale", "additive",
                         "--output", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["rows"]) == 3
        assert all(r["emi"] == 0 for r in payload["rows"])

    def test_csv_output(self, example_csv):
        code, out = run(["scan", example_csv, "--scale", "additive",
                         "--output", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,emi,distance,f_value"
        assert len(lines) == 11

    def test_names_in_text_output(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("a,b,c\n0,1,2\n-1,0,1\n-2,-1,0\n")
        code, out = run(["scan", str(path), "--scale", "additive", "--names"])
        assert code == EXIT_OK
        assert "(a,b)" in out

    def test_long_names_keep_the_text_table_aligned(self):
        named = Path(__file__).parent / "golden" / "inputs" / "named.csv"
        code, out = run(["scan", str(named), "--scale", "additive", "--names"])
        assert code == EXIT_OK
        assert len({len(line) for line in out.splitlines()}) == 1

    @pytest.mark.parametrize("output", ["text", "json", "csv"])
    def test_valid_two_by_two_scans_its_one_pair(self, tmp_path, output, capsys):
        path = tmp_path / "two.csv"
        path.write_text("1,2\n0.5,1\n")
        code, out = run(["scan", str(path), "--output", output])
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        rows = json.loads(out)["rows"] if output == "json" else out.splitlines()[1:]
        assert len(rows) == 1
        assert "0.6931" in out  # EMI = |f|/2 with f = 2 ln 2


class TestRobustInput:
    @pytest.mark.parametrize("names", ['[[1], [2]]', '[1, 2]', '["a", null]'])
    def test_non_string_names_are_a_parse_error(self, tmp_path, names):
        path = tmp_path / "m.json"
        path.write_text('{"scale": "additive", "matrix": [[0, 1], [-1, 0]], '
                        f'"names": {names}}}')
        with pytest.raises(CliParseError, match="must be strings"):
            parse_matrix_file(str(path))
        code, out = run(["weights", str(path)])
        assert (code, out) == (EXIT_PARSE, "")

    @pytest.mark.parametrize("names", ['["a"]', '["a", "b", "c"]', '"ab"', '{"a": 1}'])
    def test_names_that_are_not_one_per_alternative_are_a_parse_error(self, tmp_path, names):
        path = tmp_path / "m.json"
        path.write_text('{"scale": "additive", "matrix": [[0, 1], [-1, 0]], '
                        f'"names": {names}}}')
        with pytest.raises(CliParseError, match="^expected 2 names, got "):
            parse_matrix_file(str(path))
        code, out = run(["weights", str(path)])
        assert (code, out) == (EXIT_PARSE, "")

    def test_a_names_header_of_the_wrong_length_is_a_parse_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n0,1\n-1,0\n")
        with pytest.raises(CliParseError, match=r"^expected 2 names, got \['a', 'b', 'c'\]$"):
            parse_matrix_file(str(path), "additive", expect_names=True)

    @pytest.mark.parametrize("command", ["validate", "weights", "scan"])
    def test_nan_csv_exits_3(self, tmp_path, command, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1,2,4\n0.5,1,nan\n0.25,nan,1\n")
        code, out = run([command, str(path)])
        assert code == EXIT_VALIDATION
        assert "entry (2,3) = nan must be finite" in out + capsys.readouterr().err

    @pytest.mark.parametrize("doc, where", [
        ('{"matrix": [[true, true], [true, true]]}', "true (row 1, column 1)"),
        ('{"scale": "additive", "matrix": [["0", "1"], ["-1", "0"]]}', '"0" (row 1, column 1)'),
        ('{"scale": "additive", "matrix": [[0, 1], [null, 0]]}', "null (row 2, column 1)"),
        ('{"scale": "additive", "matrix": [[0, false], [-1, 0]]}', "false (row 1, column 2)"),
        ('{"scale": "additive", "matrix": [[0, 1], [-1, "nan"]]}', '"nan" (row 2, column 2)'),
    ], ids=["true", "string", "null", "false", "nan-string"])
    def test_a_json_entry_that_is_not_a_number_is_a_parse_error(self, tmp_path, doc, where, capsys):
        """numpy would read true as 1.0, "0" as 0.0 and null as NaN."""
        path = tmp_path / "m.json"
        path.write_text(doc)
        code, out = run(["validate", str(path)])
        assert (code, out) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == f"parse error: not a number: {where}\n"

    def test_infinite_additive_json_exits_3(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"scale": "additive", '
                        '"matrix": [[0, 1, 2], [-1, 0, 1e999], [-2, -1e999, 0]]}')
        code, _ = run(["scan", str(path), "--output", "json"])
        assert code == EXIT_VALIDATION


class TestUnreadableInput:
    BAD_UTF8 = b"\xff\xfe1,2\n0.5,1\n"

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.BAD_UTF8)
        code, out = run(["validate", str(path)])
        assert (code, out) == (EXIT_PARSE, "")
        assert capsys.readouterr().err.startswith("parse error: cannot read")

    def test_non_utf8_stdin_is_a_parse_error(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(self.BAD_UTF8), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out = run(["validate", "-"])
        assert (code, out) == (EXIT_PARSE, "")
        assert capsys.readouterr().err.startswith("parse error: cannot read -")

    def test_integer_beyond_float_range_is_a_parse_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"matrix": [[1, 1%s], [1, 1]]}' % ("0" * 400))
        assert run(["validate", str(path)]) == (EXIT_PARSE, "")

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run(["validate", str(path)]) == (EXIT_PARSE, "")


class TestArgumentValues:
    @pytest.mark.parametrize("flag", ["--tol-reciprocity", "--tol-antisymmetry", "--tol-tie"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_is_4(self, example_csv, flag, value, capsys):
        code, out = run(["validate", example_csv, "--scale", "additive", flag, value])
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("argument error: tolerance")

    def test_nan_tolerance_does_not_pass_a_non_reciprocal_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,1\n")
        assert run(["validate", str(path), "--tol-reciprocity", "nan"])[0] == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_delta_is_4(self, example_csv, value, capsys):
        code, out = run(["tip", example_csv, "--scale", "additive", "--pair", "2", "3",
                         "--winner", "3", "--delta", value])
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("argument error: delta")

    def test_delta_beyond_float64_is_4(self, capsys):
        example = str(Path(__file__).parent / "golden" / "inputs" / "example.csv")
        argv = ["tip", example, "--scale", "additive", "--pair", "2", "3", "--winner", "3"]
        assert run(argv + ["--delta", "1.7e308"]) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("argument error: delta = 1.7e+308")
        code, out = run(argv + ["--delta", "1.2e308"])  # delta * sqrt(2) still fits
        assert code == EXIT_OK
        assert "verdict: pass" in out
        assert capsys.readouterr().err == ""


class TestLazyCoefficients:
    """Only project's text and JSON read the coefficients, which the
    O(n^6) basis route computes; its CSV must not build a basis."""

    ARGS = ["--scale", "additive", "--pair"]

    @pytest.mark.parametrize("pair", [("2", "3"), ("2", "5")])
    def test_text_and_json_print_one_coefficient_per_basis_element(self, example_csv, pair):
        n = 5
        dim = (n * n - n) // 2 - 1
        code, out = run(["project", example_csv, *self.ARGS, *pair])
        assert code == EXIT_OK
        line = next(ln for ln in out.splitlines() if ln.startswith("coefficients:"))
        assert line.count(",") + 1 == dim
        code, out = run(["project", example_csv, *self.ARGS, *pair, "--output", "json"])
        assert code == EXIT_OK
        assert len(json.loads(out)["coefficients"]) == dim

    def test_csv_builds_no_basis(self, example_csv, monkeypatch):
        def unread(result):
            raise RuntimeError("coefficients read")

        for output in ("text", "json", "csv"):  # no output builds a basis
            code, _ = run(["project", example_csv, *self.ARGS, "2", "5", "--output", output])
            assert code == EXIT_OK
        monkeypatch.setattr(pcmanip.projection.ProjectionResult, "coefficients", property(unread))
        code, out = run(["project", example_csv, *self.ARGS, "2", "3", "--output", "csv"])
        assert code == EXIT_OK  # and the CSV reads no coefficients
        assert np.allclose(np.loadtxt(io.StringIO(out), delimiter=","), EXAMPLE_A_PROJECTED)
        for output in ("text", "json"):
            with pytest.raises(RuntimeError, match="coefficients read"):
                run(["project", example_csv, *self.ARGS, "2", "3", "--output", output])


class TestExtremeMagnitudes:
    ROW_SUM_OVERFLOWS = "0,1e308,1e308\n-1e308,0,1e308\n-1e308,-1e308,0\n"
    GAP_OVERFLOWS = "0,1e308,5e307\n-1e308,0,-5e307\n-5e307,5e307,0\n"
    COMMANDS = [["validate"], ["weights"], ["convert", "--to", "multiplicative"],
                ["project", "--pair", "1", "2"], ["tip", "--pair", "1", "2", "--winner", "1"],
                ["emi", "--pair", "1", "2"], ["scan"]]

    @pytest.mark.parametrize("text", [ROW_SUM_OVERFLOWS, GAP_OVERFLOWS], ids=["row-sum", "gap"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_row_sums_beyond_float64_exit_3(self, tmp_path, text, command, capsys):
        path = tmp_path / "big.csv"
        path.write_text(text)
        code, out = run([command[0], str(path), "--scale", "additive", *command[1:]])
        assert code == EXIT_VALIDATION
        assert "entry (1,2) = 1e+308 drives the row sums" in out + capsys.readouterr().err

    def test_convert_at_the_exponent_limit_round_trips(self, tmp_path):
        a = np.array([[0, 709, -709], [-709, 0, 709], [709, -709, 0]], dtype=float)
        path = tmp_path / "a.csv"
        path.write_text("\n".join(",".join(map(str, row)) for row in a) + "\n")
        code, out = run(["convert", str(path), "--scale", "additive",
                         "--to", "multiplicative", "--output", "csv"])
        assert code == EXIT_OK
        path.write_text(out)
        assert run(["validate", str(path)])[0] == EXIT_OK
        code, out = run(["convert", str(path), "--to", "additive", "--output", "csv"])
        assert code == EXIT_OK
        assert np.allclose(np.loadtxt(io.StringIO(out), delimiter=","), a, rtol=0, atol=1e-9)

    def test_convert_beyond_the_exponent_limit_exits_3(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("0,1,-1\n-1,0,710\n1,-710,0\n")
        code, out = run(["convert", str(path), "--scale", "additive", "--to", "multiplicative"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "entry (2,3) = 710.0 exceeds the exponent range" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
class TestNoNumpyWarnings:
    def test_overflowing_reciprocity_product(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,1e200\n1e200,1\n")
        assert run(["validate", str(path)])[0] == EXIT_VALIDATION

    def test_overflowing_ratio_scale_factor(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,2000\n-2000,0\n")
        code, out = run(["emi", str(path), "--scale", "additive", "--pair", "1", "2"])
        assert code == EXIT_OK
        assert "e^EMI = inf" in out
