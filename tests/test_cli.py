import io
import json

import numpy as np
import pytest

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

    @pytest.mark.parametrize("command", ["validate", "weights", "scan"])
    def test_nan_csv_exits_3(self, tmp_path, command, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1,2,4\n0.5,1,nan\n0.25,nan,1\n")
        code, out = run([command, str(path)])
        assert code == EXIT_VALIDATION
        assert "entry (2,3) = nan must be finite" in out + capsys.readouterr().err

    def test_infinite_additive_json_exits_3(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"scale": "additive", '
                        '"matrix": [[0, 1, 2], [-1, 0, 1e999], [-2, -1e999, 0]]}')
        code, _ = run(["scan", str(path), "--output", "json"])
        assert code == EXIT_VALIDATION
