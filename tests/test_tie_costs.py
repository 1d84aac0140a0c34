"""The tie's costs from the row-sum gap: Hypothesis properties of the
projection and the tip, bit-for-bit agreement of every route to EMI and
distance with the scan, and the magnitudes near the float64 limit."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmanip import (
    AlternativePair,
    additive_weights,
    emi,
    frobenius_distance,
    pair_report,
    project_to_tie,
    scan_all_pairs,
    tip_pair,
)
from pcmanip.cli import EXIT_OK, _num
from pcmanip.errors import PcmError

from reference import frobenius_norm
from strategies import layout_cases
from test_cli import run
from test_reference_route import matrix_and_pair

# pair (1, 2) has f = 1.5e308: its |A - A'| sums to 2e308 before the division
SUM_OVERFLOW = np.array([[0, 0.75e308, 0], [-0.75e308, 0, 0], [0, 0, 0]])
# entries whose squares overflow
SQUARE_OVERFLOW = np.array([[0, 1e200, 0], [-1e200, 0, 0], [0, 0, 0]])
# a tied pair whose row sums, 0.55e308, a large delta pushes beyond float64
LARGE_ROW_SUMS = np.array([[0, 0, 0.55e308], [0, 0, 0.55e308], [-0.55e308, -0.55e308, 0]])
PAIR_12 = AlternativePair(1, 2, 3)


def _tol(a):
    return 1e-12 * max(1.0, float(np.max(np.abs(a))))


def _scan_row(a, pair):
    return next(r for r in scan_all_pairs(a).rows if {r.i, r.j} == {pair.i, pair.j})


def _csv(tmp_path, a):
    path = tmp_path / "a.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n")
    return str(path)


@given(matrix_and_pair())
@settings(max_examples=60, deadline=None)
def test_projection_is_idempotent(case):
    a, pair = case
    once = project_to_tie(a, pair).projected
    twice = project_to_tie(once, pair)
    assert np.max(np.abs(twice.projected.values - once.values)) <= _tol(a)
    assert twice.distance <= _tol(a)


@given(matrix_and_pair())
@settings(max_examples=60, deadline=None)
def test_bystander_weights_are_unchanged(case):
    a, pair = case
    others = [k for k in range(pair.n) if k not in (pair.i - 1, pair.j - 1)]
    before, after = additive_weights(a), additive_weights(project_to_tie(a, pair).projected)
    assert np.max(np.abs(after[others] - before[others])) <= _tol(a)


@given(matrix_and_pair(), st.floats(1e-6, 10.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_tip_gap_is_two_delta_over_n(case, delta, first_wins):
    a, pair = case
    winner, loser = (pair.i, pair.j) if first_wins else (pair.j, pair.i)
    w = additive_weights(tip_pair(project_to_tie(a, pair), winner, delta).tipped)
    assert abs(w[winner - 1] - w[loser - 1] - 2 * delta / pair.n) <= _tol(a)


@given(matrix_and_pair())
@settings(max_examples=60, deadline=None)
def test_report_and_projection_match_the_scan_bit_for_bit(case):
    a, pair = case
    row = _scan_row(a, pair)
    assert pair_report(a, pair).emi == row.emi
    assert project_to_tie(a, pair).distance == row.distance


@given(layout_cases(min_n=3))  # the scan starts at n = 3
@settings(max_examples=100, deadline=None)
def test_report_and_projection_match_the_scan_in_every_layout(case):
    """The same bits whatever the input's memory layout, scale or signed zeros: each
    route reads the validator's C-ordered copy, so every row sum adds in one order."""
    a, pair, _ = case
    row, report = _scan_row(a, pair), pair_report(a, pair)
    assert (report.emi, report.distance) == (row.emi, row.distance)
    assert project_to_tie(a, pair).distance == row.distance


class TestSumOverflow:
    """EMI of a matrix whose |A - A'| sums beyond float64."""

    EMI = 3.333333333333333e+307  # 1.5e308 * 4 / (3 * 6)

    def test_library(self):
        projected = project_to_tie(SUM_OVERFLOW, PAIR_12).projected
        assert _scan_row(SUM_OVERFLOW, PAIR_12).emi == self.EMI
        assert pair_report(SUM_OVERFLOW, PAIR_12).emi == self.EMI
        assert emi(SUM_OVERFLOW, projected) == self.EMI

    def test_cli(self, tmp_path, capsys):
        path = _csv(tmp_path, SUM_OVERFLOW)
        code, out = run(["emi", path, "--scale", "additive", "--pair", "1", "2",
                         "--output", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["emi"] == self.EMI
        code, out = run(["scan", path, "--scale", "additive", "--output", "json"])
        assert code == EXIT_OK
        assert self.EMI in [row["emi"] for row in json.loads(out)["rows"]]
        assert capsys.readouterr().err == ""

    def test_generic_emi_of_a_difference_beyond_float64(self):
        a = np.array([[0, 1e308, 0], [-1e308, 0, 0], [0, 0, 0]])
        assert emi(a, -a) == pytest.approx(4 / 6 * 1e308, rel=1e-15)


class TestSquareOverflow:
    """Norms of matrices whose squared entries overflow."""

    def test_library(self):
        tip = tip_pair(project_to_tie(SQUARE_OVERFLOW, PAIR_12), winner=2)
        assert tip.total_distance == pytest.approx(2e200 / math.sqrt(3), rel=1e-12)
        assert frobenius_norm(SQUARE_OVERFLOW) == pytest.approx(math.sqrt(2) * 1e200,
                                                                rel=1e-15)
        assert frobenius_distance(SQUARE_OVERFLOW, -SQUARE_OVERFLOW) == pytest.approx(
            math.sqrt(8) * 1e200, rel=1e-15)

    def test_cli(self, tmp_path, capsys):
        path = _csv(tmp_path, SQUARE_OVERFLOW)
        argv = ["tip", path, "--scale", "additive", "--pair", "1", "2", "--winner", "2"]
        code, out = run(argv)
        assert code == EXIT_OK
        assert "total distance: 1.1547e+200" in out
        code, out = run(argv + ["--output", "json"])
        assert json.loads(out)["total_distance"] == pytest.approx(1.1547005383792515e200)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", [["tip", "--pair", "1", "2", "--winner", "2"],
                                         ["emi", "--pair", "1", "2"], ["scan"],
                                         ["project", "--pair", "1", "2"]], ids=lambda c: c[0])
    def test_cli_lines_stay_short(self, tmp_path, command):
        code, out = run([command[0], _csv(tmp_path, SQUARE_OVERFLOW), "--scale", "additive",
                         *command[1:]])
        assert code == EXIT_OK
        assert max(map(len, out.splitlines())) <= 120

    @pytest.mark.parametrize("value, text", [
        (999999999999999.9, "999999999999999.8750"), (-1e15, "-1.0000e+15"),
        (1.1547005383792515e200, "1.1547e+200"), (math.inf, "inf"), (0.0, "0.0000")])
    def test_text_numbers_switch_to_exponents_at_1e15(self, value, text):
        assert _num(value) == text

    def test_beyond_float64_is_inf(self):
        a = np.full((3, 3), 1e308)
        assert frobenius_norm(a) == math.inf


class TestTipBeyondFloat64:
    def test_tipped_row_sum(self):
        projection = project_to_tie(LARGE_ROW_SUMS, PAIR_12)
        with pytest.raises(PcmError, match="delta = 1.27e"):
            tip_pair(projection, 1, 1.27e308)
        tip = tip_pair(projection, 1, 1.2e308)  # already tied, so only the tip moves
        assert tip.total_distance == pytest.approx(1.2e308 * math.sqrt(2), rel=1e-15)

    def test_extra_distance(self):
        projection = project_to_tie(np.zeros((3, 3)), PAIR_12)
        largest = np.finfo(float).max / math.sqrt(2)
        while math.isfinite(math.nextafter(largest, math.inf) * math.sqrt(2)):
            largest = math.nextafter(largest, math.inf)
        assert tip_pair(projection, 2, largest).extra_distance < math.inf
        with pytest.raises(PcmError, match="delta"):
            tip_pair(projection, 2, math.nextafter(largest, math.inf))
